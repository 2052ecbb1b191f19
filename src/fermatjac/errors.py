"""Exception types shared across the package.

Every exception carries a stable ``code`` string naming the failed
predicate, so callers and tests can match on the code instead of on
message text.
"""


class FermatJacError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class NotPrimeError(FermatJacError):
    code = "NOT_PRIME"


class TooSmallError(FermatJacError):
    code = "TOO_SMALL"


class TooLargeError(FermatJacError):
    code = "TOO_LARGE"


class OutOfRangeError(FermatJacError):
    code = "OUT_OF_RANGE"


class DegenerateCurveError(FermatJacError):
    code = "DEGENERATE"


class GroupMismatchError(FermatJacError):
    code = "GROUP_MISMATCH"


class NoGammaError(FermatJacError):
    code = "NO_GAMMA"


class NotSubgroupOfHError(FermatJacError):
    code = "NOT_SUBGROUP_OF_H"


class InconsistentOrbifoldError(FermatJacError):
    code = "INCONSISTENT_ORBIFOLD"


class IdentityInputError(FermatJacError):
    code = "IDENTITY_INPUT"


class NonMonomialError(FermatJacError):
    code = "NON_MONOMIAL"


class AuditFailError(FermatJacError):
    code = "AUDIT_FAIL"


class InconsistentRHError(AuditFailError):
    code = "INCONSISTENT_RH"


class ShapeMismatchError(FermatJacError):
    code = "SHAPE_MISMATCH"


class CheckFailedError(FermatJacError):
    """A verification predicate is false; raised in place of ``assert`` so
    the verdict also holds under ``python -O``."""

    code = "CHECK_FAILED"


class OracleDisagreementError(CheckFailedError):
    code = "ORACLE_DISAGREEMENT"
