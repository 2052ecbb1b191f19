"""Command-line front end: orbit census, decompositions, verification, sweeps.

Exit codes are a stable contract: 0 success, 2 usage or invalid input,
3 decomposition audit failure, 4 verification failure.

No configuration files and no environment variables; every behavior is a
flag, so runs are reproducible from the command line alone.

The grammar is one table, :data:`COMMANDS`: each command's help, handler
and flags.  A command line in the canonical form COMMAND (--flag VALUE)*
is read straight off the table by :func:`_parse_argv`, without importing
argparse; any other argv (help, ``--flag=value``, abbreviations, errors)
goes to the argparse parser that :func:`build_parser` builds from the
same table, which prints the help screens and the refusals.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import chain
from types import SimpleNamespace

from . import certificates as cert
from . import decompose as dec
from . import genus as gen
from . import groups as grp
from . import monomial as mono
from . import report as rep
from .curves import MoebiusLabel, moebius_transport, normalize
from .errors import (
    AuditFailError,
    CheckFailedError,
    FermatJacError,
    NotPrimeError,
    OracleDisagreementError,
    OutOfRangeError,
    TooLargeError,
    TooSmallError,
)
from .orbits import OrbitKind, is_prime, make_context, orbit_partition, s3_apply

# verify --depth full: the full checks hold the class of each of the 6 p^2
# group elements (classes by rule, no conjugation maps) and the p^2
# translations, so time and memory grow as p^2: 0.6 s and 24 MB at
# p = 263, 8-10 s and 157 MB at p = 997.  The genus oracles and the
# certificates take one cyclic subgroup per conjugacy class.
FULL_DEPTH_MAX_P = 997
# sweep --to: a serial sweep over 5..3000 (426 primes) takes 6-10 s.
SWEEP_MAX_TO = 3_000


# -- verification checks -------------------------------------------------------
#
# Each check returns a detail string and raises a package error on
# failure: a false predicate raises CheckFailedError through _require, so
# every verdict also holds under python -O.  cmd_verify runs the checks in
# order and stops at the first failure, naming the check.


def _require(cond, detail):
    if not cond:
        raise CheckFailedError(detail)


def _partition(ctx, cache):
    if "partition" not in cache:
        cache["partition"] = orbit_partition(ctx)
    return cache["partition"]


def check_orbit_partition_laws(ctx, cache):
    p = ctx.p
    part = _partition(ctx, cache)
    sizes = [o.size for o in part.orbits]
    _require(sum(sizes) == p - 2, f"p = {p}: the orbit sizes sum to {sum(sizes)}, not {p - 2}")
    special = sum(1 for o in part.orbits if o.kind is OrbitKind.SPECIAL_ONE)
    _require(special == 1, f"p = {p}: {special} orbits of the special kind, expected 1")
    gamma = sum(1 for o in part.orbits if o.kind is OrbitKind.GAMMA)
    _require(gamma == ctx.has_gamma, f"p = {p}: {gamma} gamma orbits with has_gamma = {ctx.has_gamma}")
    expected_generic = (p - 7) // 6 if ctx.has_gamma else (p - 5) // 6
    _require(
        part.generic_count == expected_generic,
        f"p = {p}: {part.generic_count} generic orbits, expected {expected_generic}",
    )
    for o in part.orbits:
        for a in o.elements:
            for name in ("U", "V"):
                image = s3_apply(name, a, ctx)
                _require(image in o.elements, f"p = {p}: {name}({a}) = {image} leaves the orbit {o.elements}")
    return f"{len(part.orbits)} orbits, {expected_generic} generic"


def check_s3_relations(ctx, cache):
    for a in range(1, ctx.p - 1):
        u1 = s3_apply("U", a, ctx)
        u2 = s3_apply("U", u1, ctx)
        _require(s3_apply("U", u2, ctx) == a, f"p = {ctx.p}: U^3 moves {a}")
        _require(s3_apply("V", s3_apply("V", a, ctx), ctx) == a, f"p = {ctx.p}: V^2 moves {a}")
        uv = s3_apply("U", s3_apply("V", a, ctx), ctx)
        _require(s3_apply("U", s3_apply("V", uv, ctx), ctx) == a, f"p = {ctx.p}: (UV)^2 moves {a}")
    return f"U^3 = V^2 = (UV)^2 = id on all {ctx.p - 2} points"


def check_moebius_transport(ctx, cache):
    p = ctx.p
    labels = list(MoebiusLabel)
    part = _partition(ctx, cache)
    for a in range(1, p - 1):
        o = part.orbit_of(a)
        images = Counter(moebius_transport(a, lab, ctx) for lab in labels)
        _require(set(images) == set(o.elements), f"p = {p}: the six images of {a} are not its orbit {o.elements}")
        mult = 6 // o.size
        _require(
            all(c == mult for c in images.values()),
            f"p = {p}: the images of {a} are not each hit {mult} times",
        )
    for f in labels:
        for g in labels:
            fg = f.compose(g)
            for a in (1, 2, p - 2):
                lhs = moebius_transport(a, fg, ctx)
                rhs = moebius_transport(moebius_transport(a, f, ctx), g, ctx)
                _require(lhs == rhs, f"p = {p}: transport by {f.name} then {g.name} at {a}: {lhs} != {rhs}")
    return "six images enumerate each orbit; composition consistent"


def check_normalization(ctx, cache):
    p = ctx.p
    for a in range(1, p - 1):
        _require(normalize(a, 1, ctx).alpha == a, f"p = {p}: normalize({a}, 1) is not {a}")
        _require(normalize(1, a, ctx).alpha == ctx.inv(a), f"p = {p}: normalize(1, {a}) is not 1/{a}")
    deltas = range(1, p) if p <= 31 else (2, 3, p - 1)
    for delta in deltas:
        for a in (1, 2, p - 2):
            for b in (1, 2):
                da, db = delta * a % p, delta * b % p
                if (a + b) % p == 0 or da == 0 or db == 0:
                    continue
                _require(
                    normalize(da, db, ctx).alpha == normalize(a, b, ctx).alpha,
                    f"p = {p}: normalize({a}, {b}) changes under rescaling by {delta}",
                )
    return "unit rescaling invariance holds"


def _coarse(ctx, cache):
    if "coarse" not in cache:
        cache["coarse"] = dec.decompose_coarse(ctx, _partition(ctx, cache))
    return cache["coarse"]


def _fine(ctx, cache):
    if "fine" not in cache:
        cache["fine"] = dec.decompose_fine(_coarse(ctx, cache))
    return cache["fine"]


def check_deck_quotient_audit(ctx, cache):
    # decompose_coarse and decompose_fine raise AuditFailError, naming the
    # failed hypothesis, unless their audits pass
    return f"{_coarse(ctx, cache).audit.subgroup_count} deck subgroups, all hypotheses pass"


def check_fine_decomposition(ctx, cache):
    if _fine(ctx, cache).gamma_refinement is not None:
        return "gamma factor refined; quotient-genus identities pass"
    return "no gamma root; fine = coarse"


def check_dimension_audit(ctx, cache):
    d = _fine(ctx, cache)
    info, shape = dec.dimension_audit(d)
    return f"sum mult*dim = {info['total_dimension']}, shape N = {shape['N']}"


def check_monomial_relations(ctx, cache):
    p = ctx.p
    jmap = mono.build_J(ctx)
    _require(mono.verify_curve_automorphism(jmap), f"p = {p}: J does not preserve the curve")
    _require(mono.compose(jmap, jmap) == mono.identity_map(p, 1), f"p = {p}: J^2 is not the identity")
    t1 = mono.build_T(ctx, gamma=1)
    _require(mono.map_power(t1, p) == mono.identity_map(p, 1), f"p = {p}: T^p is not the identity")
    block = {
        "J": jmap.render(),
        "relations": {"J^2 = id": True, "J preserves the curve": True, "T^p = id": True},
    }
    cache["monomial"] = block
    if not ctx.has_gamma:
        block["T"] = t1.render()
        return "J and T certified on the hyperelliptic curve; no gamma root"
    g = ctx.gamma
    parity = mono.epsilon_parity_report(ctx)
    _require(parity["rule_matches"], f"p = {p}: the epsilon parity rule does not match: {parity}")
    _require(mono.verify_relation([("R", 3)], [], ctx), f"p = {p}: R^3 is not the identity")
    _require(
        mono.verify_relation([("R", 1), ("T", 1)], [("T", g * g), ("R", 1)], ctx),
        f"p = {p}: R T != T^(gamma^2) R",
    )
    for l, lhs, rhs in mono.conjugation_sweep(ctx):
        _require(lhs == rhs, f"p = {p}: T^(-l) R T^l != T^(l (gamma^2 - 1)) R at l = {l}")
    tg = mono.build_T(ctx)
    _require(mono.map_power(tg, p) == mono.identity_map(p, g), f"p = {p}: T^p is not the identity (gamma = {g})")
    block["T"] = tg.render()
    block["R"] = mono.build_R(ctx).render()
    block["epsilon"] = parity
    block["relations"].update(
        {
            "R^3 = id": True,
            "R T = T^(gamma^2) R": True,
            f"T^(-l) R T^l = T^(l (gamma^2 - 1)) R for l = 0..{p - 1}": True,
            "R preserves the curve": True,
        }
    )
    return f"R^3, R T = T^(g^2) R, conjugation sweep (l = 0..{p - 1}), epsilon rule"


def _class_data(ctx, cache):
    if "class_data" not in cache:
        cache["class_data"] = grp.ClassData(grp.Group(ctx.p))
    return cache["class_data"]


def check_generating_triple(ctx, cache):
    triple = gen.find_generating_triple(ctx)
    evidence = gen.validate_triple(triple, _class_data(ctx, cache))
    cache["triple"], cache["full_fix"] = triple, evidence["fix_table"]
    return f"orders {tuple(evidence['orders'])}, fix(a1) = {evidence['fix_a1']}"


def _describe(k):
    gens = ", ".join(str(k.group.coordinates(i)) for i in k.generators)
    return f"the subgroup of order {k.order} generated by {gens}"


def check_dual_oracle_genus(ctx, cache):
    p = ctx.p
    triple = cache["triple"]
    data = _class_data(ctx, cache)
    fix = cache["full_fix"]
    g_top = gen.fermat_genus(p)
    h = grp.fermat_H(p)
    # Conjugate subgroups meet the same classes, so both oracles read the
    # same numbers off them: one cyclic subgroup per conjugacy class
    # stands for all (fix-table-consistency checks that the classes are
    # closed under conjugation).
    subgroups = grp.cyclic_subgroup_classes(data)
    classes = len(subgroups)
    # The deck lines H_j, j = 1..p-2, are the lines through (1, 1+j) in
    # F_p^2.  Each is cyclic, so conjugate to a representative generated
    # by some (m, n) off the three axes (m, n != 0, m != n): the H_j with
    # 1 + j = n/m.  Each join H_i H_j is H (determinant j - i).
    deck = cache["deck"] = []
    for k in chain(subgroups, [h]):
        rh, coset = gen.rh_genus(g_top, k, fix), gen.coset_genus(k, triple, data)
        if rh != coset:
            raise OracleDisagreementError(
                f"p = {p}, {_describe(k)}: Riemann-Hurwitz genus {rh}, coset genus {coset}"
            )
        m, n, s = k.group.coordinates(k.generators[0])
        if s == grp.PERM_ID and m and n and m != n:
            deck.append(n * pow(m, -1, p) % p - 1)
    return f"{classes} cyclic subgroups, one per conjugacy class ({len(deck)} of them deck lines), and H: both oracles agree"


def check_fix_table_consistency(ctx, cache):
    """The full fix table agrees with the axis table on H and meets the
    Lefschetz bound 0 <= fix <= 2 + 2g on every class, and the classes
    are the conjugacy classes.

    The table reads one count per class and the dual-oracle check takes
    one subgroup per class, so both stand for every element only if no
    conjugation moves an element out of its class.  The classes come from
    a rule (see :mod:`fermatjac.groups`), so that is checked by argument,
    in O(p^2), rather than element by element: conjugation by a
    translation w sends x s to (x + (I - A_s) w) s and conjugation by
    sigma sends it to (A_sigma x)(sigma s sigma^(-1)), so the rule's
    labels are invariant exactly when the translation labels are
    invariant under A_u and A_v, the square rule M_tau of each
    transposition tau has M_tau (I - A_tau) = 0 and moves with A_sigma,
    and ACTION respects PERM_MUL on all 36 products.  det(I - A_rho) != 0
    for both 3-cycles makes their elements one class, and every class
    size must be one the rule gives (1, 3, 6, 3p, 2p^2), summing to |G|,
    which catches merged classes alongside Frobenius' integrality.
    """
    p = ctx.p
    fix = cache["full_fix"]
    axis = gen.fermat_axis_fix_table(ctx)
    where = fix.group.coordinates
    for h in fix.group.translations[1:]:  # every element of H but the identity
        if fix.at(h) != axis.at(h):
            raise CheckFailedError(
                f"p = {p}: fix{where(h)} is {fix.at(h)} in the full table"
                f" and {axis.at(h)} in the axis table"
            )
    bound = 2 + 2 * gen.fermat_genus(p)
    data = _class_data(ctx, cache)
    for rep in data.reps[1:]:  # reps[0] is the identity
        c = fix.at(rep)
        _require(0 <= c <= bound, f"p = {p}: fix{where(rep)} = {c} is outside [0, {bound}]")
    gap = grp.class_rule_gap(data)
    _require(gap is None, f"p = {p}: {gap}")
    return "axis table matches, Lefschetz bound holds, class-constant"


def check_certificates(ctx, cache):
    p = ctx.p
    data = _class_data(ctx, cache)
    rat = cert.chi_rat(cache["full_fix"], data)
    pairing = cert.inner_product(cert.chi_trivial(data), rat)
    _require(pairing == 0, f"p = {p}: <triv, hom> = {pairing}, expected 0")
    # Conjugate subgroups have one permutation character, so the deck
    # classes stand for all p - 2 lines H_j.  They are one per exponent
    # orbit through alpha = p - 1 - j, which ties ACTION to U and V.
    deck, part = cache["deck"], _partition(ctx, cache)
    orbits, hit = set(part.orbits), {part.orbit_of(p - 1 - j) for j in deck}
    _require(
        len(deck) == len(orbits) and hit == orbits,
        f"p = {p}: {len(deck)} deck line classes meet {len(hit)} of the {len(orbits)} exponent orbits",
    )
    for j in deck:
        chi = cert.induced_perm_character(grp.fermat_Hj(p, j), data)
        value = cert.inner_product(chi, rat)
        _require(value == p - 1, f"p = {p}: <G/H_{j}, hom> = {value}, expected {p - 1}")
    norm = cert.inner_product(rat, rat)
    cache["certificates"] = {
        "pairing_trivial_vs_homology": 0,
        "pairing_deck_vs_homology": p - 1,
        "homology_self_pairing": norm,
        "chi_homology_at_scaling_generator": rat(grp.fermat_translation(p, 1, 0)),
        "conjugacy_class_count": len(data.reps),
    }
    return f"<triv,hom> = 0, <G/H_j,hom> = {p - 1} for all j, <hom,hom> = {norm}"


BASIC_CHECKS = [
    ("orbit-partition-laws", check_orbit_partition_laws),
    ("s3-relations", check_s3_relations),
    ("moebius-transport", check_moebius_transport),
    ("curve-normalization", check_normalization),
    ("deck-quotient-audit", check_deck_quotient_audit),
    ("fine-decomposition", check_fine_decomposition),
    ("dimension-audit", check_dimension_audit),
    ("monomial-relations", check_monomial_relations),
]

FULL_CHECKS = [
    ("generating-triple", check_generating_triple),
    ("dual-oracle-genus", check_dual_oracle_genus),
    ("fix-table-consistency", check_fix_table_consistency),
    ("certificates", check_certificates),
]


# -- commands -------------------------------------------------------------------


def _emit(report: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(rep.serialize(report))
    else:
        print(text)


def cmd_orbits(args) -> int:
    ctx = make_context(args.p)
    report = rep.orbits_report(ctx)
    _emit(report, rep.render_orbits_text(report), args.format)
    return 0


def cmd_decompose(args) -> int:
    ctx = make_context(args.p)
    report = rep.decompose_report(ctx, level=args.level)
    _emit(report, rep.render_decompose_text(report), args.format)
    return 0


def cmd_verify(args) -> int:
    ctx = make_context(args.p)
    checks = list(BASIC_CHECKS)
    if args.depth == "full":
        if ctx.p > FULL_DEPTH_MAX_P:
            raise TooLargeError(f"p = {ctx.p} exceeds the full-depth bound {FULL_DEPTH_MAX_P}")
        checks += FULL_CHECKS
    cache: dict = {}
    results = []
    failed = None
    for name, fn in checks:
        try:
            detail = fn(ctx, cache)
            results.append({"name": name, "status": "PASS", "detail": detail})
            if args.format == "text":
                print(f"PASS {name}: {detail}")
        except (AssertionError, FermatJacError) as exc:
            entry = {"name": name, "status": "FAIL", "detail": str(exc)}
            if isinstance(exc, FermatJacError):
                entry["code"] = exc.code
            results.append(entry)
            if args.format == "text":
                print(f"FAIL {name}: {exc}")
            failed = name
            break
    report = {
        "schema_version": rep.SCHEMA_VERSION,
        "command": "verify",
        "p": ctx.p,
        "depth": args.depth,
        "checks": results,
        "all_pass": failed is None,
    }
    if "monomial" in cache:
        report["monomial_maps"] = cache["monomial"]
    if "certificates" in cache:
        report["certificates"] = cache["certificates"]
    if "triple" in cache:
        report["provenance"] = {"triple": cache["triple"].as_dict()}
    if args.format == "json":
        sys.stdout.write(rep.serialize(report))
    elif failed is None:
        print(f"all {len(results)} checks passed (p={ctx.p}, depth={args.depth})")
    if failed is not None:
        print(f"verification failed at check: {failed}", file=sys.stderr)
        return 4
    return 0


def _sweep_one(p: int) -> dict:
    ctx = make_context(p)
    row = {"p": p, "residue_mod_3": ctx.residue_class_mod_3}
    try:
        cache: dict = {}
        check_orbit_partition_laws(ctx, cache)
        coarse = _coarse(ctx, cache)
        fine = dec.decompose_fine(coarse)
        dec.dimension_audit(fine)
        row.update(
            {
                "orbits": len(_partition(ctx, cache).orbits),
                "coarse": coarse.render(),
                "fine": fine.render(),
                "status": "PASS",
            }
        )
    except (AssertionError, FermatJacError) as exc:
        row.update({"status": "FAIL", "detail": str(exc)})
    return row


def cmd_sweep(args) -> int:
    lo, hi = args.from_, args.to
    if lo < 5 or hi < lo:
        print(f"error: bad sweep range [{lo}, {hi}]", file=sys.stderr)
        return 2
    if hi > SWEEP_MAX_TO:
        print(f"error: sweep bound {hi} is above the supported bound {SWEEP_MAX_TO}", file=sys.stderr)
        return 2
    rows = [_sweep_one(p) for p in range(lo, hi + 1) if is_prime(p)]
    passed = sum(1 for r in rows if r["status"] == "PASS")
    report = {
        "schema_version": rep.SCHEMA_VERSION,
        "command": "sweep",
        "from": lo,
        "to": hi,
        "rows": rows,
        "pass_count": passed,
        "total": len(rows),
    }
    if args.format == "json":
        sys.stdout.write(rep.serialize(report))
    else:
        for r in rows:
            if r["status"] == "PASS":
                print(
                    f"p={r['p']:>4} mod3={r['residue_mod_3']} orbits={r['orbits']:>3} "
                    f"{r['status']}  {r['fine']}"
                )
            else:
                print(f"p={r['p']:>4} FAIL  {r.get('detail', '')}")
        print(f"swept {len(rows)} primes: {passed} PASS, {len(rows) - passed} FAIL")
    return 0 if passed == len(rows) else 4


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_P = ("--p", {"type": int, "required": True, "help": "prime >= 5"})

# The CLI grammar, stated once: command -> (help, handler, its flags in
# order as (flag, add_argument keyword arguments)).  build_parser and
# _parse_argv both read it.
COMMANDS = {
    "orbits": ("orbit census of X_p", cmd_orbits, (_P, _FORMAT)),
    "decompose": (
        "emit the verified decomposition",
        cmd_decompose,
        (_P, ("--level", {"choices": ("coarse", "fine", "both"), "default": "both"}), _FORMAT),
    ),
    "verify": (
        "run the self-verification suite",
        cmd_verify,
        (_P, ("--depth", {"choices": ("basic", "full"), "default": "basic"}), _FORMAT),
    ),
    "sweep": (
        "per-prime summaries over a range",
        cmd_sweep,
        (
            ("--from", {"dest": "from_", "type": int, "required": True}),
            ("--to", {"type": int, "required": True}),
            _FORMAT,
        ),
    ),
}


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a canonical command line, COMMAND (--flag VALUE)*,
    exactly as argparse would build it; None for any other argv, which
    argparse then parses, helps or refuses.

    Only the command's exact flag names are taken, each value converted by
    the flag's ``type`` and checked against its ``choices``; the last
    occurrence of a flag wins and every required flag must be given.  Help,
    ``--flag=value``, abbreviations, values that start with ``-`` (argparse
    may read them as flags), ``--`` and a flag without a value are declined.
    """
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    _, handler, flags = COMMANDS[argv[0]]
    spec = dict(flags)
    given = {}
    for flag, token in zip(argv[1::2], argv[2::2]):
        kwargs = spec.get(flag)
        if kwargs is None or token.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if any(kwargs.get("required") and flag not in given for flag, kwargs in flags):
        return None
    values = {
        kwargs.get("dest", flag[2:].replace("-", "_")): given.get(flag, kwargs.get("default"))
        for flag, kwargs in flags
    }
    return SimpleNamespace(command=argv[0], **values, fn=handler)


def build_parser():
    """The argparse parser of :data:`COMMANDS`, for help screens and
    refusals and for every argv that :func:`_parse_argv` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fermatjac",
        description=(
            "Exact verification of the isogeny decomposition of Fermat-curve "
            "Jacobians into Jacobians of cyclic p-gonal curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
        command.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AuditFailError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 3
    except (NotPrimeError, TooSmallError, TooLargeError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FermatJacError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
