"""Command-line front end: orbit census, decompositions, verification, sweeps.

Exit codes are a stable contract: 0 success, 2 usage or invalid input,
3 decomposition audit failure, 4 verification failure, 5 stdout closed
before the output was written (the rest is discarded, with no traceback).

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
from itertools import chain

from . import certificates as cert
from . import decompose as dec
from . import genus as gen
from . import groups as grp
from . import monomial as mono
from . import report as rep
from .curves import MOEBIUS_TRANSPORT, MoebiusLabel, normalized_exponent
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
from .orbits import OrbitKind, is_prime, make_context, orbit_census, orbit_partition, probe_points

# verify --depth full has no bound of its own but MAX_P: classes by rule and
# by blocks, one subgroup per class from the line orbits, held by its
# generator, and H read by its lines make it O(p), 0.1 s and 14 MB at
# p = 997, 0.78-1.06 s and 42 MB at p = 100003.
# sweep --to: a serial sweep over 5..3000 (428 primes), verify's basic
# checks at each, takes 1.1-1.4 s and 17.5 MB.
SWEEP_MAX_TO = 3_000


# -- verification checks -------------------------------------------------------
#
# Each check returns a detail string and raises a package error on
# failure: a false predicate raises CheckFailedError, through _require or,
# in a loop over the probes, straight from the loop, which then formats
# its detail only on failure; so every verdict also holds under python -O.
# run_checks runs them in order and stops at the first failure, naming the
# check, for verify and, with the basic checks at each prime, for sweep.
#
# U, V, the six Moebius transport rules and the normalization rule are
# degree-1 rational maps of a, as is every composition of them, and two
# such maps that agree at three points agree on X_p: so the first four
# checks test each relation between them at the probes, not on all X_p.
# U and V are the transport rules of 1/(1-x) and 1-x, looked up at each use.
S3_LABELS = {"U": MoebiusLabel.CYC, "V": MoebiusLabel.ONE_MINUS}


def _require(cond, detail):
    if not cond:
        raise CheckFailedError(detail)


def _inverse(p):
    """b -> b^(-1) mod p, 0 at 0: the inv the rules take, one pow a call."""
    return lambda b: pow(b, -1, p) if b % p else 0


def _partition(ctx, cache):
    if "partition" not in cache:
        cache["partition"] = orbit_partition(ctx)
    return cache["partition"]


def check_orbit_partition_laws(ctx, cache):
    """U and V keep each orbit: the orbits, whose census is checked as they
    are built, are read off the six-element formula, six degree-1 maps of
    a that U and V permute, so U and V map each member of a probe's orbit."""
    p = ctx.p
    part = _partition(ctx, cache)
    inv = _inverse(p)
    for a in probe_points(ctx):
        members = part.orbit_of(a).elements
        for b in members:
            for name, label in S3_LABELS.items():
                image = MOEBIUS_TRANSPORT[label](b, inv, p)
                if image not in members:
                    raise CheckFailedError(f"p = {p}: {name}({b}) = {image} leaves the orbit {members}")
    return f"{len(part.orbits)} orbits, {orbit_census(ctx)[OrbitKind.GENERIC.value, 6]} generic"


def check_s3_relations(ctx, cache):
    """U^3 = V^2 = (UV)^2 = id at the probes, so on X_p."""
    p, inv, probes = ctx.p, _inverse(ctx.p), probe_points(ctx)
    for a in probes:
        for name, word in (("U^3", "UUU"), ("V^2", "VV"), ("(UV)^2", "UVUV")):
            b = a
            for letter in reversed(word):  # the rightmost letter acts first
                b = MOEBIUS_TRANSPORT[S3_LABELS[letter]](b, inv, p)
            if b != a:
                raise CheckFailedError(f"p = {p}: {name} moves {a}")
    return f"U^3 = V^2 = (UV)^2 = id at {', '.join(map(str, probes))}, so on all {p - 2} points"


def check_moebius_transport(ctx, cache):
    """The six images of each probe are its orbit, each hit 6 / size
    times, and the rules compose as their labels do, at the probes."""
    p, inv = ctx.p, _inverse(ctx.p)
    labels = list(MoebiusLabel)
    part = _partition(ctx, cache)
    rules = [MOEBIUS_TRANSPORT[lab] for lab in labels]
    rows = {a: [rule(a, inv, p) for rule in rules] for a in probe_points(ctx)}
    for a, row in rows.items():
        o = part.orbit_of(a)
        if sorted(row) != sorted(o.elements * (6 // o.size)):
            if set(row) != set(o.elements):
                raise CheckFailedError(f"p = {p}: the six images of {a} are not its orbit {o.elements}")
            raise CheckFailedError(f"p = {p}: the images of {a} are not each hit {6 // o.size} times")
    for i, f in enumerate(labels):
        for j, g in enumerate(labels):
            k = labels.index(f.compose(g))
            for a, row in rows.items():
                lhs, rhs = row[k], rules[j](row[i], inv, p)
                if lhs != rhs:
                    raise CheckFailedError(f"p = {p}: transport by {f.name} then {g.name} at {a}: {lhs} != {rhs}")
    return f"six images enumerate the orbit and compose consistently at {', '.join(map(str, rows))}"


def check_normalization(ctx, cache):
    """normalize(a, 1) = a and normalize(1, a) = 1/a at the probes, and
    invariance under rescaling (a, b) by 2, 3 and -1, for b = 1, 2."""
    p, probes = ctx.p, probe_points(ctx)
    for a in probes:
        if normalized_exponent(a, 1, ctx) != a:
            raise CheckFailedError(f"p = {p}: normalize({a}, 1) is not {a}")
        if normalized_exponent(1, a, ctx) != ctx.inv(a):
            raise CheckFailedError(f"p = {p}: normalize(1, {a}) is not 1/{a}")
    for delta in (2, 3, p - 1):
        for a in probes:
            for b in (1, 2):
                if (a + b) % p == 0:  # degenerate: normalized_exponent refuses it
                    continue
                if normalized_exponent(delta * a % p, delta * b % p, ctx) != normalized_exponent(a, b, ctx):
                    raise CheckFailedError(f"p = {p}: normalize({a}, {b}) changes under rescaling by {delta}")
    return f"unit rescaling invariance holds at {', '.join(map(str, probes))}"


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
    info, shape = dec.dimension_audit(_fine(ctx, cache))
    return f"sum mult*dim = {info['total_dimension']}, shape N = {shape['N']}"


def check_monomial_relations(ctx, cache):
    p = ctx.p
    gap = mono.moebius_table_gap(p)
    _require(gap is None, f"p = {p}: {gap}")
    jmap = mono.build_J(ctx)
    _require(mono.verify_curve_automorphism(jmap), f"p = {p}: J does not preserve the curve")
    _require(mono.compose(jmap, jmap) == mono.identity_map(p, 1), f"p = {p}: J^2 is not the identity")
    t1 = mono.build_T(ctx, gamma=1)
    # T^p = id and T != id: T has the prime order p
    _require(t1 != mono.identity_map(p, 1), f"p = {p}: T is the identity")
    _require(mono.map_power(t1, p) == mono.identity_map(p, 1), f"p = {p}: T^p is not the identity")
    block = {
        "J": mono.render_map(jmap),
        "relations": {"J^2 = id": True, "J preserves the curve": True, "T^p = id": True},
    }
    cache["monomial"] = block
    if not ctx.has_gamma:
        block["T"] = mono.render_map(t1)
        return "J and T certified on the hyperelliptic curve; no gamma root"
    g = ctx.gamma
    parity = mono.epsilon_parity_report(ctx)
    _require(parity["rule_matches"], f"p = {p}: the epsilon parity rule does not match: {parity}")
    _require(mono.verify_relation([("R", 3)], [], ctx), f"p = {p}: R^3 is not the identity")
    _require(
        mono.verify_relation([("R", 1), ("T", 1)], [("T", g * g), ("R", 1)], ctx),
        f"p = {p}: R T != T^(gamma^2) R",
    )
    # T^(-l) R T^l = T^(l (gamma^2 - 1)) R for every l follows from
    # R T = T^(gamma^2) R by induction on l, so no l is composed out
    tg = mono.build_T(ctx)
    _require(mono.map_power(tg, p) == mono.identity_map(p, g), f"p = {p}: T^p is not the identity (gamma = {g})")
    block["T"] = mono.render_map(tg)
    block["R"] = mono.render_map(mono.build_R(ctx))
    block["epsilon"] = parity
    block["relations"].update({"R^3 = id": True, "R T = T^(gamma^2) R": True, "R preserves the curve": True})
    return "R^3, R T = T^(g^2) R, epsilon rule"


def _class_data(ctx, cache):
    if "class_data" not in cache:
        cache["class_data"] = grp.ClassData(grp.Group(ctx.p))
    return cache["class_data"]


def check_generating_triple(ctx, cache):
    triple = gen.find_generating_triple(ctx)
    evidence = gen.validate_triple(triple, _class_data(ctx, cache))
    cache["triple"], cache["full_fix"] = triple, evidence["fix_table"]
    return f"orders {tuple(evidence['orders'])}, fix(a1) = {evidence['fix_a1']}"


def check_dual_oracle_genus(ctx, cache):
    p = ctx.p
    triple = cache["triple"]
    data = _class_data(ctx, cache)
    fix = cache["full_fix"]
    g_top = gen.fermat_genus(p)
    # Conjugate subgroups meet the same classes, so both oracles read the
    # same numbers off them: one cyclic subgroup per conjugacy class, from
    # the line orbits and the orders 1, 2, 3, 2p, stands for all (the keys
    # are conjugation-invariant by fix-table-consistency); H is read by its lines.
    orbits = data.line_orbits()
    subgroups = grp.cyclic_subgroup_classes(p, orbits)
    classes = len(subgroups)
    deck = cache["deck"] = []  # (a deck line's class, its line orbit), for the certificates
    first_lines = iter(orbits)  # the line classes come in orbit order, each at its orbit's first line
    for k in chain(subgroups, [grp.fermat_H(p)]):
        rh, coset = gen.rh_genus(g_top, k, fix), gen.coset_genus(k, triple, data)
        if rh != coset:
            raise OracleDisagreementError(
                f"p = {p}, {gen.describe(k)}: Riemann-Hurwitz genus {rh}, coset genus {coset}"
            )
        if k.lines and grp.deck_index(k.lines[0]):
            deck.append((k, next(o for o in first_lines if o.lines[0] == k.lines[0])))
    return f"{classes} cyclic subgroups, one per conjugacy class ({len(deck)} of them deck lines), and H: both oracles agree"


def check_fix_table_consistency(ctx, cache):
    """The full fix table agrees with the axis table on H and meets the
    Lefschetz bound 0 <= fix <= 2 + 2g on every class, and the classes
    are the conjugacy classes.

    The tables are compared at one point on each of the p + 1 lines of H
    (:attr:`~fermatjac.genus.FixTable.line_counts`, kept from the plane's
    genus): both are constant on the non-identity points of a line.  The
    full table is 0 off its support, so the bound is read there.  The
    table reads one count per class and the dual-oracle check takes one
    subgroup per class, so both stand for every element only if no
    conjugation moves an element out of its class; the classes come from
    a rule, which :func:`~fermatjac.groups.class_rule_gap` checks by
    argument, in O(1).
    """
    p = ctx.p
    fix = cache["full_fix"]
    full, axis = fix.line_counts, gen.fermat_axis_fix_table(ctx).line_counts
    for line, f, x in zip(range(p + 1), full, axis):
        if f != x:
            a, b = grp.plane_lines(p)[line]
            raise CheckFailedError(f"p = {p}: fix({a}, {b}) is {f} in the full table and {x} in the axis table")
    bound = 2 + 2 * gen.fermat_genus(p)
    for keys, f in fix.support.items():
        if not 0 <= f <= bound:
            raise CheckFailedError(f"p = {p}: fix = {f} on the class of key {keys.start} is outside [0, {bound}]")
    gap = grp.class_rule_gap(_class_data(ctx, cache))
    _require(gap is None, f"p = {p}: {gap}")
    return "axis table matches, Lefschetz bound holds, class-constant"


def check_certificates(ctx, cache):
    p = ctx.p
    data = _class_data(ctx, cache)
    rat = cert.chi_rat(cache["full_fix"], data)
    pairing = cert.inner_product(cert.chi_trivial(data), rat)
    _require(pairing == 0, f"p = {p}: <triv, hom> = {pairing}, expected 0")
    # Conjugate subgroups have one permutation character, so the deck classes
    # stand for all p - 2 lines H_j, one class per exponent orbit (the deck
    # census gave each orbit its quotients), each held to its exponent's orbit.
    deck, part = cache["deck"], _partition(ctx, cache)
    _require(len(deck) == len(part.orbits), f"p = {p}: {len(deck)} deck line classes for the {len(part.orbits)} exponent orbits")
    for k, lines in deck:
        j = grp.deck_index(k.lines[0])
        if gap := dec.deck_orbit_gap(part, j, lines):
            raise CheckFailedError(f"p = {p}: {gap}")
        value = cert.perm_pairing(k, rat)
        if value != p - 1:
            raise CheckFailedError(f"p = {p}: <G/H_{j}, hom> = {value}, expected {p - 1}")
    norm = cert.inner_product(rat, rat)
    cache["certificates"] = {
        "pairing_trivial_vs_homology": 0,
        "pairing_deck_vs_homology": p - 1,
        "homology_self_pairing": norm,
        "chi_homology_at_scaling_generator": rat(grp.fermat_translation(p, 1, 0)),
        "conjugacy_class_count": data.count,
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


# The most characters one stdout write takes: a document of some 12 MB
# at MAX_P, written whole, would be encoded whole, beside its str.
WRITE_SLICE = 1 << 20


def _write_json(report: dict) -> None:
    """Write the report as JSON to stdout, in slices."""
    text = rep.serialize(report)
    for start in range(0, len(text), WRITE_SLICE):
        sys.stdout.write(text[start:start + WRITE_SLICE])


def _emit(report: dict, render, fmt: str) -> None:
    """Write the report as JSON or as the text render(report), made only then."""
    if fmt == "json":
        _write_json(report)
    else:
        print(render(report))


def cmd_orbits(args) -> int:
    ctx = make_context(args.p)
    report = rep.orbits_report(ctx)
    _emit(report, rep.render_orbits_text, args.format)
    return 0


def cmd_decompose(args) -> int:
    ctx = make_context(args.p)
    report = rep.decompose_report(ctx, level=args.level)
    _emit(report, rep.render_decompose_text, args.format)
    return 0


def run_checks(ctx, checks, cache):
    """Run the (name, check) pairs in order on one cache and yield an entry
    for each as it finishes: its name, status and detail, and the error's
    code on a failure that has one.  Stop after the first FAIL."""
    for name, fn in checks:
        try:
            detail = fn(ctx, cache)
        except (AssertionError, FermatJacError) as exc:
            entry = {"name": name, "status": "FAIL", "detail": str(exc)}
            if isinstance(exc, FermatJacError):
                entry["code"] = exc.code
            yield entry
            return
        yield {"name": name, "status": "PASS", "detail": detail}


def cmd_verify(args) -> int:
    ctx = make_context(args.p)
    checks = BASIC_CHECKS + FULL_CHECKS if args.depth == "full" else BASIC_CHECKS
    cache: dict = {}
    results = []
    for entry in run_checks(ctx, checks, cache):
        results.append(entry)
        if args.format == "text":
            print(f"{entry['status']} {entry['name']}: {entry['detail']}")
    failed = results[-1]["name"] if results and results[-1]["status"] == "FAIL" else None
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
        _write_json(report)
    elif failed is None:
        print(f"all {len(results)} checks passed (p={ctx.p}, depth={args.depth})")
    if failed is not None:
        print(f"verification failed at check: {failed}", file=sys.stderr)
        return 4
    return 0


def cmd_sweep(args) -> int:
    """verify's basic checks at each prime of the range, one cache a prime:
    a PASS row reads its decompositions off the cache, a FAIL row names
    the check that failed."""
    lo, hi = args.from_, args.to
    if lo < 5 or hi < lo:
        print(f"error: bad sweep range [{lo}, {hi}]", file=sys.stderr)
        return 2
    if hi > SWEEP_MAX_TO:
        print(f"error: sweep bound {hi} is above the supported bound {SWEEP_MAX_TO}", file=sys.stderr)
        return 2
    rows = []
    for p in filter(is_prime, range(lo, hi + 1)):
        ctx, cache = make_context(p), {}
        row = {"p": p, "residue_mod_3": ctx.residue_class_mod_3}
        *_, last = run_checks(ctx, BASIC_CHECKS, cache)
        if last["status"] == "PASS":
            row.update(
                orbits=len(cache["partition"].orbits),
                coarse=cache["coarse"].render(),
                fine=cache["fine"].render(),
                status="PASS",
            )
        else:
            row.update(check=last.pop("name"), **last)
        rows.append(row)
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
        _write_json(report)
    else:
        for r in rows:
            if r["status"] == "PASS":
                print(
                    f"p={r['p']:>4} mod3={r['residue_mod_3']} orbits={r['orbits']:>3} "
                    f"{r['status']}  {r['fine']}"
                )
            else:
                print(f"p={r['p']:>4} FAIL  {r['check']}: {r['detail']}")
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


class _Args:
    def __init__(self, **values):
        self.__dict__.update(values)


def _parse_argv(argv: list[str]) -> _Args | None:
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
    return _Args(command=argv[0], **values, fn=handler)


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
        code = args.fn(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # stdout to devnull, as the signal docs' note on SIGPIPE does
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5
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
