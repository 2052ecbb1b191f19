"""Output checks computed apart from fermatjac.

Every expected value here comes from closed formulas or brute force over
small integer ranges, never from the package itself:

- the orbits of X_p = {1, ..., p-2} from the six-element closed formula
  a, 1/a, -(1+a), -1/(1+a), -(1+a)/a, -a/(1+a) (mod p), represented by
  their smallest element;
- the gamma roots by scanning g^2 + g + 1 = 0 (mod p);
- the factors: multiplicity is the orbit size, dimension (p-1)/2, and the
  gamma factor refines to JE(gamma)^6 of dimension (p-1)/6;
- the audit counts (p-2)(p-3)/2 pairs and a genus sum of (p-1)(p-2)/2;
- the certificate pairings 0, p-1 and 2-p;
- at p = 7, the published products, by exact string.

A failed check raises CheckError naming the field and both values.
"""

from __future__ import annotations

import json

BASIC_CHECK_NAMES = (
    "orbit-partition-laws",
    "s3-relations",
    "moebius-transport",
    "curve-normalization",
    "deck-quotient-audit",
    "fine-decomposition",
    "dimension-audit",
    "monomial-relations",
)
FULL_CHECK_NAMES = (
    "generating-triple",
    "dual-oracle-genus",
    "fix-table-consistency",
    "certificates",
)

# The published p = 7 example, by exact string.
PUBLISHED_P7 = ("JF(7) ~ JC(1)^3 x JC(2)^2", "JF(7) ~ JC(1)^3 x JE(2)^6")


class CheckError(Exception):
    pass


def expect(field: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{field}: got {got!r}, expected {want!r}")


def gamma_roots(p: int) -> list[int]:
    return [g for g in range(p) if (g * g + g + 1) % p == 0]


def orbits(p: int) -> list[tuple[int, ...]]:
    """Orbits of X_p as sorted tuples, ordered by smallest element."""
    found = set()
    for a in range(1, p - 1):
        ia, ib = pow(a, -1, p), pow(1 + a, -1, p)
        six = {x % p for x in (a, ia, -(1 + a), -ib, -(1 + a) * ia, -a * ib)}
        found.add(tuple(sorted(six)))
    return sorted(found)


def _kind(size: int) -> str:
    return {3: "special_one", 2: "gamma"}.get(size, "generic")


def factors(p: int, level: str) -> list[tuple[str, int, int]]:
    """(symbol, multiplicity, dimension) in report order: the size-3 orbit,
    then the gamma orbit, then the generic orbits by representative."""
    ordered = sorted(orbits(p), key=lambda o: ({3: 0, 2: 1}.get(len(o), 2), o[0]))
    out = []
    for o in ordered:
        if len(o) == 2 and level == "fine":
            out.append((f"JE({o[0]})", 6, (p - 1) // 6))
        else:
            out.append((f"JC({o[0]})", len(o), (p - 1) // 2))
    return out


def product(p: int, level: str) -> str:
    return f"JF({p}) ~ " + " x ".join(f"{s}^{m}" for s, m, _ in factors(p, level))


def _check_decomposition(entry: dict, p: int, level: str) -> None:
    genus = (p - 1) * (p - 2) // 2
    want = factors(p, level)
    got = [(f["symbol"], f["multiplicity"], f["dimension"]) for f in entry["factors"]]
    expect(f"{level}.factors", got, want)
    expect(f"{level}.sum mult*dim", sum(m * d for _, m, d in got), genus)
    expect(f"{level}.total_dimension", entry["total_dimension"], genus)
    expect(f"{level}.product", entry["product"], product(p, level))
    audit = entry["audit"]
    pairs = (p - 2) * (p - 3) // 2
    expect(f"{level}.audit.subgroup_count", audit["subgroup_count"], p - 2)
    for part in ("commuting", "genus_zero"):
        expect(f"{level}.audit.{part}.pairs_checked", audit[part]["pairs_checked"], pairs)
        expect(f"{level}.audit.{part}.pairs_passed", audit[part]["pairs_passed"], pairs)
        expect(f"{level}.audit.{part}.failures", audit[part]["failures"], [])
    expect(f"{level}.audit.genus_sum.computed", audit["genus_sum"]["computed"], genus)
    expect(f"{level}.audit.genus_sum.expected", audit["genus_sum"]["expected"], genus)
    expect(f"{level}.audit.all_pass", audit["all_pass"], True)
    expect(f"{level}.dimension_audit.total_dimension", entry["dimension_audit"]["total_dimension"], genus)
    expect(f"{level}.dimension_audit.ok", entry["dimension_audit"]["ok"], True)
    refinement = entry.get("gamma_refinement")
    if level == "fine" and p % 3 == 1:
        if refinement is None:
            raise CheckError("fine.gamma_refinement: missing for p = 1 mod 3")
        expect("fine.gamma_refinement.all_pass", refinement["all_pass"], True)
        expect(
            "fine.gamma_refinement.quotient genera",
            [q["genus"] for q in refinement["quotient_genus"]],
            [(p - 1) // 6] * 3,
        )
        expect("fine.gamma_refinement.genus_sum", refinement["genus_sum"]["computed"], (p - 1) // 2)
    else:
        expect(f"{level}.gamma_refinement", refinement, None)


def check_decompose(report: dict, p: int) -> None:
    expect("command", report["command"], "decompose")
    expect("p", report["p"], p)
    expect("residue_mod_3", report["residue_mod_3"], p % 3)
    expect("fermat_genus", report["fermat_genus"], (p - 1) * (p - 2) // 2)
    roots = gamma_roots(p)
    want_gamma = {"root": roots[0], "inverse_root": roots[1]} if roots else None
    expect("gamma", report["gamma"], want_gamma)
    got_orbits = [(o["representative"], tuple(o["elements"]), o["size"], o["kind"]) for o in report["orbits"]]
    want_orbits = [(o[0], o, len(o), _kind(len(o))) for o in orbits(p)]
    expect("orbits", got_orbits, want_orbits)
    expect("decompositions", sorted(report["decompositions"]), ["coarse", "fine"])
    for level in ("coarse", "fine"):
        _check_decomposition(report["decompositions"][level], p, level)
    if p == 7:
        products = tuple(report["decompositions"][level]["product"] for level in ("coarse", "fine"))
        expect("published p=7 products", products, PUBLISHED_P7)


def check_verify(report: dict, p: int, depth: str) -> None:
    expect("command", report["command"], "verify")
    expect("p", report["p"], p)
    expect("depth", report["depth"], depth)
    names = BASIC_CHECK_NAMES + (FULL_CHECK_NAMES if depth == "full" else ())
    expect("check names", tuple(c["name"] for c in report["checks"]), names)
    for c in report["checks"]:
        expect(f"check {c['name']}", c["status"], "PASS")
    expect("all_pass", report["all_pass"], True)
    details = {c["name"]: c["detail"] for c in report["checks"]}
    genus = (p - 1) * (p - 2) // 2
    if not details["dimension-audit"].startswith(f"sum mult*dim = {genus},"):
        raise CheckError(f"dimension-audit detail {details['dimension-audit']!r} misses genus {genus}")
    maps = report["monomial_maps"]
    for relation, holds in maps["relations"].items():
        expect(f"monomial relation {relation!r}", holds, True)
    roots = gamma_roots(p)
    if roots:
        expect("monomial epsilon gamma", maps["epsilon"]["gamma"], roots[0])
        expect("monomial epsilon rule", maps["epsilon"]["rule_matches"], True)
    if depth == "full":
        cert = report["certificates"]
        expect("certificates.pairing_trivial_vs_homology", cert["pairing_trivial_vs_homology"], 0)
        expect("certificates.pairing_deck_vs_homology", cert["pairing_deck_vs_homology"], p - 1)
        expect("certificates.chi_homology_at_scaling_generator", cert["chi_homology_at_scaling_generator"], 2 - p)
        if cert["homology_self_pairing"] <= 0:
            raise CheckError(f"certificates.homology_self_pairing {cert['homology_self_pairing']} is not positive")
    else:
        expect("certificates", report.get("certificates"), None)


def check_output(argv: list[str], stdout: str) -> None:
    """Check the JSON one CLI call printed, given the arguments it ran with."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    args = dict(zip(argv[1::2], argv[2::2]))
    try:
        if argv[0] == "decompose":
            check_decompose(report, int(args["--p"]))
        elif argv[0] == "verify":
            check_verify(report, int(args["--p"]), args["--depth"])
        else:
            raise CheckError(f"no checks for command {argv[0]!r}")
    except (KeyError, TypeError) as exc:
        raise CheckError(f"report is missing or mistypes a field: {exc!r}") from None
