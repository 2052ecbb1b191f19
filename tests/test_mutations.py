"""A mutation slice of the checks: each plausible wrong fact must make
``verify`` exit 4 and name the check that catches it.

The facts are the ones the basic checks read off tables and rules: the
rules of U and V, a term of the orbit formula, the normalization rule,
two Moebius labels' transport formulas, an entry of MOEBIUS_MONOMIALS,
the epsilon rule and the maps T and J.  Each mutation is applied with a
monkeypatch, in process and under ``python -O`` (where no assert is left
to catch it): the twins under ``python -O`` read their runs from the
table UNDER_O at the end, run in one child with every other module's
(conftest.py's under_O).  p = 13 has a gamma root; p = 11 has none, so
there only J and T stand for the monomial calculus and the epsilon rule
is never read.

``sweep`` runs the same basic checks at each prime, so each of these
mutations must make ``sweep --from 5 --to 61`` exit 4 too, its row for
p = 13 naming the check that ``verify --p 13`` names.

The kinds of the orbits on X_p come from ``orbits._classify``: O(1) and
a generic orbit swapped, a generic orbit labelled special and the gamma
orbit labelled generic each put a kind off its orbit's size, which the
census in ``orbit_partition`` refuses, so ``orbits`` and ``decompose``
exit 3 on them too.

Each deck line's curve is read through ``deck_exponent``.  A rotation of
X_p there still gives every orbit as many deck quotients as it has
members, but it is not S3-equivariant: the deck audit's probe, which
sends the S3-orbit of H_j's line through the rule at a few j, refuses it.
The probe also compares the line orbit's kind and stabilizer with the
exponent orbit's, as the certificates do at full depth: the gamma line's
orbit read as generic fails it.

U and V are the transport rules of 1/(1-x) and 1-x, so a mutation of
either also breaks the composition law that ``moebius-transport`` checks.

The factors are held to their curves.  Multiplicities 3 and 6 exchanged
as the coarse factors are built keep the total at p = 11 and 13, but give
JC(1) and JC(2) other counts than their deck quotients, which the deck
census refuses.  Each fine factor must be its coarse factor, but the
gamma curve's JC(gamma)^m, which must become JE(gamma)^(3m): the same
exchange in the fine copy, or the gamma factor left unrefined, fails the
fine decomposition.  ``report`` binds ``decompose_fine`` itself, so a
mutation of it is patched there too.  The factors must run JC(1), the
gamma curve's, then the generic ones by ascending alpha: the coarse
factors left in the partition's order fail the dimension audit, which
reads the report's blocks off them by place.

The kill matrix runs every basic check on a fresh cache under each basic
mutation and pins the exact set of checks that fail, not only the first.

The two Riemann-Hurwitz audits read the fix tables of the gamma curve
and of the translations: a wrong count there must fail their check and
make ``decompose`` exit 3.

The full checks read the rules of the line orbits and of the classes by
key: a line orbit's kind and stabilizer, a closed-form class size, the
class census, the support of the full fix table, the closed-form classes
of the powers on an axis line and the line index built per line orbit.
Each of those mutations must make ``verify --p 13 --depth full`` exit 4.
A coset oracle one too high on H must fail ``dual-oracle-genus`` with the
code ORACLE_DISAGREEMENT, naming p, the subgroup and both genera.

``FixTable.at_range``'s check at its ends admitting the identity is a
survivor: no command reads a range from the identity, so ``verify`` passes
it at both depths, and only the range-read tests of test_genus.py refuse it.
"""

import pytest

from fermatjac import cli, curves, decompose, genus, groups, monomial, orbits, report
from fermatjac.curves import MoebiusLabel
from fermatjac.errors import FermatJacError
from fermatjac.orbits import OrbitKind, make_context

from helpers import mutated, parse, run_family_under_O

# U and V are the transport rules of 1/(1-x) and 1-x
REAL_U, REAL_V = curves.MOEBIUS_TRANSPORT[MoebiusLabel.CYC], curves.MOEBIUS_TRANSPORT[MoebiusLabel.ONE_MINUS]
REAL_RULE = monomial.epsilon_rule
REAL_T, REAL_J = monomial.build_T, monomial.build_J
REAL_ORBITS, REAL_SIZE, REAL_CENSUS = groups.line_orbits, groups.ClassData.size, groups.ClassData.census
REAL_FULL_FIX, REAL_LINE_INDEX, REAL_POWERS = genus.fermat_full_fix_table, groups.ClassData.line_index, groups.ClassData.power_counts
REAL_PGONAL_FIX, REAL_AXIS_FIX = genus.pgonal_fix_table, genus.fermat_axis_fix_table
REAL_CLASSIFY, REAL_COSET_GENUS, REAL_LINE_ORBIT = orbits._classify, genus.coset_genus, groups.line_orbit
REAL_FERMAT_ORDER = groups.fermat_order


def _flip_y(m):
    """The map with the sign of its y-image flipped."""
    p, gamma, x, (sign, omega, a, b, d) = m
    return p, gamma, x, (-sign, omega, a, b, d)


def _wrong_formula(mp):
    # x/(x-1) transported as 1/(1-x)
    mp.setitem(curves.MOEBIUS_TRANSPORT, MoebiusLabel.OVER, curves.MOEBIUS_TRANSPORT[MoebiusLabel.CYC])


def _wrong_monomial(mp):
    # x/(x-1) - 1 = 1/(x-1), entered as -1/(x-1)
    x, (sign, omega, a, b, d) = monomial.MOEBIUS_MONOMIALS[MoebiusLabel.OVER]
    mp.setitem(monomial.MOEBIUS_MONOMIALS, MoebiusLabel.OVER, (x, (-sign, omega, a, b, d)))


def _swapped_generators(mp):
    # the rules of U and V exchanged
    mp.setitem(curves.MOEBIUS_TRANSPORT, MoebiusLabel.CYC, REAL_V)
    mp.setitem(curves.MOEBIUS_TRANSPORT, MoebiusLabel.ONE_MINUS, REAL_U)


def _U_of_the_other_action(mp):
    # U as a -> 1/(1 - a): on the projective line of order 3 and with
    # (UV)^2 = id, but it moves the exponents out of their orbits (and 1
    # to 1/0, read as 0, so U^3 moves 1 too)
    mp.setitem(curves.MOEBIUS_TRANSPORT, MoebiusLabel.CYC, lambda a, inv, p: inv((1 - a) % p))


def _wrong_formula_term(mp):
    # the sixth term of the orbit formula, -a (1 + a)^(-1), entered as a (1 + a)^(-1)
    mp.setattr(cli, "orbit_partition", mutated(orbits.orbit_partition, "-a * inv[s] % p", "a * inv[s] % p"))


def _normalized_by_product(mp):
    # (alpha, beta) normalized to alpha beta, not alpha / beta
    def product(alpha, beta, ctx):
        return alpha * beta % ctx.p

    for module in (curves, cli):
        mp.setattr(module, "normalized_exponent", product)


def _second_wrong_formula(mp):
    # (x-1)/x transported as 1/x
    mp.setitem(curves.MOEBIUS_TRANSPORT, MoebiusLabel.CYC2, curves.MOEBIUS_TRANSPORT[MoebiusLabel.INV])


def _flipped_epsilon(mp):
    mp.setattr(monomial, "epsilon_rule", lambda g: 3 - REAL_RULE(g))


def _T_with_minus_sign(mp):
    mp.setattr(monomial, "build_T", lambda ctx, gamma=None: _flip_y(REAL_T(ctx, gamma)))


def _T_is_the_identity(mp):
    mp.setattr(monomial, "build_T", lambda ctx, gamma=None: monomial.identity_map(*REAL_T(ctx, gamma)[:2]))


def _J_with_minus_sign(mp):
    mp.setattr(monomial, "build_J", lambda ctx: _flip_y(REAL_J(ctx)))


def _order_three_fixes_one(mp):
    # the gamma curve's table with "deck powers fix 3, order-3 maps fix 1"
    def table(ctx):
        group = REAL_PGONAL_FIX(ctx).group
        step = group.translations.step
        return genus.FixTable(group, lambda i: 3 if i % step == 0 else 1, "deck powers fix 3, order-3 maps fix 1")

    mp.setattr(decompose, "pgonal_fix_table", table)


def _deck_line_fixes_p(mp):
    # the axis table with p fixed points on the deck line H_1 (through (1, 2)) too
    def table(ctx):
        real, p = REAL_AXIS_FIX(ctx), ctx.p
        h1 = {groups.fermat_translation(p, k, 2 * k) for k in range(1, p)}
        return genus.FixTable(real.group, lambda i: p if i in h1 else real.at(i), "axes and H_1 fix p points each")

    mp.setattr(decompose, "fermat_axis_fix_table", table)
    mp.setattr(genus, "fermat_axis_fix_table", table)


def _relabelled(mp, relabel):
    """_classify with each orbit's kind replaced by relabel(orbit), or kept
    where relabel gives None."""

    def classify(elements, alpha, ctx):
        o = REAL_CLASSIFY(elements, alpha, ctx)
        return orbits.OrbitClass(o.representative, o.elements, relabel(o) or o.kind)

    mp.setattr(orbits, "_classify", classify)


def _special_and_generic_swapped(mp):
    # O(1) labelled generic, and the orbit of 2, when generic, labelled special
    swap = {OrbitKind.SPECIAL_ONE: OrbitKind.GENERIC, OrbitKind.GENERIC: OrbitKind.SPECIAL_ONE}
    _relabelled(mp, lambda o: swap.get(o.kind) if o.kind is OrbitKind.SPECIAL_ONE or 2 in o.elements else None)


def _generic_labelled_special(mp):
    # the orbit of 2, when generic, labelled special beside O(1)
    _relabelled(mp, lambda o: OrbitKind.SPECIAL_ONE if o.kind is OrbitKind.GENERIC and 2 in o.elements else None)


def _gamma_labelled_generic(mp):
    _relabelled(mp, lambda o: OrbitKind.GENERIC if o.kind is OrbitKind.GAMMA else None)


def _deck_exponent_rotated(mp):
    # j -> p - 2 - j for j < p - 2, p - 2 kept: a rotation of X_p, so each
    # deck quotient gets an exponent on X_p, but not its own curve
    def rotated(j, p):
        return p - 2 - j if j < p - 2 else p - 2

    for module in (curves, decompose):
        mp.setattr(module, "deck_exponent", rotated)



def _coarse_multiplicities_exchanged(mp):
    # the multiplicities 3 and 6 exchanged as the coarse factors are built:
    # at p = 11 and 13 the total is still the genus
    exchanged = "(9 - o.size if o.size in (3, 6) else o.size)"
    mp.setattr(decompose, "_coarse_factors", mutated(decompose._coarse_factors, "o.size", exchanged))


def _mutated_fine(mp, old, new):
    # report binds decompose_fine itself
    fine = mutated(decompose.decompose_fine, old, new)
    for module in (decompose, report):
        mp.setattr(module, "decompose_fine", fine)


def _fine_multiplicities_exchanged(mp):
    # each coarse factor but the gamma curve's copied with 3 and 6 exchanged
    _mutated_fine(mp, "factors.append(f)", "factors.append(IsogenyFactor(f.curve, 9 - f.multiplicity, f.dimension))")


def _gamma_factor_unrefined(mp):
    # the gamma curve's JC(gamma)^2 copied to the fine level as it is
    _mutated_fine(mp, "if f.multiplicity == 2:", "if False:")


def _factors_unordered(mp):
    # the coarse factors in the partition's order, by representative, not
    # sorted by kind: at p = 13, JC(1)^3 x JC(2)^6 x JC(3)^2
    unsorted = mutated(decompose._coarse_factors, "[o for kind in OrbitKind for o in partition.orbits if o.kind is kind]", "list(partition.orbits)")
    mp.setattr(decompose, "_coarse_factors", unsorted)


def _gamma_line_orbit_generic(mp):
    # the S3-orbit of a gamma line read as generic, by the deck audit's
    # probes (decompose binds line_orbit) and by every line scan
    def line_orbit(p, line):
        o = REAL_LINE_ORBIT(p, line)
        return groups.LineOrbit(o.lines, o.stabilizer, OrbitKind.GENERIC.value) if o.kind == OrbitKind.GAMMA.value else o

    for module in (groups, decompose):
        mp.setattr(module, "line_orbit", line_orbit)


# name -> (the mutation, the check that must fail, the primes it must fail at)
MUTATIONS = {
    "moebius-formula": (_wrong_formula, "moebius-transport", (11, 13)),
    "moebius-monomial": (_wrong_monomial, "monomial-relations", (11, 13)),
    "s3-images-swapped": (_swapped_generators, "s3-relations", (11, 13)),
    "U-of-the-other-action": (_U_of_the_other_action, "orbit-partition-laws", (11, 13)),
    "orbit-formula-term": (_wrong_formula_term, "orbit-partition-laws", (11, 13)),
    "normalized-by-product": (_normalized_by_product, "curve-normalization", (11, 13)),
    "moebius-formula-second": (_second_wrong_formula, "moebius-transport", (11, 13)),
    "epsilon-flipped": (_flipped_epsilon, "monomial-relations", (13,)),
    "T-sign": (_T_with_minus_sign, "monomial-relations", (11, 13)),
    "T-identity": (_T_is_the_identity, "monomial-relations", (11, 13)),
    "J-sign": (_J_with_minus_sign, "monomial-relations", (11, 13)),
    "special-and-generic-swapped": (_special_and_generic_swapped, "orbit-partition-laws", (11, 13)),
    "generic-labelled-special": (_generic_labelled_special, "orbit-partition-laws", (11, 13)),
    "gamma-labelled-generic": (_gamma_labelled_generic, "orbit-partition-laws", (13,)),
    "deck-exponent-rotated": (_deck_exponent_rotated, "deck-quotient-audit", (11, 13)),
    "coarse-multiplicities-exchanged": (_coarse_multiplicities_exchanged, "deck-quotient-audit", (11, 13)),
    "fine-multiplicities-exchanged": (_fine_multiplicities_exchanged, "fine-decomposition", (11, 13)),
    "gamma-factor-unrefined": (_gamma_factor_unrefined, "fine-decomposition", (13,)),
    "factors-unordered": (_factors_unordered, "dimension-audit", (13,)),
    "gamma-line-orbit-generic": (_gamma_line_orbit_generic, "deck-quotient-audit", (13,)),
}
CASES = [(name, p) for name, (_, _, primes) in MUTATIONS.items() for p in primes]

# The fix tables of the two Riemann-Hurwitz audits.  A wrong count gives
# no integer genus, an audit failure: verify fails the check, and
# decompose exits 3.  name -> (the mutation, the check, the primes)
AUDIT_MUTATIONS = {
    "pgonal-order-three-fixes-one": (_order_three_fixes_one, "fine-decomposition", (13,)),
    "axis-deck-line-fixes-p": (_deck_line_fixes_p, "deck-quotient-audit", (11, 13)),
}
AUDIT_CASES = [(name, p) for name, (_, _, primes) in AUDIT_MUTATIONS.items() for p in primes]
# name -> the prime, the subgroup and the fix table its failure names, at p
AUDIT_NAMES = {
    "pgonal-order-three-fixes-one": lambda p: (
        f"at p = {p} on the subgroup of order 3 generated by (0, 1)",
        "fix table 'deck powers fix 3, order-3 maps fix 1'",
    ),
    "axis-deck-line-fixes-p": lambda p: (
        f"at p = {p} on the subgroup of order {p * p} generated by (1, 0, 0), (0, 1, 0)",
        "fix table 'axes and H_1 fix p points each'",
    ),
}


# name -> the basic checks that fail under the mutation, each run on a
# fresh cache, at every prime the mutation lists
KILL_MATRIX = {
    "moebius-formula": {"moebius-transport"},
    "moebius-monomial": {"monomial-relations"},
    # U and V are rows of the transport table, which no longer composes as its labels
    "s3-images-swapped": {"s3-relations", "moebius-transport"},
    # 1/(1 - 1) is read as 0, so U^3 moves 1 too; U is the transport rule of 1/(1-x)
    "U-of-the-other-action": {"orbit-partition-laws", "s3-relations", "moebius-transport"},
    # no partition is built: every check that reads one fails
    "orbit-formula-term": {
        "orbit-partition-laws", "moebius-transport", "deck-quotient-audit", "fine-decomposition", "dimension-audit",
    },
    "normalized-by-product": {"curve-normalization"},
    "moebius-formula-second": {"moebius-transport"},
    "epsilon-flipped": {"monomial-relations"},
    "T-sign": {"monomial-relations"},
    "T-identity": {"monomial-relations"},
    "J-sign": {"monomial-relations"},
    # a kind off its size fails the census where the partition is built,
    # so every check that reads one fails
    **dict.fromkeys(
        ("special-and-generic-swapped", "generic-labelled-special", "gamma-labelled-generic"),
        {"orbit-partition-laws", "moebius-transport", "deck-quotient-audit", "fine-decomposition", "dimension-audit"},
    ),
    # the deck audit refuses the rule, and the checks built on it fail
    "deck-exponent-rotated": {"deck-quotient-audit", "fine-decomposition", "dimension-audit"},
    # the deck census refuses the coarse factors, and the fine ones are built on them
    "coarse-multiplicities-exchanged": {"deck-quotient-audit", "fine-decomposition", "dimension-audit"},
    # a fine factor off its coarse one fails where the fine level is built
    **dict.fromkeys(("fine-multiplicities-exchanged", "gamma-factor-unrefined"), {"fine-decomposition", "dimension-audit"}),
    # the factor order is checked where the report's blocks are read off it
    "factors-unordered": {"dimension-audit"},
    # the deck audit's probe at gamma compares the kinds too
    "gamma-line-orbit-generic": {"deck-quotient-audit", "fine-decomposition", "dimension-audit"},
    "pgonal-order-three-fixes-one": {"fine-decomposition", "dimension-audit"},
    "axis-deck-line-fixes-p": {"deck-quotient-audit", "fine-decomposition", "dimension-audit"},
}


def failing_basic_checks(p):
    """The names of the basic checks that fail at p, each run on a fresh cache."""
    ctx, failed = make_context(p), set()
    for name, check in cli.BASIC_CHECKS:
        try:
            check(ctx, {})
        except (AssertionError, FermatJacError):
            failed.add(name)
    return failed


def _gamma_lines(change):
    """line_orbits with change(orbit) in place of each gamma orbit."""

    def orbits(p):
        return tuple(change(o) if o.kind == OrbitKind.GAMMA.value else o for o in REAL_ORBITS(p))

    return orbits


def _gamma_lines_generic(mp):
    mp.setattr(groups, "line_orbits", _gamma_lines(lambda o: groups.LineOrbit(o.lines, o.stabilizer, OrbitKind.GENERIC.value)))


def _gamma_stabilizer_short(mp):
    # the 3-cycle u alone, without u^2
    mp.setattr(groups, "line_orbits", _gamma_lines(lambda o: groups.LineOrbit(o.lines, o.stabilizer[:2], o.kind)))


def _axis_orbit_of_six(mp):
    # the orbits of three on the axes sized as the generic orbits of six
    def size(self, key):
        value = REAL_SIZE(self, key)
        return 6 if value == 3 and self.group.gamma is None else value

    mp.setattr(groups.ClassData, "size", size)


def _census_one_generic_more(mp):
    def census(self):
        (n1, s1), (n3, s3), (n6, s6), *rest = REAL_CENSUS(self)
        return ((n1, s1), (n3, s3), (n6 + 1, s6), *rest)

    mp.setattr(groups.ClassData, "census", census)


def _order_two_class_fixes_nothing(mp):
    # the involutions x tau of square 0, key p^2, off the fix support
    def table(triple, data):
        fix = REAL_FULL_FIX(triple, data)
        del fix.support[range(data.p * data.p, data.p * data.p + 1)]
        return fix

    mp.setattr(genus, "fermat_full_fix_table", table)


def _line_index_without_an_axis(mp):
    # the translation classes on the axis n = 0, line 1, left unindexed
    def line_index(self, c):
        index = REAL_LINE_INDEX(self, c)
        index.pop(1, None)
        return index

    mp.setattr(groups.ClassData, "line_index", line_index)


def _line_index_without_an_orbit(mp):
    # the line index without the one line orbit it holds, the axes
    mp.setattr(groups.ClassData, "line_index", lambda self, c: {})


def _axis_power_count_off_by_one(mp):
    # the class of a1 (key 1) counted twice among the powers on an axis line
    def power_counts(self, c):
        counts = REAL_POWERS(self, c)
        if counts and range(1, self.p) in counts:
            del counts[range(1, self.p)]
            counts.update({range(1, 2): 2, range(2, self.p): 1})
        return counts

    mp.setattr(groups.ClassData, "power_counts", power_counts)


def _coset_genus_off_on_H(mp):
    # the coset oracle one too high on the plane H alone, of order p^2
    def coset_genus(k, triple, data):
        return REAL_COSET_GENUS(k, triple, data) + (k.order == triple.p ** 2)

    mp.setattr(genus, "coset_genus", coset_genus)


def _involution_of_order_2p(mp):
    # every involution x tau reported as of order 2p, the order of an x tau
    # whose square is not 1 (genus binds fermat_order itself)
    def fermat_order(p, i):
        order = REAL_FERMAT_ORDER(p, i)
        return 2 * p if order == 2 else order

    for module in (groups, genus):
        mp.setattr(module, "fermat_order", fermat_order)


def _at_range_from_the_identity(mp):
    # FixTable.at_range's check at the ends with 0 <= start: a range from
    # the identity read by the table's count rule, not refused
    mp.setattr(genus.FixTable, "at_range", mutated(genus.FixTable.at_range, "0 < r.start < n", "0 <= r.start < n"))


# name -> (the mutation, the check of verify --p 13 --depth full that must fail)
FULL_MUTATIONS = {
    "gamma-lines-generic": (_gamma_lines_generic, "certificates"),
    "gamma-stabilizer-short": (_gamma_stabilizer_short, "certificates"),
    "axis-orbit-of-six": (_axis_orbit_of_six, "generating-triple"),
    "census-one-generic-more": (_census_one_generic_more, "fix-table-consistency"),
    "order-two-class-fixes-nothing": (_order_two_class_fixes_nothing, "dual-oracle-genus"),
    "line-index-without-an-axis": (_line_index_without_an_axis, "dual-oracle-genus"),
    "line-index-without-an-orbit": (_line_index_without_an_orbit, "dual-oracle-genus"),
    "axis-power-count-off-by-one": (_axis_power_count_off_by_one, "generating-triple"),
    "involution-of-order-2p": (_involution_of_order_2p, "generating-triple"),
}


VERIFY_13_FULL = ["verify", "--p", "13", "--depth", "full"]

# the one case whose mutation is left installed, in a python -O child of
# its own: the case after it, of any table, would fail its control
LEFT_INSTALLED = {"T-sign": (_T_with_minus_sign, [["verify", "--p", "11"]])}


def test_a_mutation_left_installed_fails_the_control():
    # T with its sign flipped, not undone: the control fails where it reads T
    run = run_family_under_O(["test_mutations.LEFT_INSTALLED"], undo=False)["test_mutations.LEFT_INSTALLED"]["T-sign"]
    assert run.returncode == 4 and "FAIL monomial-relations: p = 11: " in run.stdout
    assert run.control == 4 and "FAIL monomial-relations: p = 13: " in run.control_stdout


@pytest.mark.parametrize("name, p", CASES)
def test_mutation_fails_verify(monkeypatch, capsys, name, p):
    mutate, check, _ = MUTATIONS[name]
    mutate(monkeypatch)
    assert cli.main(["verify", "--p", str(p)]) == 4
    out, err = capsys.readouterr()
    assert f"FAIL {check}: p = {p}: " in out
    assert err == f"verification failed at check: {check}\n"


@pytest.mark.parametrize("name, p", CASES)
def test_mutation_fails_verify_under_python_O(under_O, name, p):
    check = MUTATIONS[name][1]
    run = under_O["verify", name, p]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert f"FAIL {check}: p = {p}: " in run.stdout
    assert "Traceback" not in run.stderr


def test_the_kill_matrix_covers_every_basic_mutation():
    assert KILL_MATRIX.keys() == MUTATIONS.keys() | AUDIT_MUTATIONS.keys()
    assert all(failing_basic_checks(p) == set() for p in (11, 13))


@pytest.mark.parametrize("name, p", CASES + AUDIT_CASES)
def test_kill_matrix(monkeypatch, name, p):
    mutate, check, _ = {**MUTATIONS, **AUDIT_MUTATIONS}[name]
    mutate(monkeypatch)
    failed = failing_basic_checks(p)
    assert failed == KILL_MATRIX[name]
    # verify names the first of them
    assert next(n for n, _ in cli.BASIC_CHECKS if n in failed) == check


@pytest.mark.parametrize("name, p", AUDIT_CASES)
def test_audit_mutation_fails_verify_and_decompose(monkeypatch, capsys, name, p):
    mutate, check, _ = AUDIT_MUTATIONS[name]
    mutate(monkeypatch)
    assert cli.main(["verify", "--p", str(p)]) == 4
    out, err = capsys.readouterr()
    assert f"FAIL {check}: " in out and out.endswith(": no integer genus\n")
    assert err == f"verification failed at check: {check}\n"
    detail = out.splitlines()[-1].removeprefix(f"FAIL {check}: ")
    assert cli.main(["decompose", "--p", str(p)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("audit failure: 2g-2 = ") and err.endswith(": no integer genus\n")
    # both name the prime, the subgroup and the fix table, in one detail
    assert err == f"audit failure: {detail}\n"
    assert all(part in detail for part in AUDIT_NAMES[name](p))


@pytest.mark.parametrize("name, p", AUDIT_CASES)
def test_audit_mutation_fails_verify_and_decompose_under_python_O(under_O, name, p):
    check = AUDIT_MUTATIONS[name][1]
    run = under_O["audit", name, p]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (4, 3), run.stdout + run.stderr
    assert f"FAIL {check}: " in run.stdout
    assert f"verification failed at check: {check}\naudit failure: 2g-2 = " in run.stderr
    assert "Traceback" not in run.stderr
    detail = run.stdout.splitlines()[-1].removeprefix(f"FAIL {check}: ")
    assert run.stderr.endswith(f"audit failure: {detail}\n")
    assert all(part in detail for part in AUDIT_NAMES[name](p))


BASIC_MUTATIONS = {**MUTATIONS, **AUDIT_MUTATIONS}
SWEEP_61 = ["sweep", "--from", "5", "--to", "61"]


@pytest.mark.parametrize("name", BASIC_MUTATIONS)
def test_basic_mutation_fails_sweep(monkeypatch, capsys, name):
    BASIC_MUTATIONS[name][0](monkeypatch)
    assert cli.main(["verify", "--p", "13"]) == 4
    named = capsys.readouterr().err.removeprefix("verification failed at check: ").rstrip("\n")
    assert cli.main([*SWEEP_61, "--format", "json"]) == 4
    rows = {row["p"]: row for row in parse(capsys.readouterr().out)["rows"]}
    assert rows[13]["status"] == "FAIL" and rows[13]["check"] == named == BASIC_MUTATIONS[name][1]
    # every row that fails names a check the kill matrix lists for the mutation
    assert {row["check"] for row in rows.values() if row["status"] == "FAIL"} <= KILL_MATRIX[name]


@pytest.mark.parametrize("name", BASIC_MUTATIONS)
def test_basic_mutation_fails_sweep_under_python_O(under_O, name):
    check = BASIC_MUTATIONS[name][1]
    run = under_O["sweep", name]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert f"\np=  13 FAIL  {check}: " in run.stdout
    assert "Traceback" not in run.stderr


# name -> the orbits by (kind, size) that each kind mutation of _classify
# gives at p = 13, where the census is one orbit of each kind
CENSUS_13 = "{('special_one', 3): 1, ('gamma', 2): 1, ('generic', 6): 1}"
CENSUS_FAILURES_13 = {
    "special-and-generic-swapped":
        "{('special_one', 3): 0, ('gamma', 2): 1, ('generic', 6): 0, ('generic', 3): 1, ('special_one', 6): 1}",
    "generic-labelled-special": "{('special_one', 3): 1, ('gamma', 2): 1, ('generic', 6): 0, ('special_one', 6): 1}",
    "gamma-labelled-generic": "{('special_one', 3): 1, ('gamma', 2): 0, ('generic', 6): 1, ('generic', 2): 1}",
}


def _census_failure_13(name):
    return f"p = 13: orbits by (kind, size) {CENSUS_FAILURES_13[name]}, expected {CENSUS_13}"


@pytest.mark.parametrize("name", CENSUS_FAILURES_13)
def test_kind_mutation_fails_orbits_and_decompose(monkeypatch, capsys, name):
    MUTATIONS[name][0](monkeypatch)
    for command in ("orbits", "decompose"):
        assert cli.main([command, "--p", "13"]) == 3
        assert capsys.readouterr() == ("", f"audit failure: {_census_failure_13(name)}\n")


@pytest.mark.parametrize("name", CENSUS_FAILURES_13)
def test_kind_mutation_fails_orbits_and_decompose_under_python_O(under_O, name):
    run = under_O["kind", name]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (3, 3), run.stdout + run.stderr
    assert (run.stdout, run.stderr) == ("", f"audit failure: {_census_failure_13(name)}\n" * 2)


def test_deck_exponent_rotated_fails_sweep(monkeypatch):
    # the rotation keeps each orbit's count of deck quotients; the deck
    # audit's probe of the rule's S3-equivariance refuses it at every
    # prime but 5, where X_5 is one orbit
    MUTATIONS["deck-exponent-rotated"][0](monkeypatch)
    assert cli.main(SWEEP_61) == 4


# the deck audit's failure under the rotation at p = 13: the probe j = 1
# names its exponent and where the S3-orbit of H_1's line goes, in the
# text of decompose.deck_orbit_gap, which the certificates share
DECK_ROTATED_13 = (
    "p = 13: deck quotient j = 1, alpha = 10: lines (3, 8, 13) (kind special_one, stabilizer (0, 5))"
    " give exponents [5, 10, 11], not the orbit (2, 4, 5, 7, 8, 10) (kind generic) of alpha"
)


# the deck audit's failure at p = 13 when the gamma line's orbit reads
# generic: the probe j = gamma = 3 compares the kinds
GAMMA_LINE_GENERIC_13 = (
    "p = 13: deck quotient j = 3, alpha = 9: lines (5, 11) (kind generic, stabilizer (0, 1, 2))"
    " give exponents [3, 9], not the orbit (3, 9) (kind gamma) of alpha"
)


def test_gamma_line_orbit_generic_fails_decompose_naming_the_kinds(monkeypatch, capsys):
    MUTATIONS["gamma-line-orbit-generic"][0](monkeypatch)
    assert cli.main(["decompose", "--p", "13"]) == 3
    assert capsys.readouterr() == ("", f"audit failure: {GAMMA_LINE_GENERIC_13}\n")
    assert cli.main(["verify", "--p", "13"]) == 4
    assert f"FAIL deck-quotient-audit: {GAMMA_LINE_GENERIC_13}\n" in capsys.readouterr().out


def test_gamma_line_orbit_generic_fails_decompose_naming_the_kinds_under_python_O(under_O):
    run = under_O["gamma-line-orbit-generic"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (3, 4), run.stdout + run.stderr
    assert run.stderr == f"audit failure: {GAMMA_LINE_GENERIC_13}\nverification failed at check: deck-quotient-audit\n"
    assert f"FAIL deck-quotient-audit: {GAMMA_LINE_GENERIC_13}\n" in run.stdout


def test_deck_exponent_rotated_fails_decompose_naming_j_and_alpha(monkeypatch, capsys):
    MUTATIONS["deck-exponent-rotated"][0](monkeypatch)
    assert cli.main(["decompose", "--p", "13"]) == 3
    assert capsys.readouterr() == ("", f"audit failure: {DECK_ROTATED_13}\n")
    assert cli.main(["verify", "--p", "13"]) == 4
    assert f"FAIL deck-quotient-audit: {DECK_ROTATED_13}\n" in capsys.readouterr().out


def test_deck_exponent_rotated_fails_decompose_naming_j_and_alpha_under_python_O(under_O):
    run = under_O["deck-exponent-rotated"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (3, 4), run.stdout + run.stderr
    assert run.stderr == f"audit failure: {DECK_ROTATED_13}\nverification failed at check: deck-quotient-audit\n"
    assert f"FAIL deck-quotient-audit: {DECK_ROTATED_13}\n" in run.stdout


# the failure of each factor mutation at p = 13, as decompose and verify name it
FACTOR_FAILURES_13 = {
    "coarse-multiplicities-exchanged":
        "p = 13: deck quotients per isomorphism class {1: 3, 2: 6, 3: 2} != factor multiplicities {1: 6, 3: 2, 2: 3}",
    "fine-multiplicities-exchanged": "p = 13: fine factor JC(1)^6 for the coarse JC(1)^3, expected JC(1)^3 itself",
    "gamma-factor-unrefined":
        "p = 13: fine factor JC(3)^2 of dimension 6 for the coarse JC(3)^2, expected JE(3)^6 of dimension 2",
    # the first factor out of place is JC(2)^6 at both levels
    "factors-unordered":
        "p = 13: factor 2 is JC(2)^6, not the one of alpha = 3 (JC(1) first, then the gamma curve's, then ascending alpha)",
}


@pytest.mark.parametrize("name", FACTOR_FAILURES_13)
def test_factor_mutation_fails_decompose_naming_the_factors(monkeypatch, capsys, name):
    mutate, check, _ = MUTATIONS[name]
    mutate(monkeypatch)
    assert cli.main(["decompose", "--p", "13"]) == 3
    assert capsys.readouterr() == ("", f"audit failure: {FACTOR_FAILURES_13[name]}\n")
    assert cli.main(["verify", "--p", "13", "--depth", "full"]) == 4
    out, err = capsys.readouterr()
    assert out.endswith(f"FAIL {check}: {FACTOR_FAILURES_13[name]}\n")
    assert err == f"verification failed at check: {check}\n"


@pytest.mark.parametrize("name", FACTOR_FAILURES_13)
def test_factor_mutation_fails_decompose_naming_the_factors_under_python_O(under_O, name):
    check = MUTATIONS[name][1]
    run = under_O["factor", name]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (3, 4), run.stdout + run.stderr
    assert run.stderr == f"audit failure: {FACTOR_FAILURES_13[name]}\nverification failed at check: {check}\n"
    assert run.stdout.endswith(f"FAIL {check}: {FACTOR_FAILURES_13[name]}\n")


def test_epsilon_rule_is_not_read_without_a_gamma_root(monkeypatch, capsys):
    _flipped_epsilon(monkeypatch)
    assert cli.main(["verify", "--p", "11"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("name", FULL_MUTATIONS)
def test_full_mutation_fails_verify(monkeypatch, capsys, name):
    mutate, check = FULL_MUTATIONS[name]
    mutate(monkeypatch)
    assert cli.main(["verify", "--p", "13", "--depth", "full"]) == 4
    out, err = capsys.readouterr()
    assert f"FAIL {check}: " in out
    assert err == f"verification failed at check: {check}\n"


@pytest.mark.parametrize("name", FULL_MUTATIONS)
def test_full_mutation_fails_verify_under_python_O(under_O, name):
    check = FULL_MUTATIONS[name][1]
    run = under_O["full", name]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert f"FAIL {check}: " in run.stdout
    assert "Traceback" not in run.stderr


# the first check of verify --p 13 --depth full that fails when fermat_order
# reads every involution as of order 2p: the eight basic checks pass, and the
# closed-form triple's first entry, an involution, is read as of order 26
ORDER_2P_13 = "FAIL generating-triple: the triple (0, 0, 3), (0, 1, 1), (12, 0, 5) has orders (26, 3, 26), not (2, 3, 26)\n"


def test_involution_of_order_2p_fails_the_generating_triple_first(monkeypatch, capsys):
    FULL_MUTATIONS["involution-of-order-2p"][0](monkeypatch)
    assert cli.main(["verify", "--p", "13", "--depth", "full"]) == 4
    out, err = capsys.readouterr()
    assert out.endswith(ORDER_2P_13) and out.count("PASS ") == len(cli.BASIC_CHECKS)
    assert err == "verification failed at check: generating-triple\n"


def test_involution_of_order_2p_fails_the_generating_triple_first_under_python_O(under_O):
    run = under_O["full", "involution-of-order-2p"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4 and run.stdout.endswith(ORDER_2P_13)
    assert run.stdout.count("PASS ") == len(cli.BASIC_CHECKS)
    assert run.stderr == "verification failed at check: generating-triple\n"


# A survivor: FixTable.at_range's check at its ends admitting the identity.
# No command reads a range from it (the line points start at 6p, the p-gonal
# group's order-3 elements at R), so verify passes at both depths; only
# test_genus.py's range-read tests refuse it.
def test_at_range_from_the_identity_survives_verify(monkeypatch, capsys):
    _at_range_from_the_identity(monkeypatch)
    assert genus.fermat_axis_fix_table(make_context(7)).at_range(range(0, 12, 6)) == [7, 7]  # the identity read
    for argv, checks in ((["verify", "--p", "13"], cli.BASIC_CHECKS), (VERIFY_13_FULL, cli.BASIC_CHECKS + cli.FULL_CHECKS)):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.count("PASS ") == len(checks) and "FAIL" not in out and err == ""


def test_at_range_from_the_identity_survives_verify_under_python_O(under_O):
    run = under_O["at-range-from-the-identity"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == (0, 0), run.stdout + run.stderr
    assert run.stdout.count("PASS ") == 2 * len(cli.BASIC_CHECKS) + len(cli.FULL_CHECKS)
    assert "FAIL" not in run.stdout and run.stderr == ""


# The entry of verify --p 13 --depth full when the two genus oracles
# disagree: the coset oracle reads genus 1 for the plane H, whose
# quotient is the line.
ORACLE_DISAGREEMENT_13 = {
    "name": "dual-oracle-genus",
    "status": "FAIL",
    "detail": "p = 13, the subgroup of order 169 generated by (1, 0, 0), (0, 1, 0):"
    " Riemann-Hurwitz genus 0, coset genus 1",
    "code": "ORACLE_DISAGREEMENT",
}


def test_oracle_disagreement_is_named(monkeypatch, capsys):
    _coset_genus_off_on_H(monkeypatch)
    assert cli.main(["verify", "--p", "13", "--depth", "full", "--format", "json"]) == 4
    out, err = capsys.readouterr()
    report = parse(out)
    assert report["all_pass"] is False and report["checks"][-1] == ORACLE_DISAGREEMENT_13
    assert err == "verification failed at check: dual-oracle-genus\n"


def test_oracle_disagreement_is_named_under_python_O(under_O):
    run = under_O["oracle-disagreement"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert parse(run.stdout)["checks"][-1] == ORACLE_DISAGREEMENT_13
    assert run.stderr == "verification failed at check: dual-oracle-genus\n"


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

UNDER_O = {
    **{("verify", name, p): (MUTATIONS[name][0], [["verify", "--p", str(p)]]) for name, p in CASES},
    **{("sweep", name): (BASIC_MUTATIONS[name][0], [SWEEP_61]) for name in BASIC_MUTATIONS},
    **{("full", name): (FULL_MUTATIONS[name][0], [VERIFY_13_FULL]) for name in FULL_MUTATIONS},
    **{("audit", name, p): (AUDIT_MUTATIONS[name][0], [["verify", "--p", str(p)], ["decompose", "--p", str(p)]])
       for name, p in AUDIT_CASES},
    **{("kind", name): (MUTATIONS[name][0], [["orbits", "--p", "13"], ["decompose", "--p", "13"]])
       for name in CENSUS_FAILURES_13},
    **{("factor", name): (MUTATIONS[name][0], [["decompose", "--p", "13"], VERIFY_13_FULL])
       for name in FACTOR_FAILURES_13},
    **{name: (MUTATIONS[name][0], [["decompose", "--p", "13"], ["verify", "--p", "13"]])
       for name in ("gamma-line-orbit-generic", "deck-exponent-rotated")},
    "oracle-disagreement": (_coset_genus_off_on_H, [[*VERIFY_13_FULL, "--format", "json"]]),
    "at-range-from-the-identity": (_at_range_from_the_identity, [["verify", "--p", "13"], VERIFY_13_FULL]),
}
