import pytest

from fermatjac import cli, curves
from fermatjac import orbits as orbits_module
from fermatjac.curves import MoebiusLabel
from fermatjac.errors import AuditFailError, NotPrimeError, OutOfRangeError, TooLargeError, TooSmallError
from fermatjac.orbits import (
    MAX_P,
    OrbitKind,
    OrbitPartition,
    inverse_table,
    make_context,
    orbit_census,
    orbit_partition,
)

import helpers
from helpers import (
    brute_inverse_table,
    orbit,
    orbit_formula,
    primes_upto,
    s3_apply,
    s3_images,
    scanned_gamma_pair,
    sweep_primes,
    transport_s3_rules,
)


def test_make_context_p7_gamma_pair():
    ctx = make_context(7)
    assert ctx.residue_class_mod_3 == 1
    assert ctx.gamma_pair == (2, 4)


def test_make_context_p5_no_gamma():
    ctx = make_context(5)
    assert ctx.residue_class_mod_3 == 2
    assert ctx.gamma_pair is None
    assert not ctx.has_gamma


def test_make_context_p13_gamma_pair():
    # frozen from the exhaustive scan of g^2 + g + 1 = 0 over {1..11}
    assert make_context(13).gamma_pair == (3, 9)


@pytest.mark.parametrize("p", sweep_primes(61))
def test_gamma_pair_laws(p):
    ctx = make_context(p)
    if p % 3 == 1:
        lo, hi = ctx.gamma_pair
        assert (lo * lo + lo + 1) % p == 0
        assert (hi * hi + hi + 1) % p == 0
        assert hi == p - 1 - lo
        assert lo * hi % p == 1
    else:
        assert ctx.gamma_pair is None


def test_gamma_pair_is_the_scanned_pair():
    # the pair from a cube root of unity x^((p-1)/3) is the scan of X_p,
    # at every p = 1 mod 3 from 7 to 5000 and at MAX_P
    primes = [p for p in primes_upto(5000) if p >= 7 and p % 3 == 1] + [MAX_P]
    for p in primes:
        pair = scanned_gamma_pair(p)
        assert len(pair) == 2 and make_context(p).gamma_pair == pair, p


def test_make_context_rejections():
    with pytest.raises(TooSmallError):
        make_context(3)
    with pytest.raises(TooSmallError):
        make_context(2)
    with pytest.raises(NotPrimeError):
        make_context(9)
    with pytest.raises(NotPrimeError):
        make_context("7")
    with pytest.raises(TooLargeError):
        make_context(MAX_P * 2 + 1)


def test_s3_apply_v_fixes_one():
    for p in (5, 7, 11, 13, 31):
        assert s3_apply("V", 1, make_context(p)) == 1


def test_s3_apply_u_on_one_p7():
    # (p-1)/2 = 3 lies in the orbit of 1
    assert s3_apply("U", 1, make_context(7)) == 3


def test_s3_apply_v_p11():
    ctx = make_context(11)
    table = brute_inverse_table(11)
    assert s3_apply("V", 2, ctx) == table[2] == 6


def test_s3_apply_out_of_range():
    ctx = make_context(7)
    for bad in (0, 6, 7, -1):
        with pytest.raises(OutOfRangeError):
            s3_apply("U", bad, ctx)
    for bad in ("W", ["U"], None):
        with pytest.raises(OutOfRangeError, match="unknown generator"):
            s3_apply(bad, 1, ctx)


@pytest.mark.parametrize("p", sweep_primes(199))
def test_s3_relations_pointwise(p):
    ctx = make_context(p)
    for a in range(1, p - 1):
        u1 = s3_apply("U", a, ctx)
        u2 = s3_apply("U", u1, ctx)
        assert s3_apply("U", u2, ctx) == a
        assert s3_apply("V", s3_apply("V", a, ctx), ctx) == a
        uv = s3_apply("U", s3_apply("V", a, ctx), ctx)
        assert s3_apply("U", s3_apply("V", uv, ctx), ctx) == a


def test_orbit_examples():
    ctx7 = make_context(7)
    o1 = orbit(1, ctx7)
    assert o1.elements == (1, 3, 5) and o1.kind is OrbitKind.SPECIAL_ONE
    o2 = orbit(2, ctx7)
    assert o2.elements == (2, 4) and o2.kind is OrbitKind.GAMMA
    o = orbit(2, make_context(11))
    assert o.elements == (2, 3, 4, 6, 7, 8) and o.kind is OrbitKind.GENERIC


@pytest.mark.parametrize("p", sweep_primes(61))
def test_orbit_matches_formula_oracle(p):
    ctx = make_context(p)
    for a in range(1, p - 1):
        assert set(orbit(a, ctx).elements) == orbit_formula(a, p)


@pytest.mark.parametrize("p", sweep_primes(199))
def test_inverse_table_matches_brute_force(p):
    assert inverse_table(p)[1:] == [brute_inverse_table(p)[a] for a in range(1, p)]


@pytest.mark.parametrize("p", sweep_primes(199))
def test_partition_matches_the_closure_orbits(p):
    """The six-element formula with the inverse table gives the orbits
    the closure under U and V gives, with the same kinds, in order."""
    ctx = make_context(p)
    closure = {}
    for a in range(1, p - 1):
        o = orbit(a, ctx)
        closure[o.representative] = o
    assert orbit_partition(ctx).orbits == tuple(closure[r] for r in sorted(closure))


def test_orbit_partition_examples():
    assert [o.elements for o in orbit_partition(make_context(7)).orbits] == [
        (1, 3, 5),
        (2, 4),
    ]
    assert [o.elements for o in orbit_partition(make_context(11)).orbits] == [
        (1, 5, 9),
        (2, 3, 4, 6, 7, 8),
    ]
    # derived by closure under U, V with the formula oracle
    part13 = orbit_partition(make_context(13))
    assert [o.elements for o in part13.orbits] == [
        (1, 6, 11),
        (2, 4, 5, 7, 8, 10),
        (3, 9),
    ]
    assert [o.kind for o in part13.orbits] == [
        OrbitKind.SPECIAL_ONE,
        OrbitKind.GENERIC,
        OrbitKind.GAMMA,
    ]


@pytest.mark.parametrize("p", sweep_primes(199))
def test_partition_counting_laws(p):
    ctx = make_context(p)
    part = orbit_partition(ctx)
    sizes = sorted(o.size for o in part.orbits)
    assert sum(sizes) == p - 2
    assert all(s in (2, 3, 6) for s in sizes)
    assert sizes.count(3) == 1
    assert sizes.count(2) == (1 if p % 3 == 1 else 0)
    expected = (p - 7) // 6 if p % 3 == 1 else (p - 5) // 6
    assert sum(1 for o in part.orbits if o.kind is OrbitKind.GENERIC) == expected
    # the one statement of the census, which orbit_partition checks
    assert orbit_census(ctx) == {("special_one", 3): 1, ("gamma", 2): sizes.count(2), ("generic", 6): expected}
    # pairwise disjoint
    seen = set()
    for o in part.orbits:
        assert not seen & set(o.elements)
        seen.update(o.elements)
    assert seen == set(range(1, p - 1))


def test_partition_orbit_lookup():
    part = orbit_partition(make_context(13))
    assert part.orbit_of(9).representative == 3
    assert part.orbit_of(11).kind is OrbitKind.SPECIAL_ONE


def test_orbit_census_failures_are_audit_errors(monkeypatch):
    ctx = make_context(7)
    # X_7 = {1, ..., 5} as one cycle: an orbit of size 5
    monkeypatch.setattr(helpers, "s3_apply", lambda name, a, ctx: a % (ctx.p - 2) + 1)
    with pytest.raises(AuditFailError, match="impossible orbit size 5"):
        orbit(1, ctx)
    monkeypatch.undo()
    part = orbit_partition(ctx)
    partial = OrbitPartition(context=ctx, orbits=part.orbits[:1])
    with pytest.raises(AuditFailError, match="does not cover"):
        partial.orbit_of(part.orbits[1].representative)


def _every_a_its_own_inverse(mp):
    # the formula then gives O(1) = {1, 5}, which is not the gamma pair (2, 4)
    mp.setattr(orbits_module, "inverse_table", lambda p: list(range(p)))


CENSUS_FAIL_7 = "audit failure: p = 7: size-2 orbit (1, 5) is not the gamma pair (2, 4)\n"


def test_orbit_census_fails_decompose(capsys, monkeypatch):
    _every_a_its_own_inverse(monkeypatch)
    assert cli.main(["decompose", "--p", "7"]) == 3
    assert capsys.readouterr() == ("", CENSUS_FAIL_7)


def test_orbit_census_fails_decompose_under_python_O(under_O):
    run = under_O["every-a-its-own-inverse"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 3, run.stdout + run.stderr
    assert CENSUS_FAIL_7 in run.stderr
    assert "Traceback" not in run.stderr


def _U_and_V_one_step(mp):
    # a -> a + 1 on X_p, wrapping p - 2 to 1, for both U and V: the
    # partition comes from the formula, and the closure under U and V is
    # what the orbit-partition-laws check holds it against
    for label in (MoebiusLabel.CYC, MoebiusLabel.ONE_MINUS):
        mp.setitem(curves.MOEBIUS_TRANSPORT, label, lambda a, inv, p: a % (p - 2) + 1)


CLOSURE_FAIL_7 = "FAIL orbit-partition-laws: p = 7: U(1) = 2 leaves the orbit (1, 3, 5)"


def test_broken_orbit_closure_fails_verify(capsys, monkeypatch):
    _U_and_V_one_step(monkeypatch)
    assert cli.main(["verify", "--p", "7"]) == 4
    out, err = capsys.readouterr()
    assert CLOSURE_FAIL_7 in out and err == "verification failed at check: orbit-partition-laws\n"


def test_broken_orbit_closure_fails_verify_under_python_O(under_O):
    run = under_O["U-and-V-one-step"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert CLOSURE_FAIL_7 in run.stdout
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("p", sweep_primes(61))
def test_shared_images_match_the_orbit_closures(p):
    """The one pass of U and V over X_p gives s3_apply's images, and the
    closure of each point under the listed images is its orbit().  The
    package's U and V, the transport rules of 1/(1-x) and 1-x, give the
    same images."""
    ctx = make_context(p)
    u, v = s3_images(ctx)
    assert s3_images(ctx, transport_s3_rules()) == (u, v)
    assert len(u) == len(v) == p and u[0] == v[0] == u[p - 1] == v[p - 1] == 0
    for a in range(1, p - 1):
        assert (u[a], v[a]) == (s3_apply("U", a, ctx), s3_apply("V", a, ctx))
        seen, frontier = {a}, [a]
        while frontier:
            b = frontier.pop()
            for image in (u[b], v[b]):
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        assert tuple(sorted(seen)) == orbit(a, ctx).elements


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

UNDER_O = {
    "every-a-its-own-inverse": (_every_a_its_own_inverse, [["decompose", "--p", "7"]]),
    "U-and-V-one-step": (_U_and_V_one_step, [["verify", "--p", "7"]]),
}
