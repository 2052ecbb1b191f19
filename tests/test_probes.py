"""The probes of basic verify, held to the walks they replaced.

The first four basic checks test each rule of U, V, the Moebius
transport and the normalization at a few probe points
(``orbits.probe_points``); ``monomial-relations`` checks
R T = T^(gamma^2) R and not the conjugation relation
T^(-l) R T^l = T^(l (gamma^2 - 1)) R at every l, which follows from it
by induction.  The walks over all of X_p and over every l live on
in ``tests/helpers.py``.  Here each probe check agrees with its walk at
every prime up to 199, also under every basic mutation of the census, and
the conjugation sweep agrees with ``verify_relation`` at every l.
"""

import pytest

from fermatjac import cli
from fermatjac.errors import FermatJacError
from fermatjac.monomial import verify_relation, word_map
from fermatjac.orbits import make_context, orbit_partition, probe_points

import helpers
from helpers import conjugation_sweep, sweep_primes
from test_mutations import MUTATIONS

# check name -> the walk it replaced, as a function of the context
WALKS = {
    "orbit-partition-laws": lambda ctx: helpers.walk_orbit_closure(ctx, cli.orbit_partition(ctx)),
    "s3-relations": helpers.walk_s3_relations,
    "moebius-transport": lambda ctx: helpers.walk_moebius_transport(ctx, cli.orbit_partition(ctx)),
    "curve-normalization": helpers.walk_normalization,
}
CHECKS = dict(cli.BASIC_CHECKS)


def _failure(fn, *args):
    """The text of the package error fn(*args) raises, or None."""
    try:
        fn(*args)
    except FermatJacError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", sweep_primes(199))
def test_the_probes_meet_every_orbit_kind(p):
    ctx = make_context(p)
    probes = probe_points(ctx)
    part = orbit_partition(ctx)
    assert len(probes) >= 3 and all(1 <= a <= p - 2 for a in probes)
    assert {part.orbit_of(a).kind for a in probes} == {o.kind for o in part.orbits}


@pytest.mark.parametrize("p", sweep_primes(199))
def test_each_probe_check_passes_with_its_walk(p):
    ctx = make_context(p)
    for name, walk in WALKS.items():
        assert _failure(walk, ctx) is None, name
        assert _failure(CHECKS[name], ctx, {}) is None, name


@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_each_probe_check_fails_with_its_walk(monkeypatch, name, p):
    # under every basic mutation a probe check fails exactly when the walk
    # it replaced does
    MUTATIONS[name][0](monkeypatch)
    ctx = make_context(p)
    for check, walk in WALKS.items():
        assert (_failure(walk, ctx) is None) == (_failure(CHECKS[check], ctx, {}) is None), check


@pytest.mark.parametrize("p", [p for p in sweep_primes(199) if p % 3 == 1])
def test_conjugation_sweep_is_verify_relation_at_every_l(p):
    """The induction the check relies on, at every l: the sweep's two
    sides are equal, are the word maps of both words, and verify_relation
    agrees."""
    ctx = make_context(p)
    g = ctx.gamma
    ls = []
    for l, lhs, rhs in conjugation_sweep(ctx):
        ls.append(l)
        lhs_word, rhs_word = [("T", -l), ("R", 1), ("T", l)], [("T", l * (g * g - 1)), ("R", 1)]
        assert lhs == rhs == word_map(lhs_word, ctx) == word_map(rhs_word, ctx)
        assert verify_relation(lhs_word, rhs_word, ctx)
    assert ls == list(range(p))
