"""Property tests over the command-line argument space.

Every input, accepted or refused, must end in exit code 0 or 2 with no
traceback.  The inputs are bad primes (composite, negative, below 5),
reversed and out-of-range sweep ranges, non-positive ``--jobs``, every
advertised bound plus one and ``--full-cap`` below p.  Accepted examples
stay at p <= 61, so each runs in milliseconds; a refused input is refused
before any work, so no command ever runs at a large bound.
"""

import contextlib
import io

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fermatjac import cli
from fermatjac.cli import FULL_DEPTH_MAX_P, SWEEP_MAX_TO, main
from fermatjac.orbits import MAX_P, is_prime

SMALL = 61
PROPERTY = settings(max_examples=40, deadline=None)


def run(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err, expected=(0, 2)):
    assert code in expected, err
    assert "Traceback" not in err


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@PROPERTY
@given(
    command=st.sampled_from(["orbits", "decompose", "verify"]),
    p=st.integers(min_value=-10**6, max_value=SMALL),
)
@example(command="decompose", p=4)
@example(command="verify", p=-7)
@example(command="orbits", p=49)
def test_any_p_up_to_small_exits_0_or_2(command, p):
    code, out, err = run(command, f"--p={p}")
    assert_clean(code, err, (0,) if p >= 5 and is_prime(p) else (2,))
    if code == 2:
        assert err.startswith("error: ") and not out


@PROPERTY
@given(
    command=st.sampled_from(["orbits", "decompose", "verify"]),
    above=st.integers(min_value=1, max_value=10**6),
)
@example(command="decompose", above=1)
@example(command="decompose", above=next_prime(MAX_P + 1) - MAX_P)
def test_p_above_max_p_exits_2(command, above):
    code, _, err = run(command, f"--p={MAX_P + above}")
    assert_clean(code, err, (2,))


@PROPERTY
@given(above=st.integers(min_value=1, max_value=10**6))
@example(above=1)
@example(above=next_prime(MAX_P + 1) - MAX_P)
def test_verify_above_its_cap_exits_2(above):
    # verify has no cap of its own: MAX_P bounds it as it bounds every command
    code, out, err = run("verify", f"--p={MAX_P + above}")
    assert_clean(code, err, (2,))
    assert f"exceeds the supported bound {MAX_P}" in err and not out


def test_verify_accepts_every_prime_up_to_max_p(monkeypatch):
    # with the checks stubbed out, only a cap could refuse these
    monkeypatch.setattr(cli, "BASIC_CHECKS", [])
    for p in (next_prime(20_001), MAX_P):
        code, out, err = run("verify", f"--p={p}")
        assert_clean(code, err, (0,))
        assert f"all 0 checks passed (p={p}, depth=basic)" in out


ENDPOINTS = st.integers(min_value=-10**4, max_value=10**4) | st.integers(min_value=0, max_value=SMALL)


@PROPERTY
@given(lo=ENDPOINTS, hi=ENDPOINTS)
@example(lo=5, hi=SWEEP_MAX_TO + 1)
@example(lo=61, hi=5)
@example(lo=4, hi=61)
@example(lo=5, hi=61)
def test_sweep_ranges_exit_0_or_2(lo, hi):
    accepted = 5 <= lo <= hi <= SMALL
    # a valid range past SMALL would sweep up to hundreds of primes
    assume(accepted or not 5 <= lo <= hi <= SWEEP_MAX_TO)
    code, _, err = run("sweep", f"--from={lo}", f"--to={hi}")
    assert_clean(code, err, (0,) if accepted else (2,))


@PROPERTY
@given(jobs=st.integers(min_value=-10**6, max_value=0), hi=st.integers(min_value=5, max_value=SMALL))
def test_sweep_jobs_below_one_exits_2(jobs, hi):
    code, _, err = run("sweep", "--from=5", f"--to={hi}", f"--jobs={jobs}")
    assert_clean(code, err, (2,))
    assert "--jobs must be at least 1" in err


@PROPERTY
@given(above=st.integers(min_value=1, max_value=10**6), p=st.sampled_from([5, 7, 13]))
@example(above=1, p=7)
def test_full_cap_above_its_bound_exits_2(above, p):
    code, _, err = run("verify", f"--p={p}", "--depth=full", f"--full-cap={FULL_DEPTH_MAX_P + above}")
    assert_clean(code, err, (2,))


@PROPERTY
@given(p=st.sampled_from([q for q in range(5, SMALL + 1) if is_prime(q)]), data=st.data())
def test_full_cap_below_p_exits_2(p, data):
    cap = data.draw(st.integers(min_value=-10**6, max_value=p - 1))
    code, _, err = run("verify", f"--p={p}", "--depth=full", f"--full-cap={cap}")
    assert_clean(code, err, (2,))
    assert f"capped at p <= {cap}" in err
