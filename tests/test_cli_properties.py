"""Property tests over the command-line argument space.

Every input, accepted or refused, must end in exit code 0 or 2 with no
traceback.  The inputs are bad primes (composite, negative, below 5),
reversed and out-of-range sweep ranges, every advertised bound plus one
and full depth above its bound.  Accepted examples stay at p <= 61, so
each runs in milliseconds; a refused input is refused before any work, so
no command ever runs at a large bound.

The flag-table parser must agree with the argparse parser the package
built before it (``helpers.reference_parser``) on every command line it
accepts, and leave help screens and refusals byte for byte as they were.
"""

import contextlib
import io

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fermatjac import cli
from fermatjac.cli import SWEEP_MAX_TO, main
from fermatjac.orbits import MAX_P, is_prime

from helpers import reference_parser

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


def run_reference(argv):
    """Namespace (as a dict, None on exit), exit code, stdout and stderr
    of the reference parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


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
@given(above=st.integers(min_value=1, max_value=10**6))
@example(above=1)
@example(above=next_prime(MAX_P + 1) - MAX_P)
def test_full_depth_above_max_p_exits_2(above):
    # full depth has no cap of its own: MAX_P bounds it, and a larger p
    # is refused before any check runs
    code, out, err = run("verify", f"--p={MAX_P + above}", "--depth=full")
    assert_clean(code, err, (2,))
    assert f"exceeds the supported bound {MAX_P}" in err and not out


def test_full_depth_accepts_every_prime_up_to_max_p(monkeypatch):
    # with the checks stubbed out, only a cap could refuse these
    monkeypatch.setattr(cli, "BASIC_CHECKS", [])
    monkeypatch.setattr(cli, "FULL_CHECKS", [])
    for p in (1009, MAX_P):
        code, out, err = run("verify", f"--p={p}", "--depth=full")
        assert_clean(code, err, (0,))
        assert f"all 0 checks passed (p={p}, depth=full)" in out


@pytest.mark.parametrize("flag", ("--full-cap", "--jobs"))
def test_removed_flags_are_unknown(flag):
    # verify --full-cap and sweep --jobs are gone: argparse refuses them,
    # at any value, as it refuses any flag no command has
    for argv in (["verify", "--p", "7", "--depth", "full"], ["sweep", "--from", "5", "--to", "13"]):
        for value in ("997", "1", "0"):
            assert cli._parse_argv([*argv, flag, value]) is None
            code, out, err = run(*argv, flag, value)
            assert code == 2 and not out
            assert f"error: unrecognized arguments: {flag} {value}" in err


# -- the flag-table parser against the reference parser -----------------------

COMMANDS = ["orbits", "decompose", "verify", "sweep"]
FLAGS = ["--p", "--format", "--level", "--depth", "--from", "--to"]
CHOICES = ["text", "json", "coarse", "fine", "both", "basic", "full"]
INTS = ["13", "7", "5", "0", "-7", "013", "31", "100003"]
JUNK = ["-h", "--help", "--", "--p=13", "--fo", "--full", "-p", "x", "", "1.5", " 13", "Text"]
TOKEN = st.sampled_from(COMMANDS + FLAGS + CHOICES + INTS + JUNK)


@st.composite
def well_formed(draw):
    """COMMAND (--flag VALUE)*: every required flag and some others, in
    any order and possibly repeated, each with a value of its type."""
    command = draw(st.sampled_from(COMMANDS))
    flags = cli.COMMANDS[command][2]
    chosen = [spec for spec in flags if spec[1].get("required")]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=4))
    argv = [command]
    for flag, kwargs in draw(st.permutations(chosen)):
        argv += [flag, draw(st.sampled_from(list(kwargs.get("choices") or INTS)))]
    return argv


@st.composite
def one_token_off(draw):
    argv = draw(well_formed())
    argv[draw(st.integers(0, len(argv) - 1))] = draw(TOKEN)
    return argv


ARGV = well_formed() | one_token_off() | st.lists(TOKEN, max_size=9)


@settings(max_examples=300, deadline=None)
@given(argv=ARGV)
@example(argv=["verify", "--p", "13", "--depth", "full", "--format", "json"])
@example(argv=["sweep", "--from", "5", "--to", "7", "--from", "11", "--to", "13"])
@example(argv=["verify", "--p", "7", "--help"])
@example(argv=["verify", "--p=7"])
@example(argv=["verify", "--p", "7", "--dep", "full"])
@example(argv=["verify", "--p", "-7"])
@example(argv=["orbits", "--p", "7", "--", "x"])
@example(argv=["orbits", "--p", "7", "--level", "fine"])
@example(argv=["census", "--p", "7"])
@example(argv=["orbits", "--p", "7", "--format"])
@example(argv=["sweep", "--from", "5"])
@example(argv=["verify", "--p", "x"])
@example(argv=["verify", "--p", "7", "--depth", "deep"])
def test_parse_argv_agrees_with_the_reference_parser(argv):
    fast = cli._parse_argv(argv)
    if fast is not None:
        namespace, code, _, _ = run_reference(argv)
        assert code is None
        assert vars(fast) == namespace


# Command lines the flag table hands to argparse, one of each kind.
DECLINED = [
    [],
    ["verify", "-h"],
    ["verify", "--p", "7", "--help"],
    ["verify", "--p=7"],
    ["verify", "--p", "7", "--dep", "full"],
    ["verify", "--p", "-7"],
    ["orbits", "--p", "7", "--", "x"],
    ["orbits", "--p", "7", "--level", "fine"],
    ["census", "--p", "7"],
    ["orbits", "--p", "7", "--format"],
    ["sweep", "--from", "5"],
    ["verify", "--p", "x"],
    ["verify", "--p", "7", "--depth", "deep"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_parse_argv_declines_what_it_does_not_read(argv):
    assert cli._parse_argv(argv) is None


REFUSED = [
    [],
    ["--p", "7"],
    ["census", "--p", "7"],
    ["orbits"],
    ["orbits", "--p"],
    ["orbits", "--p", "7", "extra"],
    ["orbits", "--p", "7", "--level", "fine"],
    ["orbits", "--p", "7", "--", "x"],
    ["decompose", "--p", "7", "--levl", "fine"],
    ["verify", "--p", "x"],
    ["verify", "--p", "7", "--depth", "deep"],
    ["verify", "--p", "7", "--full", "x"],
    ["sweep", "--from", "5"],
    ["sweep", "--from", "5", "--to", "7", "--format"],
]


@pytest.mark.parametrize("columns", ("60", None))
@pytest.mark.parametrize("argv", [[*c, "--help"] for c in ([], *([c] for c in COMMANDS))] + REFUSED, ids=" ".join)
def test_help_and_refusals_match_the_reference_parser(monkeypatch, columns, argv):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    _, code, out, err = run_reference(argv)
    assert code in (0, 2)
    assert run(*argv) == (code, out, err)


# The benchmark's workloads, the CI bound steps and README's examples.
WELL_FORMED = [
    ["decompose", "--p", "379", "--level", "both", "--format", "json"],
    ["decompose", "--p", "397", "--level", "both", "--format", "json"],
    ["decompose", "--p", "409", "--level", "both", "--format", "json"],
    ["verify", "--p", "13", "--depth", "full", "--format", "json"],
    ["verify", "--p", "997", "--depth", "full"],
    ["verify", "--p", "1009", "--depth", "full"],
    ["verify", "--p", "100003", "--depth", "full"],
    ["verify", "--p", "100003"],
    ["decompose", "--p", "100003", "--format", "json"],
    ["sweep", "--from", "5", "--to", "3000"],
    ["orbits", "--p", "13"],
    ["decompose", "--p", "7"],
    ["decompose", "--p", "13", "--format", "json"],
    ["verify", "--p", "7", "--depth", "full"],
    ["verify", "--p", "19", "--depth", "basic"],
    ["sweep", "--from", "5", "--to", "199"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_well_formed_argv_never_build_the_parser(monkeypatch, argv):
    def refuse():
        raise AssertionError("build_parser was called")

    # the handlers are stubbed, so that no command does its work
    calls = []
    monkeypatch.setattr(cli, "build_parser", refuse)
    for name, (help_, _, flags) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, (help_, lambda args: calls.append(vars(args)) or 0, flags))
    assert main(argv) == 0
    namespace, _, _, _ = run_reference(argv)
    assert calls == [{**namespace, "fn": calls[0]["fn"]}]
