"""Call budgets: how many Python calls a command makes into the package.

``decompose`` reads the fix tables a range at a time
(``FixTable.at_range``), writes each list of report rows with one writer
in one join and fills each factor's symbol and each decomposition's total
dimension once, at construction.  A wrapper called per element again (a
table read, a row dispatch, a symbol method, a generator step) shows up
here as hundreds of calls at p = 409 before it shows up in a timing.

``verify --depth full`` counts the classes of the triple's powers and of
the subgroups it reads by blocks of one class kind and by line orbit, and
keys no element but the p + 1 line points each table is read at: a class
key per element again shows up as tens of calls per unit of p at
p = 10007.  The full table keeps its line counts and the class data its
line orbits, so the line points are keyed once per verify and the lines
scanned for S3-orbits once.

A subgroup of the translations is read by the rank of its generators'
points over F_p, so ``fermat_H`` and ``fermat_Hj`` build H and a deck
line at ``MAX_P`` in a few calls, with no element closed.
"""

import io
import os
import sys
from contextlib import redirect_stdout

import pytest

import fermatjac
from fermatjac import cli, groups
from fermatjac.groups import ClassData, fermat_H, fermat_Hj

PACKAGE = os.path.dirname(os.path.abspath(fermatjac.__file__)) + os.sep


def package_calls(argv, run=None):
    """The exit code of the command line argv and the number of Python
    function calls it makes into code under the package directory; with
    ``run``, the value of run(*argv) and its count instead."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    with redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            value = cli.main(argv) if run is None else run(*argv)
        finally:
            sys.setprofile(None)
    return value, calls


# command line -> the most package calls it may make (Python 3.11: 2,474
# and 2,471; 4,500 and 3,182 while each table read, row and factor symbol
# was a call of its own, 2,983 for verify while full depth keyed the
# triple's powers and the lines' points one by one).  sweep runs verify's
# 8 basic checks at each of 44 primes: 59,707 calls, 26,337 while it ran
# 4 of them.
BUDGETS = {
    ("decompose", "--p", "409", "--level", "both", "--format", "json"): 3000,
    ("verify", "--p", "13", "--depth", "full", "--format", "json"): 2640,
    ("sweep", "--from", "5", "--to", "199"): 72000,
}

# the most calls full depth may add to basic verify, per unit of p
# (Python 3.11 at p = 10007: 13.4, i.e. 134,155; 53.9 while each power of
# the triple, each support class and each line point was keyed one by one)
FULL_OVER_BASIC_PER_P = 15


@pytest.mark.parametrize("argv", BUDGETS, ids=" ".join)
def test_command_stays_within_its_call_budget(argv):
    code, calls = package_calls(list(argv))
    assert code == 0
    assert calls <= BUDGETS[argv], calls


def test_full_depth_adds_at_most_15_calls_per_unit_of_p():
    p = 10007
    basic = package_calls(["verify", "--p", str(p)])
    full = package_calls(["verify", "--p", str(p), "--depth", "full"])
    assert basic[0] == full[0] == 0
    assert full[1] - basic[1] <= FULL_OVER_BASIC_PER_P * p, (basic[1], full[1])


# the most class keys full depth may take beyond the p + 1 line points
# (Python 3.11 at p = 10007: 7, the reads of <u>, <v> and <a1 v> and
# fix(a1) twice; 2 (p + 1) + p / 6 + 7 = 21,692 while the line points were
# keyed by both full checks that read them and each line orbit's line by
# its own read)
KEYS_BEYOND_LINE_POINTS = 16


def test_full_depth_keys_the_line_points_once_and_scans_the_lines_once(monkeypatch):
    p = 10007
    calls = {"key": 0, "line_orbits": 0, "line_orbit": 0}
    real_key, real_orbits, real_orbit = ClassData.key, groups.line_orbits, groups.line_orbit

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ClassData, "key", counted("key", real_key))
    monkeypatch.setattr(groups, "line_orbits", counted("line_orbits", real_orbits))
    monkeypatch.setattr(groups, "line_orbit", counted("line_orbit", real_orbit))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--p", str(p), "--depth", "full"]) == 0
    assert calls["key"] <= p + 1 + KEYS_BEYOND_LINE_POINTS, calls
    # one scan, a line_orbit per orbit, and one more for the axes of <a1 v>
    assert calls["line_orbits"] == 1, calls
    assert calls["line_orbit"] == len(real_orbits(p)) + 1, calls


# the most package calls fermat_H or fermat_Hj may make (Python 3.11: 7
# and 5); closing p^2 elements to learn H's order took hours at MAX_P
BUILD_BUDGET = 10


def test_H_and_deck_lines_at_MAX_P_are_read_by_rank_within_a_few_calls():
    p = 100003
    h, calls = package_calls((p,), fermat_H)
    assert (h.order, h.lines) == (p * p, range(p + 1))
    assert calls <= BUILD_BUDGET, calls
    for j in (1, p - 2):
        hj, calls = package_calls((p, j), fermat_Hj)
        assert (hj.order, list(hj.lines)) == (p, [j + 2])
        assert calls <= BUILD_BUDGET, (j, calls)
