"""Call budgets: how many Python calls a command makes into the package.

``decompose`` reads the fix tables a range at a time
(``FixTable.at_range``), writes each list of report rows with one writer
in one join and fills each factor's symbol and each decomposition's total
dimension once, at construction.  A wrapper called per element again (a
table read, a row dispatch, a symbol method, a generator step) shows up
here as hundreds of calls at p = 409 before it shows up in a timing.
"""

import io
import os
import sys
from contextlib import redirect_stdout

import pytest

import fermatjac
from fermatjac import cli

PACKAGE = os.path.dirname(os.path.abspath(fermatjac.__file__)) + os.sep


def package_calls(argv):
    """The exit code of the command line argv and the number of Python
    function calls it makes into code under the package directory."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    with redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
    return code, calls


# command line -> the most package calls it may make (Python 3.11: 2,474
# and 2,983; 4,500 and 3,182 while each table read, row and factor symbol
# was a call of its own)
BUDGETS = {
    ("decompose", "--p", "409", "--level", "both", "--format", "json"): 3000,
    ("verify", "--p", "13", "--depth", "full", "--format", "json"): 3182,
}


@pytest.mark.parametrize("argv", BUDGETS, ids=" ".join)
def test_command_stays_within_its_call_budget(argv):
    code, calls = package_calls(list(argv))
    assert code == 0
    assert calls <= BUDGETS[argv], calls
