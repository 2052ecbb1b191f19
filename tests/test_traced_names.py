"""Every function the traced benchmark run wraps must exist by name.

bench/tracer.py looks each (module, name) of its TARGETS up with getattr
on the imported package, so a name deleted or renamed in the package
breaks the traced run (``bench/run.py --trace 1``).  The table is read
from the file's syntax tree; the tracer and its imports are not loaded.
A traced operation of each workload command is run in a child process,
as the benchmark runs it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
import fermatjac.cli  # noqa: F401  (imports every module the tracer names)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    """The (module, name) pairs of the TARGETS table in bench/tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACER} defines no TARGETS table")


def test_every_traced_name_resolves_on_the_package():
    names = traced_names()
    assert ("groups", "left_cosets") in names and len(names) == len(set(names))
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(getattr(fermatjac, module, None), name, None))]
    assert missing == []


@pytest.mark.parametrize("argv", (["verify", "--p", "13", "--depth", "full"], ["decompose", "--p", "13"]))
def test_traced_child_runs_the_workload_commands(tmp_path, argv):
    # the traced run wraps every TARGETS name and reads its counters off
    # the call's arguments (coset_genus's first, rh_genus's second) and
    # results: one traced operation per workload command must exit 0 and
    # record its spans
    src = Path(fermatjac.__file__).resolve().parents[1]
    record = tmp_path / "record.json"
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-B", str(TRACER.parent / "child.py"), str(src), str(record), "1",
         *argv, "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(record.read_text())
    assert result["rc"] == 0 and result["spans"]
    assert json.loads(run.stdout)["p"] == 13
