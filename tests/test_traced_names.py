"""Every function the traced benchmark run wraps must exist by name.

bench/tracer.py looks each (module, name) of its TARGETS up with getattr
on the imported package, so a name deleted or renamed in the package
breaks the traced run (``bench/run.py --trace 1``).  The table is read
from the file's syntax tree; the tracer and its imports are not loaded.
"""

import ast
from pathlib import Path

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
