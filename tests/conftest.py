"""pytest configuration for the test suite.

helpers.py holds the object-level oracles, whose consistency checks are
plain asserts.  pytest rewrites asserts only in test modules, plugins and
the modules registered here, and a rewritten assert raises also under
``python -O``, which strips every other one.  The registration must come
before the first import of helpers, so it lives here.

A test module with ``python -O`` twins states their cases in a table
``UNDER_O`` (see helpers.run_family_under_O).  The tables of every
collected module run in one ``python -O`` child, once a session, and a
twin reads its run from ``under_O``, by its key in its module's table.
"""

import pytest

pytest.register_assert_rewrite("helpers")


@pytest.fixture(scope="session")
def _runs_under_O(request):
    from helpers import run_family_under_O

    modules = dict.fromkeys(getattr(item, "module", None) for item in request.session.items)
    return run_family_under_O([f"{m.__name__}.UNDER_O" for m in modules if hasattr(m, "UNDER_O")])


@pytest.fixture
def under_O(request, _runs_under_O):
    """The runs of the requesting module's UNDER_O table, by key."""
    return _runs_under_O[f"{request.module.__name__}.UNDER_O"]
