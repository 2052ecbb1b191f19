"""pytest configuration for the test suite.

helpers.py holds the object-level oracles, whose consistency checks are
plain asserts.  pytest rewrites asserts only in test modules, plugins and
the modules registered here, and a rewritten assert raises also under
``python -O``, which strips every other one.  The registration must come
before the first import of helpers, so it lives here.
"""

import pytest

pytest.register_assert_rewrite("helpers")
