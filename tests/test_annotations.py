"""Every annotation in the package resolves.

The package imports nothing for its annotations (no typing, no
collections.abc: a cold start loads neither), so each one must name a
builtin or a name the module binds at run time.  typing.get_type_hints
evaluates them, and raises NameError on any other name.
"""

import importlib
import pkgutil
import typing

import pytest

import fermatjac


def _modules():
    return [importlib.import_module(f"fermatjac.{m.name}") for m in pkgutil.iter_modules(fermatjac.__path__)]


def _annotated(module):
    """(qualified name, function) for every function and method, property
    accessors included, that the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if callable(obj) and hasattr(obj, "__code__"):
            yield name, obj
        elif isinstance(obj, type):
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if hasattr(member, "__code__"):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    failures = []
    for name, fn in _annotated(module):
        try:
            typing.get_type_hints(fn)
        except Exception as exc:  # NameError, TypeError: the annotation names nothing real
            failures.append(f"{name}: {exc!r}")
    assert failures == []


def test_the_walk_sees_the_named_methods():
    names = {name for module in _modules() for name, _ in _annotated(module)}
    for expected in ("Group.left_mul", "ClassData.class_counts", "FixTable.__init__", "word_map", "OrbitClass.size"):
        assert expected in names
