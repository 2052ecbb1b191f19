"""Spans around the calls into each fermatjac module, for the traced run.

`install` wraps the public functions the per-layer metrics name.  A
wrapper is installed at every place the name is looked up: the defining
module and each module that bound it with ``from ... import``, plus the
check lists ``cli.BASIC_CHECKS`` and ``cli.FULL_CHECKS``.  A class is
timed through its ``__init__``.  Each call appends one span
[name, start, end, parent index, count] to a list kept in memory; the
child process writes the list out when its command ends.

`summarize` turns the spans of one command into self times (a span's
duration minus its children's), call counts and the work counts the
wrappers took from arguments and return values.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

from checks import BASIC_CHECK_NAMES, FULL_CHECK_NAMES

RSS = "rss_growth_mb"

# (module, public name, counter).  A counter is (suffix, fn): fn maps
# (args, result) to the work count one call adds to "<span>.<suffix>".
# The RSS counter instead records the growth of peak RSS over the call.
TARGETS = (
    ("orbits", "orbit_partition", None),
    ("curves", "quotient_to_curve", None),
    ("groups", "fermat_Hj", None),
    ("groups", "fermat_H", None),
    ("groups", "subgroup_closure", ("elements", lambda a, r: r.order)),
    ("groups", "all_cyclic_subgroups", ("subgroups", lambda a, r: len(r))),
    ("groups", "conjugacy_classes", None),
    ("groups", "left_cosets", None),
    ("genus", "rh_genus", ("elements", lambda a, r: a[1].order)),
    # the coset index [G:K] = 6 p^2 / |K|
    ("genus", "coset_genus", ("cosets", lambda a, r: 6 * a[0].p ** 2 // a[0].order)),
    ("genus", "find_generating_triple", None),
    ("genus", "validate_triple", None),
    ("genus", "fermat_full_fix_table", None),
    ("decompose", "decompose_coarse", (RSS, None)),
    ("decompose", "kani_rosen_check", ("pairs", lambda a, r: len(r.commuting_checks))),
    ("decompose", "gamma_refinement_audit", None),
    ("decompose", "dimension_audit", None),
    ("monomial", "verify_relation", None),
    ("certificates", "ClassData", None),
    ("certificates", "chi_rat", None),
    ("certificates", "induced_perm_character", None),
    ("certificates", "inner_product", None),
    ("report", "decompose_report", None),
    ("report", "serialize", ("bytes", lambda a, r: len(r.encode()))),
)
# Spans that also report how often they were called.
CALLS = (
    "orbits.orbit_partition", "curves.quotient_to_curve", "groups.left_cosets",
    "genus.coset_genus", "decompose.decompose_coarse", "monomial.verify_relation",
    "certificates.inner_product",
)


def _units() -> dict[str, str]:
    units = {f"cli.check.{c}.s": "s" for c in BASIC_CHECK_NAMES + FULL_CHECK_NAMES}
    for module, attr, counter in TARGETS:
        span = f"{module}.{attr}"
        units[f"{span}.s"] = "s"
        if span in CALLS:
            units[f"{span}.calls"] = "count"
        if counter:
            units[f"{span}.{counter[0]}"] = {RSS: "MB", "bytes": "bytes"}.get(counter[0], "count")
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "%"
    return units


# Every per-layer metric, in report order, with its unit.
UNITS = _units()


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    Linux carries the parent's high-water mark over fork and exec into
    ``ru_maxrss``, so a child smaller than its parent would report the
    parent's size; VmHWM counts this image alone.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        suffix, count_fn = counter or (None, None)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if suffix == RSS:
                before = peak_rss_kb()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if suffix == RSS:
                span[4] = (peak_rss_kb() - before) / 1024
            elif count_fn is not None:
                span[4] = count_fn(args, result)
            return result

        return timed


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "fermatjac" or name.startswith("fermatjac."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(cli) -> Tracer:
    """Wrap every traced function of the imported package; return the tracer."""
    tracer = Tracer()
    package = sys.modules["fermatjac"]
    for module, attr, counter in TARGETS:
        original = getattr(getattr(package, module), attr)
        name = f"{module}.{attr}"
        if isinstance(original, type):
            original.__init__ = tracer.wrap(name, original.__init__)
        else:
            _rebind(original, tracer.wrap(name, original, counter))
    for checks in (cli.BASIC_CHECKS, cli.FULL_CHECKS):
        for i, (check, fn) in enumerate(checks):
            wrapper = tracer.wrap(f"cli.check.{check}", fn)
            _rebind(fn, wrapper)
            checks[i] = (check, wrapper)
    return tracer


def summarize(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer values of one traced command: self seconds, calls, work
    counts, and the share of its wall time that top-level spans cover."""
    suffixes = {f"{m}.{a}": c[0] for m, a, c in TARGETS if c}
    values = {name: 0.0 if unit == "s" else 0 for name, unit in UNITS.items() if not name.startswith("trace.")}
    child_time = [0.0] * len(spans)
    top = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top += end - start
    for (name, start, end, _, count), children in zip(spans, child_time):
        values[f"{name}.s"] += end - start - children
        if name in CALLS:
            values[f"{name}.calls"] += 1
        if count is not None:
            values[f"{name}.{suffixes[name]}"] += count
    values["trace.coverage"] = 100.0 * top / wall
    return values
