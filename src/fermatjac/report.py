"""Report assembly and rendering.

Reports are plain dicts with a pinned schema version, serialized with
sorted keys so the JSON bytes are stable for fixed inputs; golden-file
tests rely on that.  Their ``orbits`` and ``factors`` lists hold the
OrbitClass and IsogenyFactor objects themselves, which the writer puts
down as rows, and the text renderers read by attribute.  A list whose
items are all of one scalar or row class is written by one writer in
one join.  Text rendering puts each decomposition product on its own
labelled line in the factor grammar

    JF(<p>) ~ JC(<alpha>)^<mult> x JE(<gamma>)^<mult> x ...
"""

from __future__ import annotations

from .curves import CURVE_FORMATS, CurveFamily
from .decompose import (
    IsogenyDecomposition,
    IsogenyFactor,
    decompose_coarse,
    decompose_fine,
    dimension_audit,
)
from .orbits import OrbitClass, OrbitKind, OrbitPartition, PrimeContext, orbit_partition

SCHEMA_VERSION = "1"


# json's short escapes; other characters outside ' '..'~' become \uXXXX
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _escape(c: str) -> str:
    n = ord(c)
    if c in _ESCAPES or 0x20 <= n < 0x7F:
        return _ESCAPES.get(c, c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    return f"\\u{0xD7C0 + (n >> 10):04x}\\u{0xDC00 | n & 0x3FF:04x}"  # a surrogate pair


def _string(value: str) -> str:
    if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
        value = "".join(map(_escape, value))
    return '"' + value + '"'


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# The writer of each scalar class, looked up by exact class: a subclass
# (of int, say, with its own __repr__) goes to _scalar as json would.
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar(value) -> str:
    if isinstance(value, str):
        return _string(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(k, memo: dict) -> str:
    """The JSON of dict key k and its ": ", stored in memo for a str k."""
    if type(k) is str:
        text = memo[k] = _string(k) + ": "
        return text
    # a key that is not a str is written as the string of its JSON
    return _scalar(k if isinstance(k, str) else _scalar(k)) + ": "


def _orbit_row(indent: str):
    """The writer of an OrbitClass row at the depth of indent."""
    i1, i2 = indent + "  ", indent + "    "
    template = f'{{{i1}"elements": [{i2}%s{i1}],{i1}"kind": %s,{i1}"representative": %d,{i1}"size": %d{indent}}}'
    sep, kinds = "," + i2, {kind: _string(kind.value) for kind in OrbitKind}
    return lambda o: template % (sep.join(map(int.__repr__, o.elements)), kinds[o.kind], o.representative, len(o.elements))


def _factor_row(indent: str):
    """The writer of an IsogenyFactor row at the depth of indent: a %-template
    of int slots per curve family, and C_1's with its hyperelliptic model, made
    once from CURVE_FORMATS escaped by _string (ints in the slots need none)."""
    i1, templates = indent + "  ", {}

    def write(f: IsogenyFactor) -> str:
        c = f.curve
        key = c.family, c.family is CurveFamily.P_GONAL and c.alpha == 1
        if key not in templates:
            curve, equation, symbol = map(_string, CURVE_FORMATS[c.family])
            alpha, model = "null" if c.alpha is None else "%(alpha)d", f'{i1}"hyperelliptic_model": "w^2 = u^%(p)d - 1",' * key[1]
            templates[key] = (f'{{{i1}"alpha": {alpha},{i1}"curve": {curve},{i1}"dimension": %(dimension)d,{i1}"equation": {equation},'
                              f'{i1}"family": {_string(c.family.value)},{model}{i1}"multiplicity": %(multiplicity)d,{i1}"symbol": {symbol}{indent}}}')
        return templates[key] % {"p": c.context.p, "alpha": c.alpha, "dimension": f.dimension, "multiplicity": f.multiplicity}

    return write


# The row writer maker of each class whose objects are written straight
# from their attributes, looked up by exact class as _SCALARS is; each
# field sits where json.dumps(..., sort_keys=True) puts its key.
_ROWS = {OrbitClass: _orbit_row, IsogenyFactor: _factor_row}


def _row(cls, indent: str, memo: dict):
    """The writer of a cls row at the depth of indent, made once per
    document; None when cls has no row.  A factor row's writer formats each
    row object once, as the fine decomposition reuses the coarse factors;
    no document writes an orbit row twice."""
    if cls in _ROWS and (cls, indent) not in memo:
        write, texts = _ROWS[cls](indent), {}
        memo[cls, indent] = write if cls is not IsogenyFactor else lambda row: texts.get(id(row)) or texts.setdefault(id(row), write(row))
    return memo.get((cls, indent))


def _json(value, indent: str, memo: dict, out: list) -> None:
    """Append the JSON of value at the depth of ``indent``, a newline and
    spaces, to ``out`` in fragments.  ``memo`` holds the written form of
    each str key and the row writer of each (class, indent) met so far in
    this document, so what the schema repeats is made once."""
    get, cls = _SCALARS.get, type(value)
    write = get(cls) or cls in _ROWS and _row(cls, indent, memo)
    if write:
        out.append(write(value))
        return
    inner = indent + "  "
    keyed = isinstance(value, dict)
    if keyed:
        ends, items = "{}", sorted(value.items())
    elif isinstance(value, (list, tuple)):
        ends, items = "[]", value
    else:
        out.append(_scalar(value))
        return
    if not items:
        out.append(ends)
        return
    lead, sep = ends[0] + inner, "," + inner
    first = type(items[0])
    if not keyed and (first in _SCALARS or first in _ROWS) and len(set(map(type, items))) == 1:
        # a list of one scalar or row class: one writer, one join
        out += lead, sep.join(map(get(first) or _row(first, inner, memo), items)), indent + ends[1]
        return
    for v in items:
        if keyed:
            k, v = v
            lead += memo[k] if type(k) is str and k in memo else _key(k, memo)
        write = get(type(v))
        if write is not None:
            out.append(lead + write(v))
        elif type(v) in _ROWS:
            out += lead, _row(type(v), inner, memo)(v)
        else:
            out.append(lead)
            _json(v, inner, memo, out)
        lead = sep
    out.append(indent + ends[1])


def serialize(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline,
    with each OrbitClass and IsogenyFactor written as its report row."""
    out: list[str] = []
    _json(report, "\n", {}, out)
    out.append("\n")
    return "".join(out)


def _decomposition_entry(d: IsogenyDecomposition) -> dict:
    dimensions, shape = dimension_audit(d)
    entry = {
        "level": d.level.value,
        "product": d.render(),
        "factors": list(d.factors),
        "total_dimension": dimensions["total_dimension"],
        "audit": d.audit.summary(),
        "dimension_audit": dimensions,
    }
    if d.gamma_refinement is not None:
        entry["gamma_refinement"] = d.gamma_refinement.summary()
    if shape is not None:
        entry["group_algebra_shape"] = shape
    return entry


def base_report(ctx: PrimeContext, partition: OrbitPartition) -> dict:
    gamma = None
    if ctx.has_gamma:
        gamma = {"root": ctx.gamma_pair[0], "inverse_root": ctx.gamma_pair[1]}
    counts = {kind.value: 0 for kind in OrbitKind}
    for o in partition.orbits:
        counts[o.kind.value] += 1
    return {
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "residue_mod_3": ctx.residue_class_mod_3,
        "gamma": gamma,
        "fermat_genus": (ctx.p - 1) * (ctx.p - 2) // 2,
        "orbits": list(partition.orbits),
        "orbit_counts": counts,
    }


def orbits_report(ctx: PrimeContext) -> dict:
    report = base_report(ctx, orbit_partition(ctx))
    report["command"] = "orbits"
    return report


def decompose_report(ctx: PrimeContext, level: str = "both") -> dict:
    partition = orbit_partition(ctx)
    report = base_report(ctx, partition)
    report["command"] = "decompose"
    decompositions = {}
    coarse = decompose_coarse(ctx, partition)
    if level in ("coarse", "both"):
        decompositions["coarse"] = _decomposition_entry(coarse)
    if level in ("fine", "both"):
        decompositions["fine"] = _decomposition_entry(decompose_fine(coarse))
    report["decompositions"] = decompositions
    return report


def _orbit_line(o: OrbitClass) -> str:
    elements = ",".join(map(str, o.elements))
    return f"{{{elements}}} size={o.size} {o.kind.value}"


def _header_lines(report: dict) -> list[str]:
    """The p line and the gamma-pair line that open every text report."""
    gamma = report["gamma"]
    pair = f"({gamma['root']}, {gamma['inverse_root']})" if gamma else "none"
    return [f"p = {report['p']} ({report['residue_mod_3']} mod 3)", f"gamma pair: {pair}"]


def render_orbits_text(report: dict) -> str:
    lines = _header_lines(report)
    lines.append(f"orbit census: {len(report['orbits'])} orbits on X_p = {{1..{report['p'] - 2}}}")
    for o in report["orbits"]:
        lines.append("  " + _orbit_line(o))
    counts = report["orbit_counts"]
    lines.append(
        f"counts: special_one={counts['special_one']} gamma={counts['gamma']} generic={counts['generic']}"
    )
    return "\n".join(lines)


def render_decompose_text(report: dict) -> str:
    lines = _header_lines(report)
    orbit_bits = "; ".join(_orbit_line(o) for o in report["orbits"])
    lines.append(f"orbits ({len(report['orbits'])}): {orbit_bits}")
    levels = [level for level in ("coarse", "fine") if level in report["decompositions"]]
    lines += [f"{level}: {report['decompositions'][level]['product']}" for level in levels]
    # a decomposition exists only once its audits passed: a failed one raised
    lines += [f"audit {level}: PASS" for level in levels]
    return "\n".join(lines)
