"""Report assembly and rendering.

Reports are plain dicts with a pinned schema version, serialized with
sorted keys so the JSON bytes are stable for fixed inputs; golden-file
tests rely on that.  Their ``orbits`` and ``factors`` lists hold the
OrbitClass and IsogenyFactor objects themselves, which the writer puts
down as rows, and the text renderers read by attribute.  The writer
takes only the values reports hold (:func:`serialize`), and a list
whose items are all of one scalar or row class is written by one writer
in one join.  Text rendering puts each decomposition product on its own
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
from .genus import fermat_genus
from .orbits import OrbitClass, OrbitKind, OrbitPartition, PrimeContext, orbit_census, orbit_partition

SCHEMA_VERSION = "1"


# json's short escapes; other characters outside ' '..'~' become \uXXXX
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


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


# The writer of each scalar class a report holds, looked up by exact class:
# any other class, a subclass of one of these too, is refused.
_SCALARS = {
    str: _string,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _key(k, memo: dict) -> str:
    """The JSON of dict key k, a str, and its ": ", stored in memo."""
    if type(k) is not str:
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    text = memo[k] = _string(k) + ": "
    return text


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
            model = f'{i1}"hyperelliptic_model": "w^2 = u^%(p)d - 1",' * key[1]
            templates[key] = (f'{{{i1}"alpha": %(alpha)d,{i1}"curve": {curve},{i1}"dimension": %(dimension)d,{i1}"equation": {equation},'
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
    keyed = cls is dict
    if keyed:
        ends, items = "{}", sorted(value.items())
    elif cls is list or cls is tuple:
        ends, items = "[]", value
    else:
        raise TypeError(f"Object of type {cls.__name__} is not a report value")
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
    with each OrbitClass and IsogenyFactor written as its report row.
    A report holds str, int, bool and None, lists, tuples, dicts keyed by
    str and the two rows, each of exactly its class; any other value
    raises TypeError naming its class."""
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
    return {
        "schema_version": SCHEMA_VERSION,
        "p": ctx.p,
        "residue_mod_3": ctx.residue_class_mod_3,
        "gamma": gamma,
        "fermat_genus": fermat_genus(ctx.p),
        "orbits": list(partition.orbits),
        # the census that orbit_partition held the partition against
        "orbit_counts": {kind: n for (kind, _), n in orbit_census(ctx).items()},
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
