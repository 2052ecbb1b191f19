"""Report assembly and rendering.

Reports are plain dicts with a pinned schema version, serialized with
sorted keys so the JSON bytes are stable for fixed inputs; golden-file
tests rely on that.  Text rendering puts each decomposition product on
its own labelled line in the factor grammar

    JF(<p>) ~ JC(<alpha>)^<mult> x JE(<gamma>)^<mult> x ...
"""

from __future__ import annotations

from .curves import CurveFamily
from .decompose import (
    IsogenyDecomposition,
    decompose_coarse,
    decompose_fine,
    dimension_audit,
)
from .orbits import OrbitPartition, PrimeContext, orbit_partition

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


def _key(k, keys: dict[str, str]) -> str:
    """The JSON of dict key k and its ": ", stored in keys for a str k."""
    if type(k) is str:
        text = keys[k] = _string(k) + ": "
        return text
    # a key that is not a str is written as the string of its JSON
    return _scalar(k if isinstance(k, str) else _scalar(k)) + ": "


def _json(value, indent: str, keys: dict[str, str]) -> str:
    """The JSON of value at the depth of ``indent``, a newline and spaces;
    ``keys`` holds the written form of each str key met so far in this
    document, so a key the schema repeats is encoded once."""
    get = _SCALARS.get
    write = get(type(value))
    if write is not None:
        return write(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        ends = "[]"
        body = sep.join([w(v) if (w := get(type(v))) else _json(v, inner, keys) for v in value])
    elif isinstance(value, dict):
        ends = "{}"
        body = sep.join([
            f"{keys[k] if type(k) is str and k in keys else _key(k, keys)}"
            f"{w(v) if (w := get(type(v))) else _json(v, inner, keys)}"
            for k, v in sorted(value.items())
        ])
    else:
        return _scalar(value)
    # no member is written as "", so an empty body is an empty container
    return f"{ends[0]}{inner}{body}{indent}{ends[1]}" if body else ends


def serialize(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline."""
    return _json(report, "\n", {}) + "\n"


def _orbit_entries(partition: OrbitPartition) -> list[dict]:
    return [
        {
            "representative": o.representative,
            "kind": o.kind.value,
            "size": o.size,
            "elements": list(o.elements),
        }
        for o in partition.orbits
    ]


def _factor_entry(f) -> dict:
    entry = {
        "symbol": f.symbol(),
        "curve": f.curve.describe(),
        "equation": f.curve.equation(),
        "family": f.curve.family.value,
        "alpha": f.curve.alpha,
        "multiplicity": f.multiplicity,
        "dimension": f.dimension,
    }
    if f.curve.family is CurveFamily.P_GONAL and f.curve.alpha == 1:
        # descriptive metadata only; never a computational object
        entry["hyperelliptic_model"] = f"w^2 = u^{f.curve.context.p} - 1"
    return entry


def _decomposition_entry(d: IsogenyDecomposition) -> dict:
    dimensions, shape = dimension_audit(d)
    entry = {
        "level": d.level.value,
        "product": d.render(),
        "factors": [_factor_entry(f) for f in d.factors],
        "total_dimension": d.total_dimension,
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
        "fermat_genus": (ctx.p - 1) * (ctx.p - 2) // 2,
        "orbits": _orbit_entries(partition),
        "orbit_counts": {
            "special_one": sum(1 for o in partition.orbits if o.kind.value == "special_one"),
            "gamma": sum(1 for o in partition.orbits if o.kind.value == "gamma"),
            "generic": sum(1 for o in partition.orbits if o.kind.value == "generic"),
        },
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


def _orbit_line(o: dict) -> str:
    elements = ",".join(str(e) for e in o["elements"])
    return f"{{{elements}}} size={o['size']} {o['kind']}"


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
    for level in ("coarse", "fine"):
        if level in report["decompositions"]:
            lines.append(f"{level}: {report['decompositions'][level]['product']}")
    for level in ("coarse", "fine"):
        if level in report["decompositions"]:
            entry = report["decompositions"][level]
            verdict = "PASS" if entry["audit"]["all_pass"] else "FAIL"
            if "gamma_refinement" in entry and not entry["gamma_refinement"]["all_pass"]:
                verdict = "FAIL"
            lines.append(f"audit {level}: {verdict}")
    return "\n".join(lines)
