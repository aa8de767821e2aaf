"""Report rendering: canonical JSON, CSV, and aligned text tables.

The structured format must be byte-identical across runs with the same
inputs, so it is emitted by a small canonical serializer instead of
json.dumps: keys sorted, floats at 12 significant digits, no NaN or
infinities. A report parsed back with json.loads and re-emitted reproduces
the same bytes, which is the round-trip the test suite pins down.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii  # what json.dumps does to a str

import numpy as np

from .errors import ValidationError


_NON_FINITE = "reports cannot carry NaN or infinite values"
_FLOAT_ONLY = {float}


def format_float(value: float) -> str:
    """12 significant digits; always a valid JSON number."""
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(_NON_FINITE)
    if value == 0.0:
        return "0"  # normalize the sign of zero
    return format(value, ".12g")


def _finite_floats(items: list) -> list:
    """The items with -0.0 made 0.0, as format_float prints it; raises
    format_float's error on a NaN or an infinity."""
    # a sum of finite floats may overflow, so only a non-finite sum is checked item by item
    if not math.isfinite(sum(items)) and not all(map(math.isfinite, items)):
        raise ValidationError(_NON_FINITE)
    return [x or 0.0 for x in items] if 0.0 in items else items


def _joined_floats(items) -> str | None:
    """format_float of every item, joined by commas, when all items are
    Python floats; else None.

    Reports are mostly lists of floats, long ones and [re, im] pairs; one
    %-format over the whole list gives the same text as format_float on
    each item, at a fraction of the cost.
    """
    if set(map(type, items)) != _FLOAT_ONLY:
        return None
    return ",".join(["%.12g"] * len(items)) % tuple(_finite_floats(items))


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, np.generic):  # normalize stray numpy scalars
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError(f"report keys must be strings, got {key!r}")
            if pos:
                out.append(",")
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        joined = _joined_floats(obj)
        if joined is not None:
            out.append("[" + joined + "]")
            return
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_canonical(report: dict) -> str:
    """Canonical structured rendering, newline-terminated."""
    out: list[str] = []
    _emit(report, out)
    return "".join(out) + "\n"


def _flatten(obj, prefix: str, rows: list[tuple[str, str | list]]) -> None:
    """Append a (label, rendered value) row for every leaf of obj, and one
    (label prefix, list) row for every list whose items are all Python
    floats; the renderers print such a list in one block."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == _FLOAT_ONLY:
            rows.append((prefix, obj))
            return
        for pos, item in enumerate(obj):
            _flatten(item, f"{prefix}[{pos}]", rows)
    else:
        rows.append((prefix, _cell(obj)))


def _cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


def _block(template: str, items: list, start: int = 0) -> str:
    """`template % (index, item)` for every item, one line each, from one
    %-format call; indices count from `start`. Items are finite floats."""
    args = [0] * (2 * len(items))
    args[::2] = range(start, start + len(items))
    args[1::2] = items
    return "\n".join([template] * len(items)) % tuple(args)


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def dumps_csv(report: dict) -> str:
    """Flat label,value rows; lists are indexed, nesting is dotted."""
    rows: list[tuple[str, str | list]] = []
    _flatten(report, "", rows)
    lines = ["label,value"]
    for label, value in rows:
        if isinstance(value, str):
            lines.append(f"{_csv_field(label)},{_csv_field(value)}")
            continue
        # "[%d]" holds no comma or quote, so the label quotes as its prefix does
        template = _csv_field(label.replace("%", "%%") + "[%d]") + ",%.12g"
        lines.append(_block(template, _finite_floats(value)))
    return "\n".join(lines) + "\n"


def _label_width(label: str, value: str | list) -> int:
    if isinstance(value, str):
        return len(label)
    return len(label) + len(str(len(value) - 1)) + 2  # the label of the last index


def dumps_table(report: dict) -> str:
    """Aligned two-column text for terminals."""
    rows: list[tuple[str, str | list]] = []
    _flatten(report, "", rows)
    width = max((_label_width(label, value) for label, value in rows), default=0)
    lines = []
    for label, value in rows:
        if isinstance(value, str):
            lines.append(f"{label.ljust(width)}  {value}")
            continue
        items = _finite_floats(value)
        escaped = label.replace("%", "%%")
        start, digits = 0, 1
        while start < len(items):  # one template per index width
            stop = min(10**digits, len(items))
            pad = " " * (width - len(label) - digits - 2)
            lines.append(_block(f"{escaped}[%d]{pad}  %.12g", items[start:stop], start))
            start, digits = stop, digits + 1
    return "\n".join(lines) + "\n"


FORMATS = ("structured", "csv", "table")


def render(report: dict, fmt: str) -> str:
    if fmt == "structured":
        return dumps_canonical(report)
    if fmt == "csv":
        return dumps_csv(report)
    if fmt == "table":
        return dumps_table(report)
    raise ValidationError(f"unknown format {fmt!r}: expected one of {FORMATS}")
