"""Report rendering: canonical JSON, CSV, and aligned text tables.

The structured format must be byte-identical across runs with the same
inputs, so it is emitted by a small canonical serializer instead of
json.dumps: keys sorted, floats at 12 significant digits, no NaN or
infinities. A report parsed back with json.loads and re-emitted reproduces
the same bytes, which is the round-trip the test suite pins down.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii  # what json.dumps does to a str

import numpy as np

from .errors import ValidationError


_NON_FINITE = "reports cannot carry NaN or infinite values"
_FLOAT_ONLY = {float}
_SEQUENCES = {list, tuple}


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


def _float_rows(items) -> tuple[list, list[str]] | None:
    """(floats, label suffixes of one item) when every item is a Python
    float (one item, one float, no suffix) or items is a non-empty list of
    equal-length lists of k >= 1 Python floats, such as the [re, im] pairs
    of a state (the items' floats in order, suffixes "[0]" to "[k-1]");
    else None."""
    types = set(map(type, items))
    if types == _FLOAT_ONLY:
        return items, [""]
    if not items or not types <= _SEQUENCES:
        return None
    widths = set(map(len, items))
    if len(widths) != 1 or 0 in widths:
        return None
    floats = list(chain.from_iterable(items))
    if set(map(type, floats)) != _FLOAT_ONLY:
        return None
    return floats, [f"[{k}]" for k in range(widths.pop())]


def _joined_floats(items) -> str | None:
    """The items as the structured renderer prints them, without the outer
    brackets, when `_float_rows` takes them; else None.

    Reports are mostly lists of floats, long ones and lists of [re, im]
    pairs; one %-format over the whole list gives the same text as
    format_float on each float, at a fraction of the cost.
    """
    rows = _float_rows(items)
    if rows is None:
        return None
    floats, suffixes = rows
    floats = _finite_floats(floats)
    item = ",".join(["%.12g"] * len(suffixes))
    if suffixes != [""]:
        item = f"[{item}]"
    return ",".join([item] * (len(floats) // len(suffixes))) % tuple(floats)


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


def _flatten(obj, prefix: str, rows: list[tuple[str, str | tuple[list, list[str]]]]) -> None:
    """Append a (label, rendered value) row for every leaf of obj, and one
    (label prefix, `_float_rows` pair) row for every list of Python floats
    or of equal-length lists of them; the renderers print such a list in
    one block."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        block = _float_rows(obj)
        if block is not None:
            rows.append((prefix, block))
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


def _block(template: str, floats: list, per: int, start: int = 0) -> str:
    """`template % (index, float, index, float, ...)` for every item of a
    `_float_rows` block, one item of `per` floats after another, from one
    %-format call; the template holds an index and a float for each of the
    item's floats, and indices count from `start`. Floats are finite."""
    indices = range(start, start + len(floats) // per)
    args = [0] * (2 * len(floats))
    args[::2] = indices if per == 1 else chain.from_iterable(zip(*[indices] * per))
    args[1::2] = floats
    return "\n".join([template] * len(indices)) % tuple(args)


def _csv_field(text: str) -> str:
    """The field quoted as RFC 4180 asks when it holds a comma, a quote or
    a line break, which would otherwise split its row."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def dumps_csv(report: dict) -> str:
    """Flat label,value rows; lists are indexed, nesting is dotted."""
    rows: list[tuple[str, str | tuple[list, list[str]]]] = []
    _flatten(report, "", rows)
    lines = ["label,value"]
    for label, value in rows:
        if isinstance(value, str):
            lines.append(f"{_csv_field(label)},{_csv_field(value)}")
            continue
        floats, suffixes = value
        # "[%d]" and the suffixes hold no comma, quote or line break, so
        # each label quotes as its prefix does
        escaped = label.replace("%", "%%") + "[%d]"
        template = "\n".join(_csv_field(escaped + suffix) + ",%.12g" for suffix in suffixes)
        lines.append(_block(template, _finite_floats(floats), len(suffixes)))
    return "\n".join(lines) + "\n"


# each character at which str.splitlines breaks a line, and its escape
_LINE_BREAKS = str.maketrans({
    "\n": "\\n", "\r": "\\r", "\x0b": "\\x0b", "\x0c": "\\x0c", "\x1c": "\\x1c",
    "\x1d": "\\x1d", "\x1e": "\\x1e", "\x85": "\\x85", "\u2028": "\\u2028", "\u2029": "\\u2029",
})


def one_line(text: str) -> str:
    """The text with each line break written as an escape (`\\r`, `\\n`,
    `\\x0b`, ..., `\\u2029`), so that it prints as one line."""
    # every line break is unprintable, and most text is printable
    return text if text.isprintable() else text.translate(_LINE_BREAKS)


def _label_width(label: str, value: str | tuple[list, list[str]]) -> int:
    if isinstance(value, str):
        return len(label)
    floats, suffixes = value
    last = len(floats) // len(suffixes) - 1
    return len(label) + len(str(last)) + 2 + len(suffixes[-1])  # the longest label


def dumps_table(report: dict) -> str:
    """Aligned two-column text for terminals, one line per value."""
    rows: list[tuple[str, str | tuple[list, list[str]]]] = []
    _flatten(report, "", rows)
    rows = [(one_line(label), one_line(value) if isinstance(value, str) else value)
            for label, value in rows]
    width = max((_label_width(label, value) for label, value in rows), default=0)
    lines = []
    for label, value in rows:
        if isinstance(value, str):
            lines.append(f"{label.ljust(width)}  {value}")
            continue
        floats, suffixes = value
        floats = _finite_floats(floats)
        per = len(suffixes)
        count = len(floats) // per
        escaped = label.replace("%", "%%")
        start, digits = 0, 1
        while start < count:  # one template per index width
            stop = min(10**digits, count)
            template = "\n".join(
                f"{escaped}[%d]{suffix}{' ' * (width - len(label) - digits - 2 - len(suffix))}  %.12g"
                for suffix in suffixes
            )
            lines.append(_block(template, floats[start * per:stop * per], per, start))
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
