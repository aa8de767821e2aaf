import csv
import io
import json

import numpy as np
import pytest

from tfuprob.errors import ValidationError
from tfuprob.report import dumps_canonical, dumps_csv, dumps_table, format_float, one_line, render


def test_float_formatting():
    assert format_float(0.25) == "0.25"
    assert format_float(-0.25) == "-0.25"
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"  # sign of zero normalized
    assert format_float(1 / 3) == "0.333333333333"
    with pytest.raises(ValidationError, match="NaN"):
        format_float(float("nan"))
    with pytest.raises(ValidationError, match="NaN or infinite"):
        format_float(float("inf"))


def test_canonical_keys_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": {"z": True, "y": None}})
    assert text == '{"a":{"y":null,"z":true},"b":1}\n'


def test_canonical_round_trip_is_idempotent():
    report = {
        "nested": {"x": 0.5, "list": [1, 2.5, "three", False]},
        "unicode": "θ = π/4",
        "zero": 0.0,
    }
    once = dumps_canonical(report)
    again = dumps_canonical(json.loads(once))
    assert once == again
    # non-ascii escapes keep the stream ascii-only
    assert once == once.encode("ascii", errors="strict").decode()


def test_numpy_scalars_normalized():
    text = dumps_canonical({"f": np.float64(0.5), "i": np.int64(3), "b": np.bool_(True)})
    assert json.loads(text) == {"f": 0.5, "i": 3, "b": True}


def test_unserializable_values_rejected():
    with pytest.raises(ValidationError, match="cannot serialize"):
        dumps_canonical({"x": object()})
    with pytest.raises(ValidationError, match="keys must be strings"):
        dumps_canonical({1: "one"})


def test_csv_flattens_and_quotes():
    text = dumps_csv({"pairs": {"p,q": {"|p&q|": 0.25}}, "ok": True})
    lines = text.splitlines()
    assert lines[0] == "label,value"
    assert '"pairs.p,q.|p&q|",0.25' in lines
    assert "ok,true" in lines


def test_csv_quotes_fields_that_hold_a_line_break():
    report = {"a\nb": {"v": 0.5, "s": "x\r\ny"}, "k\r": [0.25, 0.5], "pairs": [[0.5, 1.0]]}
    rows = list(csv.reader(io.StringIO(dumps_csv(report), newline="")))
    assert all(len(row) == 2 for row in rows)
    assert dict(rows[1:]) == {
        "a\nb.s": "x\r\ny", "a\nb.v": "0.5", "k\r[0]": "0.25", "k\r[1]": "0.5",
        "pairs[0][0]": "0.5", "pairs[0][1]": "1",
    }


def test_table_writes_line_breaks_as_escapes():
    report = {"a\nb": {"v": 0.5, "s": "x\r\ny"}, "k\r": [0.25, 0.5]}
    assert dumps_table(report).splitlines() == [
        "a\\nb.s  x\\r\\ny", "a\\nb.v  0.5", "k\\r[0]  0.25", "k\\r[1]  0.5",
    ]


@pytest.mark.parametrize("char, escape", [
    ("\n", "\\n"), ("\r", "\\r"), ("\x0b", "\\x0b"), ("\x0c", "\\x0c"), ("\x1c", "\\x1c"),
    ("\x1d", "\\x1d"), ("\x1e", "\\x1e"), ("\x85", "\\x85"), ("\u2028", "\\u2028"),
    ("\u2029", "\\u2029"),
])
def test_one_line_escapes_every_line_break_of_splitlines(char, escape):
    assert one_line(f"a{char}b") == f"a{escape}b"
    assert f"a{char}b".splitlines() == ["a", "b"]
    assert dumps_table({f"k{char}": "v", "s": f"x{char}"}).splitlines() == [
        f"k{escape}  v", f"s{' ' * len(escape)}  x{escape}"]


def test_one_line_keeps_other_text():
    for text in ("plain", "θ = π/4", "tab\there", "nul\x00", "\x1f\x7f"):
        assert one_line(text) == text


def test_csv_indexes_lists():
    text = dumps_csv({"thetas": [0.0, 0.5]})
    assert "thetas[0],0" in text.splitlines()
    assert "thetas[1],0.5" in text.splitlines()


def test_table_alignment():
    text = dumps_table({"short": 1, "a much longer label": 2})
    lines = text.splitlines()
    # both value columns start in the same place
    starts = {line.rindex(" ") for line in lines}
    assert len(starts) == 1


def test_render_dispatch():
    report = {"x": 1}
    assert render(report, "structured") == dumps_canonical(report)
    assert render(report, "csv") == dumps_csv(report)
    assert render(report, "table") == dumps_table(report)
    with pytest.raises(ValidationError, match="unknown format"):
        render(report, "yaml")


# ---------------------------------------------------------------------------
# the bulk path for all-float lists against the per-item path

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -2.5, 1e-5, 123456789012345.0]
MIXED_LISTS = {
    "floats": EDGE_FLOATS,
    "tuple": tuple(EDGE_FLOATS),
    "ints": [0, -1, 2**70],
    "bools": [True, False, 0.5],
    "numpy": [np.float64(-0.0), np.float64(1 / 3), 0.25],
    "mixed": [1, 0.5, -0.0, None, "x,y"],
    "nested": [[0.25, -0.0], [[1e308], []], [1, 2.5]],
    "empty": [],
    "pairs": [[0.1, -0.2], [-0.0, 0.0], [5e-324, 1e308], [1 / 3, 2]],
    "single": [-0.0],
}


# The per-row csv and table renderers that printed one label and one
# format_float per leaf, kept as oracles for the block renderers.

def _oracle_flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _oracle_flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for pos, item in enumerate(obj):
            _oracle_flatten(item, f"{prefix}[{pos}]", rows)
    else:
        if isinstance(obj, np.generic):
            obj = obj.item()
        if isinstance(obj, bool):
            text = "true" if obj else "false"
        elif isinstance(obj, float):
            text = format_float(obj)
        else:
            text = "" if obj is None else str(obj)
        rows.append((prefix, text))


def _oracle_dumps_csv(report):
    rows = []
    _oracle_flatten(report, "", rows)
    lines = ["label,value"]
    for label, text in rows:
        if any(ch in text for ch in ',"\n\r'):
            text = '"' + text.replace('"', '""') + '"'
        if any(ch in label for ch in ',"\n\r'):
            label = '"' + label.replace('"', '""') + '"'
        lines.append(f"{label},{text}")
    return "\n".join(lines) + "\n"


def _oracle_dumps_table(report):
    rows = []
    _oracle_flatten(report, "", rows)
    # the table writes each character at which str.splitlines breaks a
    # line as its Python escape
    rows = [["".join(repr(ch)[1:-1] if len(f"a{ch}b".splitlines()) == 2 else ch for ch in text)
             for text in row] for row in rows]
    width = max((len(label) for label, _ in rows), default=0)
    return "\n".join(f"{label.ljust(width)}  {text}" for label, text in rows) + "\n"


def _render_per_item(report, fmt, monkeypatch):
    if fmt == "csv":
        return _oracle_dumps_csv(report)
    if fmt == "table":
        return _oracle_dumps_table(report)
    with monkeypatch.context() as m:
        m.setattr("tfuprob.report._joined_floats", lambda items: None)
        return render(report, fmt)


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
def test_bulk_float_lists_render_like_per_item(fmt, monkeypatch):
    report = {"lists": MIXED_LISTS, "pair": [0.5, -0.5], "deep": {"a,b": {"v": EDGE_FLOATS}}}
    assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch)


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
def test_bulk_floats_match_format_float_on_random_bits(fmt, monkeypatch):
    rng = np.random.default_rng(83)
    values = rng.integers(0, 2**63, size=4000, dtype=np.uint64).view(np.float64)
    values = [float(v) for v in values[np.isfinite(values)]]
    values += [float(v) for v in rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500)]
    report = {"values": values}
    assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch)
    if fmt == "structured":
        assert render(report, fmt) == "{\"values\":[" + ",".join(map(format_float, values)) + "]}\n"


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bulk_float_lists_reject_non_finite_like_format_float(fmt, bad):
    with pytest.raises(ValidationError) as want:
        format_float(bad)
    for items in ([bad], [0.5, bad], [bad, -0.0, 1.0]):
        with pytest.raises(ValidationError) as got:
            render({"x": items}, fmt)
        assert str(got.value) == str(want.value)


def test_bulk_path_takes_only_lists_of_python_floats():
    from tfuprob.report import _joined_floats

    assert _joined_floats(EDGE_FLOATS) == ",".join(map(format_float, EDGE_FLOATS))
    assert _joined_floats((0.5, -0.0)) == "0.5,0"
    for name in ("ints", "bools", "numpy", "mixed", "nested", "empty"):
        assert _joined_floats(MIXED_LISTS[name]) is None, name


def _floats(rng, size):
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    values[rng.random(size) < 0.1] = 0.0
    return [-0.0 if k % 7 == 3 else float(v) for k, v in enumerate(values)]


# one label per index width, on both sides of each power of ten
BLOCK_SIZES = (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_float_blocks_match_per_row_rendering(fmt, monkeypatch):
    rng = np.random.default_rng(89)
    labels = ["plain", "a,b", 'say "hi"', "100%", "%d%s%%", 'x,"%.12g"', "", "a\nb", "k\r", "k\x0b",
              "k\u2028"]
    for size in BLOCK_SIZES:
        for label in labels:
            report = {label: _floats(rng, size), "z": {"short": 0.5}}
            assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch), (size, label)
    # several blocks of different widths in one report share one column
    report = {
        "input": {"probs": _floats(rng, 1000), "pairs": [_floats(rng, 2) for _ in range(12)]},
        'q"x%d': {"a,b": _floats(rng, 10), "tail": tuple(_floats(rng, 101))},
        "results": {"p,q": {"|p&q|": 0.25, "-zero": -0.0, "ok": True, "none": None}},
        "empty": [],
        "mixed": [1, 0.5, "x,y", [[]], [-0.0]],
    }
    assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch)


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_empty_and_scalar_reports_match_per_row_rendering(fmt, monkeypatch):
    for report in ({}, {"x": []}, {"x": [[]]}, {"x": -0.0}, {"x": [-0.0]}, {"x": [[-0.0, 0.0]]}):
        assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch), report


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_float_blocks_reject_non_finite_anywhere(fmt, bad, monkeypatch):
    with pytest.raises(ValidationError) as want:
        format_float(bad)
    for pos in (0, 5, 99, 1000):
        items = [0.5] * 1001
        items[pos] = bad
        with pytest.raises(ValidationError) as got:
            render({"n": items, "nan": "label text with n"}, fmt)
        assert str(got.value) == str(want.value)
    # finite floats whose sum overflows are still finite
    big = {"x": [1e308, 1e308, -0.0]}
    assert render(big, fmt) == _render_per_item(big, fmt, monkeypatch)


# ---------------------------------------------------------------------------
# lists of equal-length float lists ([re, im] pairs of states and span rows)
# in one block, against the per-row oracles

PAIR_COUNTS = (0, 1, 9, 10, 11, 100, 1000)


def _chunks(flat, inner):
    return [flat[pos:pos + inner] for pos in range(0, len(flat), inner)]


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
def test_pair_lists_match_per_row_rendering(fmt, monkeypatch):
    rng = np.random.default_rng(101)
    for count in PAIR_COUNTS:
        # inner lists of 11 floats take two index widths inside one item
        for inner in (1, 2, 3, 11):
            items = _chunks(_floats(rng, count * inner), inner)
            for label in ("state", "a,b", 'q"%d'):
                report = {"input": {label: items, "tail": 0.5}, "z": [items[:1], []]}
                got = render(report, fmt)
                assert got == _render_per_item(report, fmt, monkeypatch), (count, inner, label)
    # a state and a span as a problem file echoes them, next to flat lists
    report = {
        "state": _chunks(_floats(rng, 128), 2),
        "vectors": [_chunks(_floats(rng, 128), 2) for _ in range(3)],
        "probs": _floats(rng, 12),
        "pairs": tuple((-0.0, 0.0) for _ in range(4)),
    }
    assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch)


PAIR_FALLBACKS = {
    "ragged": [[0.5, 1.0], [0.25]],
    "ragged-first": [[0.5], [0.25, 1.0]],
    "int": [[0.5, 1.0], [0.25, 1]],
    "bool": [[0.5, True], [0.25, 0.5]],
    "none": [[0.5, None], [0.25, 0.5]],
    "numpy": [[np.float64(0.5), 0.5], [0.25, -0.0]],
    "string": [[0.5, "x,y"], [0.25, 0.5]],
    "scalar-among-pairs": [[0.5, 1.0], 0.25],
    "empty-items": [[], []],
    "nested-deeper": [[[0.5], [1.0]], [[0.25], [-0.0]]],  # rows are blocks, the list is not
    "dict-items": [{"a": 0.5}, {"a": -0.0}],
}


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
def test_lists_that_are_not_pair_lists_render_per_item(fmt, monkeypatch):
    from tfuprob.report import _joined_floats

    for name, items in PAIR_FALLBACKS.items():
        assert _joined_floats(items) is None, name
        report = {"x": items, "long label": [[0.5, -0.0]] * 3}
        assert render(report, fmt) == _render_per_item(report, fmt, monkeypatch), name


def test_pair_lists_join_in_one_block():
    from tfuprob.report import _joined_floats

    assert _joined_floats([[0.5, -0.0], [1 / 3, 1e308]]) == "[0.5,0],[0.333333333333,1e+308]"
    assert _joined_floats(((0.25,),)) == "[0.25]"
    assert _joined_floats([(0.5, 0.25, -2.5)]) == "[0.5,0.25,-2.5]"


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_pair_lists_reject_non_finite_anywhere(fmt, bad):
    with pytest.raises(ValidationError) as want:
        format_float(bad)
    for pos in (0, 1, 19, 1999):
        flat = [0.5] * 2000
        flat[pos] = bad
        with pytest.raises(ValidationError) as got:
            render({"state": _chunks(flat, 2), "x": "label text"}, fmt)
        assert str(got.value) == str(want.value)
