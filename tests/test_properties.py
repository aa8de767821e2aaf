"""Property tests of the exit-code contract on mutated and generated
problem files.

Each mutant takes one fixture, picks a random path into its JSON tree and
either deletes the value there or replaces it with one from a pool of
awkward values (float extremes, large integers, nested lists, bools,
strings). Whatever the mutant, loading it either succeeds or raises one of
the package's errors, and `eval` and `search` in every format either
succeed with nothing on stderr or exit 2-5 with exactly one stderr line.

Generated files are built whole, for each mode and each kind of fault: a
clean file, unknown fields, a wrong version or mode, a missing field, junk
of random type and nesting depth in place of a field or inside one, `+-`
and `TFU` keys of either case and of the wrong length or with a stray
letter, lists one too long or short, `n` below 1 or past its cap, values
out of their domain, and an invalid flag. Each runs once with random
`--format`, `--ordering`, `--tolerance` and (for `search`) `--grid-step`
flags, under the same contract. Files whose `n` is at its cap are only
loaded: evaluating one takes seconds.

The examples are derandomized and kept in no example database, so every
run checks the same files. The fixtures have 3159 distinct single
mutations; a random sweep that reached every one of them found no breach.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfuprob import cli, problemfile
from tfuprob.errors import TfuProbError
from tfuprob.wde import AngleGrid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TREES = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}

POOL = (
    1e308, -1e308, float("inf"), float("nan"), 10 ** 400, 4096, 0, -1, 0.5, 1.5,
    True, False, None, "", "x", "T", "+-", [], [0], [1, 0], [[1, 0]], [[[]]],
    [1e308, 1e308], [0.5, [1]], {}, {"a": 1},
)

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _paths(tree, prefix=()):
    """Every path below the root of a JSON tree, parents before children."""
    children = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(tree)) for name, tree in TREES.items()}


@st.composite
def mutants(draw) -> str:
    name = draw(st.sampled_from(sorted(TREES)))
    tree = copy.deepcopy(TREES[name])
    path = draw(st.sampled_from(PATHS[name]))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(POOL))
    return json.dumps(tree)


# the library leaves numpy's overflow warnings on; only the command line
# silences them (checked below)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(FIXED, max_examples=500)
@given(text=mutants())
def test_mutated_fixtures_load_or_raise_a_package_error(text):
    try:
        problemfile.loads(text)
    except TfuProbError:
        pass


def _assert_contract(argv: list[str], text: str) -> None:
    """Exit 0 with nothing on stderr, or exit 2-5 with one stderr line and
    nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    # a warning would reach stderr outside this test's capture
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == 0:
        assert lines == [], (argv, text)
    else:
        assert 2 <= code <= 5 and len(lines) == 1, (argv, text, code, lines)
        assert out.getvalue() == "", (argv, text)


@settings(FIXED, max_examples=400)
@given(text=mutants())
def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(text)
    for verb in ("eval", "search"):
        for fmt in ("structured", "csv", "table"):
            _assert_contract([verb, str(path), "--format", fmt], text)


@FIXED
@given(
    start=st.floats(-1e3, 1e3),
    span=st.floats(0.0, 1e3),
    step=st.floats(1e-3, 1e3),
)
def test_grid_points_count_the_grid_values(start, span, step):
    grid = AngleGrid(start, start + span, step)
    values = grid.values()
    assert grid.points == values.size >= 1
    assert values[0] == start


# A generated file carries at most one kind of fault, named in FAULTS, and
# every draw of that kind in the file is faulty; all else is drawn from
# valid values. A clean file may still fail a domain check: a tfu table
# with two true states, a state of the wrong dimension for its protocol.
# Each (mode, fault) pair runs its own examples, so no fault depends on
# how often hypothesis happens to draw it.
FAULTS = (
    "none",
    "unknown-fields",  # extra top-level fields, which are ignored
    "version-or-mode",  # a wrong or junk version or mode
    "missing-field",  # one required field left out
    "junk-field",  # one field replaced by junk of random type and depth
    "junk-inside",  # list items and object values replaced by junk
    "key-length",  # state or cell keys a letter short or long
    "key-letters",  # a stray letter in state or cell keys
    "list-length",  # value, state, mask and vector lists one too long or short
    "bad-n",  # n of the wrong type, below 1 or past its cap
    "bad-values",  # out-of-domain numbers, tags, names and types
    "bad-flag",  # one flag with an invalid value
)
# the faults that can change a file of each mode
MODE_FAULTS = {
    "tfu-table": FAULTS,
    "classical": FAULTS,
    "tfu-measure": FAULTS,
    "quantum": tuple(f for f in FAULTS if f not in ("key-length", "key-letters", "bad-n")),
    "wde": tuple(f for f in FAULTS if f != "bad-n"),
}
H = math.sqrt(0.5)
PI = math.pi
JUNK = (None, True, -1, 0, 1.5, 1e308, 10 ** 400, float("nan"), "", "x", [], {}, [[]],
        [[[0.5]]], {"a": [1, {"b": []}]}, [1, [0, [1.0]]])
UNKNOWN = ("extra", "N", "Version", "probs", "state", "items", "grid")
CAPS = {"tfu-table": 20, "classical": 20, "tfu-measure": 12}
STATES = ([0.0, H, -H, 0.0], [1.0, 0.0], [H, H], [[H, 0.0], [0.0, H]], [0.6, 0.8, 0.0, 0.0],
          [1, 0, 0, 0], [[0.5, 0.0]] * 4, [[0.5, 0.0], 0.5, [0.0, 0.5], -0.5],
          [0.0] * 7 + [1.0])
NUMBERS = (1, 0, 0.0, 0.5, 1.0, 0.25, 2.0, 1e-300, 1e300, PI)


def _pick(fault: str, kind: str, valid, invalid=JUNK):
    """One of the valid values, or of the invalid ones in a file whose
    fault is `kind`."""
    return st.sampled_from(invalid if fault == kind else valid)


def _junk_inside(fault: str, values):
    """Values of the strategy, or junk in a file whose fault is junk-inside."""
    return st.sampled_from(JUNK) if fault == "junk-inside" else values


def _off_by_one(fault: str, kind: str):
    return st.sampled_from((1, -1)) if fault == kind else st.just(0)


@st.composite
def _key(draw, fault: str, alphabet: str, n: int) -> str:
    """n letters from the alphabet, in either case."""
    size = max(min(int(n), 24) + draw(_off_by_one(fault, "key-length")), 0)
    letters = draw(st.lists(st.sampled_from(alphabet + alphabet.lower()),
                            min_size=size, max_size=size))
    if fault == "key-letters" and letters:
        letters[draw(st.integers(0, size - 1))] = draw(st.sampled_from("x ?"))
    return "".join(letters)


@st.composite
def _cells(draw, fault: str, n: int, alphabet: str, values, base: int):
    """A mapping of keys to values, or a list of base^n values."""
    values = _junk_inside(fault, values)
    if draw(st.booleans()):
        return draw(st.dictionaries(_key(fault, alphabet, n), values, min_size=1, max_size=4))
    size = max(base ** min(max(int(n), 0), 4) + draw(_off_by_one(fault, "list-length")), 0)
    return draw(st.lists(values, min_size=size, max_size=size))


@st.composite
def _distribution(draw, fault: str, n: int):
    """Probabilities over 2^n states that sum to 1, as a list or a mapping
    of their nonzero entries; with bad values, any numbers."""
    if fault in ("key-length", "key-letters", "list-length", "junk-inside", "bad-values"):
        return draw(_cells(fault, n, "+-", _pick(fault, "bad-values", NUMBERS, (-0.25, 2.0)), 2))
    m = min(max(int(n), 0), 4)  # past 4, n is wrong anyway
    weights = draw(st.lists(st.integers(0, 3), min_size=2 ** m, max_size=2 ** m))
    if not any(weights):
        weights = [1] * 2 ** m
    probs = [w / sum(weights) for w in weights]
    if draw(st.booleans()):
        return probs
    keys = ["".join("+-"[(s >> (m - 1 - k)) & 1] for k in range(m)) for s in range(2 ** m)]
    return {key: p for key, p in zip(keys, probs) if p}


def _tfu_table(fault, n):
    values = _pick(fault, "bad-values", ("U", "T", "F", "U"), ("u", "X", "", 1, None))
    return {"n": st.just(n), "values": _cells(fault, n, "+-", values, 2)}


def _classical(fault, n):
    return {"n": st.just(n), "probs": _distribution(fault, n)}


def _tfu_measure(fault, n):
    values = _pick(fault, "bad-values", NUMBERS, (-0.25, "1", None, True))
    return {"n": st.just(n), "measures": _cells(fault, n, "TFU", values, 3)}


def _rows(fault: str, dim: int):
    """One to three amplitude vectors of the given dimension."""
    amplitudes = _pick(fault, "bad-values", (0.5, 1.0, 0, -0.5, [0.5, 0.5], [0, 1]),
                       ([1.0], True, "x", [0.5, 0.5, 0.5]))
    row = _off_by_one(fault, "list-length").flatmap(
        lambda d: st.lists(_junk_inside(fault, amplitudes), min_size=dim + d, max_size=dim + d))
    return st.lists(row, min_size=1, max_size=3)


def _spec(fault: str, dim: int):
    """A projector spec of each type with its own fields."""
    n_factors = max(dim.bit_length() - 1, 1)
    mask = _off_by_one(fault, "list-length").flatmap(lambda d: st.lists(
        _junk_inside(fault, _pick(fault, "bad-values", (0, 1, 1.0), (2, True, 0.5))),
        min_size=dim + d, max_size=dim + d))
    qubit = {
        "phi": _pick(fault, "bad-values", NUMBERS, ("0", None)),
        "factor": _pick(fault, "bad-values", tuple(range(n_factors)), (-1, 5, 1.0)),
        "n_factors": _pick(fault, "bad-values", (n_factors,), (0, 11, n_factors + 1)),
    }
    return st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("qubit-direction"), "theta": _pick(fault, "bad-values", NUMBERS)},
            optional=qubit),
        st.fixed_dictionaries({"type": _pick(fault, "bad-values", ("diagonal",), ("Diagonal",)),
                               "mask": mask}),
        st.fixed_dictionaries({"type": _pick(fault, "bad-values", ("subspace",), ("span",)),
                               "vectors": _rows(fault, dim)}),
    )


@st.composite
def _state(draw, fault: str) -> list:
    state = draw(st.sampled_from(STATES))
    if fault == "list-length":
        return state + [0.0] if draw(st.booleans()) else state[:-1]
    if fault == "bad-values":
        return draw(st.sampled_from(([H, 0], [[H, 0.0, 0.0], H], ["1", 0], [2.0, 0.0])))
    return [draw(_junk_inside(fault, st.just(a))) for a in state]


def _quantum(fault, state):
    dim = max(len(state), 2)
    names = st.sampled_from(("P", "Q", "R", "a"))
    projectors = st.dictionaries(names, _junk_inside(fault, _spec(fault, dim)),
                                 min_size=1, max_size=3)
    return {"state": st.just(state), "projectors": projectors}


def _abc(fault: str, values):
    """Values under "a", "b" and "c"."""
    return st.fixed_dictionaries({name: _junk_inside(fault, values) for name in "abc"})


def _grid(fault: str):
    return st.fixed_dictionaries({
        "start": _pick(fault, "bad-values", (0.0, 0.5), (4.0, "0")),
        "stop": _pick(fault, "bad-values", (PI / 2, PI, 2 * PI), (1e6, -1.0)),
        "step": _pick(fault, "bad-values", (PI / 4, 0.5, 0.25, 1.0), (1e-9, 0, -0.5)),
    })


def _wde(fault, state):
    dim = max(len(state), 2)
    tags = _pick(fault, "bad-values", ("TUT", "TTT", "FFU", "UFT", "tft"), ("TT", "TFUT", "XYZ"))
    if fault == "list-length":
        tags = st.sampled_from(("TT", "TFUT"))
    item = st.fixed_dictionaries(
        {"tags": tags}, optional={"weight": _pick(fault, "bad-values", NUMBERS, (-0.25, "1"))})
    direction = st.fixed_dictionaries(
        {"theta": _pick(fault, "bad-values", NUMBERS, ("0", None))},
        optional={"phi": _pick(fault, "bad-values", NUMBERS, ("0", None))})
    variants = ("quantum", "quantum", "classical", "tfu-sets")
    return {
        "variant": _pick(fault, "bad-values", variants, ("Quantum", "")),
        "probs": _distribution(fault, 3),
        "items": st.lists(_junk_inside(fault, item), min_size=1, max_size=4),
        "state": st.just(state),
        "protocol": _pick(fault, "bad-values", ("paired", "shared"), ("both",)),
        "ordering": _pick(fault, "bad-values", ("symmetrized", "sequential", None), ("random",)),
        "factor": _pick(fault, "bad-values", tuple(range(max(dim.bit_length() - 1, 1))), (-1, 7)),
        "directions": _abc(fault, direction),
        "projectors": _abc(fault, _spec(fault, dim)),
        "grid": _grid(fault),
        "grids": _abc(fault, _grid(fault)),
    }


# the fields a wde file may leave out
OPTIONAL = {"ordering", "factor", "directions", "projectors", "grid", "grids"}


@st.composite
def generated_files(draw, mode: str, fault: str, at_cap: bool = False) -> str:
    if mode in CAPS:
        cap = CAPS[mode]
        invalid_n = (0, -1, cap + 1, 64, 10 ** 6, True, 2.0)
        n = cap if at_cap else draw(_pick(fault, "bad-n", (1, 2, 3, 4), invalid_n))
        fields = {"tfu-table": _tfu_table, "classical": _classical,
                  "tfu-measure": _tfu_measure}[mode](fault, n)
    else:
        state = draw(_state(fault))
        fields = (_quantum if mode == "quantum" else _wde)(fault, state)
    tree = {"version": problemfile.VERSION, "mode": mode}
    if fault == "version-or-mode":
        key = draw(st.sampled_from(sorted(tree)))
        tree[key] = draw(st.sampled_from((0, 2, "1", mode.upper(), "") + JUNK))
    for key in sorted(fields):
        if mode != "wde" or key not in OPTIONAL or not draw(st.booleans()):
            tree[key] = draw(fields[key])
    if tree.get("protocol") == "paired":
        tree.pop("projectors", None)  # only the shared protocol takes them
    required = sorted(set(fields) - OPTIONAL)
    if fault == "missing-field":
        del tree[draw(st.sampled_from(required))]
    if fault == "junk-field":
        tree[draw(st.sampled_from(sorted(set(tree) - {"version", "mode"})))] = draw(
            st.sampled_from(JUNK))
    if fault == "unknown-fields":
        for key in draw(st.lists(st.sampled_from(UNKNOWN), min_size=1, max_size=3, unique=True)):
            tree.setdefault(key, draw(st.sampled_from(JUNK)))
    return json.dumps(tree)


# (valid, invalid) values of each flag; --grid-step belongs to search
FLAGS = {
    "--format": (("structured", "csv", "table"), ("xml",)),
    "--ordering": (("symmetrized", "sequential"), ("random",)),
    "--tolerance": (("1e-12", "0", "0.5"), ("-1", "nan", "x")),
    "--grid-step": (("0.5", "0.25", "1"), ("0", "-1", "inf", "1e-9", "x")),
}


@st.composite
def runs(draw, mode: str, fault: str) -> tuple[str, list[str]]:
    """A file of the mode, a verb, and about half of the flags. Search
    reads wde files only, so only wde files run it."""
    text = draw(generated_files(mode, fault))
    verb = draw(st.sampled_from(("eval", "search"))) if mode == "wde" else "eval"
    names = [flag for flag in FLAGS if verb == "search" or flag != "--grid-step"]
    flags = {flag: draw(st.sampled_from(FLAGS[flag][0]))
             for flag in draw(st.lists(st.sampled_from(names), unique=True))}
    if fault == "bad-flag":
        flag = draw(st.sampled_from(sorted(FLAGS)))
        flags[flag] = draw(st.sampled_from(FLAGS[flag][1] if flag in names else FLAGS[flag][0]))
    return text, [verb, *(item for pair in flags.items() for item in pair)]


@pytest.mark.parametrize("mode, fault", [(m, f) for m in problemfile.MODES for f in MODE_FAULTS[m]])
@settings(FIXED, max_examples=8)
@given(data=st.data())
def test_generated_files_keep_the_exit_code_contract(tmp_path_factory, mode, fault, data):
    text, (verb, *flags) = data.draw(runs(mode, fault))
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(text)
    _assert_contract([verb, str(path), *flags], text)


# a file whose n is at its mode's cap can take seconds to evaluate, so
# these are only loaded
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", sorted(CAPS))
@settings(FIXED, max_examples=12)
@given(data=st.data())
def test_generated_files_at_the_cap_load_or_raise_a_package_error(mode, data):
    fault = data.draw(st.sampled_from(("none", "key-length", "key-letters", "bad-values")))
    text = data.draw(generated_files(mode, fault, at_cap=True))
    try:
        problemfile.loads(text)
    except TfuProbError:
        pass
