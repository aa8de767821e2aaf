"""Property tests of the exit-code contract on mutated problem files.

Each example takes one fixture, picks a random path into its JSON tree and
either deletes the value there or replaces it with one from a pool of
awkward values (float extremes, large integers, nested lists, bools,
strings). Whatever the mutant, loading it either succeeds or raises one of
the package's errors, and `eval` and `search` in every format either
succeed with nothing on stderr or exit 2-5 with exactly one stderr line.

The examples are derandomized and kept in no example database, so every
run checks the same mutants. The fixtures have 3159 distinct single
mutations; a random sweep that reached every one of them found no breach.
"""

import contextlib
import copy
import io
import json
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


@settings(FIXED, max_examples=400)
@given(text=mutants())
def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(text)
    for verb in ("eval", "search"):
        for fmt in ("structured", "csv", "table"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([verb, str(path), "--format", fmt])
            # a warning would reach stderr outside this test's capture
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            if code == 0:
                assert lines == [], (verb, fmt, text)
            else:
                assert 2 <= code <= 5 and len(lines) == 1, (verb, fmt, text, code, lines)
                assert out.getvalue() == "", (verb, fmt, text)


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
