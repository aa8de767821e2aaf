import json
from pathlib import Path

import numpy as np
import pytest

from tfuprob import problemfile
from tfuprob.errors import ProblemFileError, ValidationError
from tfuprob.quantum import MAX_DIM, QubitDirection
from tfuprob.problemfile import (
    MAX_CELLS,
    ClassicalProblem,
    QuantumProblem,
    TfuMeasureProblem,
    TfuTableProblem,
    WdeClassicalProblem,
    WdeQuantumProblem,
    WdeTfuSetsProblem,
    load_path,
    loads,
    parse_projector_spec,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

EXPECTED_TYPES = {
    "tfu_table.json": TfuTableProblem,
    "classical.json": ClassicalProblem,
    "tfu_measure.json": TfuMeasureProblem,
    "quantum.json": QuantumProblem,
    "wde_classical.json": WdeClassicalProblem,
    "wde_tfu_sets.json": WdeTfuSetsProblem,
    "wde_quantum.json": WdeQuantumProblem,
    "wde_shared.json": WdeQuantumProblem,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
def test_fixtures_parse(name):
    pf = load_path(str(FIXTURES / name))
    assert pf.version == 1
    assert isinstance(pf.problem, EXPECTED_TYPES[name])
    assert pf.raw == json.loads((FIXTURES / name).read_text())


def test_every_mode_has_a_fixture():
    modes = {load_path(str(FIXTURES / name)).mode for name in EXPECTED_TYPES}
    assert modes == {"tfu-table", "classical", "tfu-measure", "quantum", "wde"}


def test_load_path_missing_file():
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_path(str(FIXTURES / "does_not_exist.json"))


def test_loads_rejects_bad_json():
    with pytest.raises(ProblemFileError, match="not valid JSON"):
        loads("{")
    with pytest.raises(ProblemFileError, match="JSON object"):
        loads("[1, 2]")


def test_loads_rejects_wrong_version():
    with pytest.raises(ProblemFileError, match="version"):
        loads('{"version": 2, "mode": "classical", "n": 1, "probs": [1.0, 0.0]}')
    with pytest.raises(ProblemFileError, match="missing required field 'version'"):
        loads('{"mode": "classical"}')


def test_loads_rejects_unknown_mode():
    with pytest.raises(ProblemFileError, match="unknown mode"):
        loads('{"version": 1, "mode": "astrology"}')


def test_tfu_table_list_and_mapping_forms():
    as_map = loads(
        '{"version": 1, "mode": "tfu-table", "n": 1, "values": {"+": "T", "-": "F"}}'
    )
    as_list = loads('{"version": 1, "mode": "tfu-table", "n": 1, "values": ["T", "F"]}')
    assert as_map.problem.table.values == as_list.problem.table.values


def test_tfu_table_domain_errors_are_validation():
    # structurally fine, semantically inconsistent: two manifestly true states
    with pytest.raises(ValidationError, match="more than one"):
        loads('{"version": 1, "mode": "tfu-table", "n": 1, "values": ["T", "T"]}')


def test_classical_list_length_checked():
    with pytest.raises(ProblemFileError, match="expected 4"):
        loads('{"version": 1, "mode": "classical", "n": 2, "probs": [0.5, 0.5]}')


@pytest.mark.parametrize(
    "mode, field, entry, base, largest",
    [
        ("tfu-table", "values", {"+" * 20: "F"}, 2, 20),
        ("classical", "probs", {"+" * 20: 1.0}, 2, 20),
        ("tfu-measure", "measures", {"T" * 12: 1.0}, 3, 12),
    ],
)
def test_n_is_capped_by_cell_count(mode, field, entry, base, largest):
    assert base**largest <= MAX_CELLS < base ** (largest + 1)
    ok = {"version": 1, "mode": mode, "n": largest, field: entry}
    assert loads(json.dumps(ok)).problem
    for n in (largest + 1, 10**9):  # 10**9 must not build base**n first
        want = f"n={n} needs {base}\\^{n} cells, over the limit of {MAX_CELLS}"
        with pytest.raises(ValidationError, match=want):
            loads(json.dumps({**ok, "n": n}))


@pytest.mark.parametrize("mode", ["quantum", "wde"])
def test_state_is_capped_at_max_dim(mode):
    def payload(dim):
        state = [1.0] + [0.0] * (dim - 1)
        mask = {"type": "diagonal", "mask": [1] * dim}
        if mode == "quantum":
            return {"version": 1, "mode": mode, "state": state, "projectors": {"P": mask}}
        return {"version": 1, "mode": mode, "variant": "quantum", "protocol": "shared",
                "state": state, "projectors": {"a": mask, "b": mask, "c": mask}}

    assert loads(json.dumps(payload(MAX_DIM))).problem.state.dim == MAX_DIM
    want = f"{mode}: state has {2 * MAX_DIM} amplitudes, over the limit of {MAX_DIM}"
    with pytest.raises(ValidationError, match=want):
        loads(json.dumps(payload(2 * MAX_DIM)))


def test_amplitude_pairs():
    pf = loads(
        '{"version": 1, "mode": "quantum",'
        ' "state": [[0.0, 1.0], 0.0],'
        ' "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}}'
    )
    np.testing.assert_allclose(pf.problem.state.amplitudes, [1j, 0.0])
    with pytest.raises(ProblemFileError, match="re, im"):
        loads(
            '{"version": 1, "mode": "quantum", "state": [[1.0, 0.0, 0.0], 0.0],'
            ' "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}}'
        )


def test_quantum_needs_projectors():
    with pytest.raises(ProblemFileError, match="at least one projector"):
        loads('{"version": 1, "mode": "quantum", "state": [1.0, 0.0], "projectors": {}}')


def test_projector_spec_errors():
    with pytest.raises(ProblemFileError, match="unknown projector type"):
        parse_projector_spec({"type": "oracle"}, "here", dim=2)
    with pytest.raises(ProblemFileError, match="must be an object"):
        parse_projector_spec([1, 0], "here", dim=2)
    with pytest.raises(ProblemFileError, match="missing required field 'theta'"):
        parse_projector_spec({"type": "qubit-direction"}, "here", dim=2)
    with pytest.raises(ProblemFileError, match="dim"):
        parse_projector_spec({"type": "diagonal", "mask": [1, 0]}, "here", dim=4)
    with pytest.raises(ProblemFileError, match="mask has dim 0, expected 2"):
        parse_projector_spec({"type": "diagonal", "mask": []}, "here", dim=2)
    with pytest.raises(ProblemFileError, match="non-empty list of 0/1 values"):
        parse_projector_spec({"type": "diagonal", "mask": [1, 2]}, "here", dim=2)
    with pytest.raises(ValidationError, match="here: projector dim 3 does not match required 2"):
        parse_projector_spec({"type": "subspace", "vectors": [[1, 0, 0]]}, "here", dim=2)


def test_subspace_projector_spec():
    proj = parse_projector_spec(
        {"type": "subspace", "vectors": [[1.0, [0.0, 1.0]]]}, "here", dim=2
    )
    # span of (1, i)/sqrt(2)
    want = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
    np.testing.assert_allclose(proj.matrix, want, atol=1e-12)


def test_wde_tfu_sets_items():
    pf = loads(
        '{"version": 1, "mode": "wde", "variant": "tfu-sets",'
        ' "items": [{"tags": "TUT"}, {"tags": "tft", "weight": 2.5}]}'
    )
    pop = pf.problem.population
    assert len(pop.items) == 2
    np.testing.assert_allclose(pop.weights, [1.0, 2.5])
    with pytest.raises(ProblemFileError, match="three letters"):
        loads(
            '{"version": 1, "mode": "wde", "variant": "tfu-sets",'
            ' "items": [{"tags": "TU"}]}'
        )


def test_wde_quantum_requires_some_content():
    with pytest.raises(ProblemFileError, match="directions, projectors, or a grid"):
        loads(
            '{"version": 1, "mode": "wde", "variant": "quantum",'
            ' "protocol": "paired", "state": [1.0, 0.0, 0.0, 0.0]}'
        )


def test_wde_quantum_projectors_need_shared_protocol():
    with pytest.raises(ProblemFileError, match="shared protocol"):
        loads(
            '{"version": 1, "mode": "wde", "variant": "quantum",'
            ' "protocol": "paired", "state": [1.0, 0.0, 0.0, 0.0],'
            ' "projectors": {"a": {"type": "diagonal", "mask": [1, 1, 0, 0]},'
            '  "b": {"type": "diagonal", "mask": [1, 0, 1, 0]},'
            '  "c": {"type": "diagonal", "mask": [1, 0, 0, 1]}}}'
        )


def test_wde_quantum_single_grid_fans_out():
    pf = loads(
        '{"version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",'
        ' "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],'
        ' "grid": {"start": 0.0, "stop": 1.5, "step": 0.5}}'
    )
    assert len(pf.problem.grids) == 3
    assert all(g == pf.problem.grids[0] for g in pf.problem.grids)


_WDE_BASE = {"version": 1, "mode": "wde", "variant": "quantum", "protocol": "shared",
             "state": [1.0, 0.0, 0.0, 0.0]}
_WDE_DIRECTIONS = {"a": {"theta": 0.1}, "b": {"theta": 0.2, "phi": 0.5}, "c": {"theta": 0.3}}
_WDE_GRID = {"start": 0, "stop": 1, "step": 1}


def test_wde_quantum_tests_are_directions_or_shared_projectors():
    problem = loads(json.dumps({**_WDE_BASE, "directions": _WDE_DIRECTIONS})).problem
    assert problem.tests == (QubitDirection(0.1), QubitDirection(0.2, 0.5), QubitDirection(0.3))
    masks = {name: {"type": "diagonal", "mask": [1, 0, 0, 1]} for name in "abc"}
    problem = loads(json.dumps({**_WDE_BASE, "projectors": masks})).problem
    assert [p.dim for p in problem.tests] == [4, 4, 4]
    assert loads(json.dumps({**_WDE_BASE, "grid": _WDE_GRID})).problem.tests is None


@pytest.mark.parametrize(
    "fields, ordering",
    [({}, "symmetrized"), ({"ordering": None}, "symmetrized"),
     ({"ordering": "sequential"}, "sequential"), ({"ordering": "symmetrized"}, "symmetrized")],
)
def test_wde_quantum_ordering_is_always_a_name(fields, ordering):
    payload = {**_WDE_BASE, "directions": _WDE_DIRECTIONS, **fields}
    assert loads(json.dumps(payload)).problem.ordering == ordering


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"directions": []}, "wde: field 'directions' has type list, expected dict"),
        ({"directions": {"a": {"theta": 0}, "c": {"theta": 0}}},
         "wde.directions: missing required field 'b'"),
        ({"directions": {**_WDE_DIRECTIONS, "c": {}}},
         "wde.directions.c: missing required field 'theta'"),
        ({"projectors": {"a": {"type": "diagonal", "mask": [1, 0, 0, 0]}}},
         "wde.projectors: missing required field 'b'"),
        ({"projectors": {name: {"type": "diagonal", "mask": [1, 0]} for name in "abc"}},
         "wde.projectors.a: diagonal mask has dim 2, expected 4"),
        ({"grids": "x"}, "wde: field 'grids' has type str, expected dict"),
        ({"grids": {"a": _WDE_GRID, "b": _WDE_GRID}}, "wde.grids: missing required field 'c'"),
        ({"grids": {"a": _WDE_GRID, "b": [], "c": []}}, "wde.grids.b: grid must be an object"),
    ],
)
def test_wde_quantum_abc_fields_name_their_path(fields, message):
    with pytest.raises(ProblemFileError) as excinfo:
        loads(json.dumps({**_WDE_BASE, **fields}))
    assert str(excinfo.value) == message


def test_wde_quantum_unknown_protocol_and_ordering():
    base = (
        '{"version": 1, "mode": "wde", "variant": "quantum", "protocol": "%s",'
        ' "state": [1.0, 0.0], "ordering": %s,'
        ' "grid": {"start": 0, "stop": 1, "step": 1}}'
    )
    with pytest.raises(ProblemFileError, match="unknown protocol"):
        loads(base % ("osmosis", "null"))
    with pytest.raises(ProblemFileError, match="unknown ordering"):
        loads(base % ("shared", '"shuffled"'))


@pytest.mark.parametrize("mode, field", [("classical", "probs"), ("tfu-measure", "measures")])
def test_number_lists_checked_item_by_item_unless_all_floats(mode, field):
    size = 2 if mode == "classical" else 3
    floats = [0.5, 0.5] + [0.0] * (size - 2)
    base = {"version": 1, "mode": mode, "n": 1}
    problem = loads(json.dumps({**base, field: floats})).problem
    got = problem.distribution.probs if mode == "classical" else problem.assignment.measures
    assert got.dtype == np.float64 and got.tolist() == floats
    mixed = [1, 0] + [0] * (size - 2)
    problem = loads(json.dumps({**base, field: mixed})).problem
    got = problem.distribution.probs if mode == "classical" else problem.assignment.measures
    assert got.dtype == np.float64 and got.tolist() == mixed
    for bad in (True, "0.5", None, [0.5]):
        with pytest.raises(ProblemFileError, match="expected a number"):
            loads(json.dumps({**base, field: [0.5, bad] + [0.0] * (size - 2)}))


def _per_item_amplitudes(values, where):
    """The per-amplitude reading every list took before [re, im] pairs of
    floats were converted in bulk."""
    return np.array([problemfile._amplitude(v, where) for v in values], dtype=complex)


def test_float_pairs_convert_in_bulk_to_the_bits_of_complex():
    rng = np.random.default_rng(31)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3]
    for trial in range(200):
        size = int(rng.integers(1, 300))
        bits = rng.integers(0, 2**63, size=2 * size, dtype=np.uint64)
        floats = bits.view(float)
        floats = np.where(np.isfinite(floats), floats, 0.5).tolist()
        if trial % 5 == 0:
            floats[: len(specials)] = specials[: 2 * size]
        pairs = [floats[k:k + 2] for k in range(0, 2 * size, 2)]
        got = problemfile._amplitudes(pairs, "here")
        want = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        assert got.dtype == np.complex128 and got.shape == (size,)
        assert got.tobytes() == want.tobytes() == _per_item_amplitudes(pairs, "here").tobytes()


@pytest.mark.parametrize(
    "values",
    [
        [[1, 0], [0, 0]],  # ints
        [[0.5, 0.0], [0, 0.5]],  # an int in a pair
        [[0.5, 0.0], 0.5],  # a bare number among pairs
        [0.5, 0.25],  # bare numbers
        [[0.5, 0.0], [0.5, 0.0], []],  # ragged
        [[0.5, 0.0], [0.5, True]],  # a bool
        [[0.5, 0.0], [0.5, "0"]],  # a string
        [[0.5, 0.0], [[0.5], 0.0]],  # nested
        [[0.5, 0.0, 0.0]],  # a triple
        [],
    ],
)
def test_other_amplitude_lists_are_read_item_by_item(values):
    try:
        want = _per_item_amplitudes(values, "here")
    except ProblemFileError as exc:
        with pytest.raises(ProblemFileError) as got:
            problemfile._amplitudes(values, "here")
        assert str(got.value) == str(exc)
    else:
        assert problemfile._amplitudes(values, "here").tobytes() == want.tobytes()
