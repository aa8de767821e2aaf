"""Property tests of the violation search on drawn states and grids.

A drawn wde quantum file holds a state (the singlet, or random amplitudes
on one to three qubits), a protocol, an ordering, a factor and one grid or
one grid per axis. The grids' steps include pi/3, pi/4 and pi/6, which put
mirror angles on the grid so that exact real ties exist, and their spans
reach past 2 pi, where the angles of a direction repeat.

* `search_violation`, with the scan's blocks forced small so that the
  bounded best-first walk runs, returns the dense score cube's first
  maximum: the cube of the same pair sheets, maximized by np.argmax.
* `search` and `eval` agree: `eval` of the file with the witness angles
  as its directions gives the witness triple, bit for bit in the library
  and byte for byte in the reports.
* The pair sheets of both protocols, in both orderings and on every
  factor, are finite for any finite angles and any unit state, so the
  scan's refusal of a NaN or an infinity is never reached from a search.

The examples are derandomized and kept in no example database, so every
run checks the same files.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfuprob import cli, kernels, problemfile, wde
from tfuprob.quantum import ComplexStateVector

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PI = math.pi
H = math.sqrt(0.5)
STEPS = (PI / 3, PI / 4, PI / 6, PI / 2, 2 * PI / 3, 2 * PI)
STARTS = (0.0, -PI, PI / 3, -2 * PI)
TRIPLE = ("ab", "not_b_c", "ac", "violation", "holds")


@st.composite
def _grid(draw) -> dict:
    step = draw(st.one_of(st.sampled_from(STEPS), st.floats(0.05, 2.0)))
    start = draw(st.one_of(st.sampled_from(STARTS), st.floats(-2 * PI, 2 * PI)))
    points = draw(st.integers(1, 24))
    return {"start": start, "stop": start + step * (points - 1), "step": step}


@st.composite
def _state(draw, qubits: int) -> list:
    if qubits == 2 and draw(st.booleans()):
        return [0.0, H, -H, 0.0]  # the singlet
    parts = st.one_of(st.integers(-2, 2).map(float), st.floats(-1.0, 1.0))
    amps = np.array(draw(st.lists(parts, min_size=2 << qubits, max_size=2 << qubits)))
    norm = np.linalg.norm(amps)
    if norm < 0.1:
        amps, norm = np.eye(2 << qubits)[0], 1.0
    return (amps / norm).reshape(-1, 2).tolist()


@st.composite
def search_files(draw) -> dict:
    protocol = draw(st.sampled_from(wde.PROTOCOLS))
    qubits = 2 if protocol == "paired" else draw(st.integers(1, 3))
    file = {
        "version": 1,
        "mode": "wde",
        "variant": "quantum",
        "protocol": protocol,
        "state": draw(_state(qubits)),
        "ordering": draw(st.sampled_from(wde.ORDERINGS)),
        "factor": draw(st.integers(0, qubits - 1)),
    }
    if draw(st.booleans()):
        file["grid"] = draw(_grid())
    else:
        file["grids"] = {name: draw(_grid()) for name in "abc"}
    return file


def _search(problem) -> wde.ViolationWitness | None:
    return wde.search_violation(problem.grids, problem.state, problem.protocol,
                                problem.ordering, problem.factor)


def _run(argv: list[str]) -> dict:
    """The structured report of a run that must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return json.loads(out.getvalue())


@settings(FIXED, max_examples=300)
@given(file=search_files(), side=st.integers(1, 6))
def test_search_finds_the_dense_first_maximum(file, side):
    problem = problemfile.loads(json.dumps(file)).problem
    thetas = [g.values() for g in problem.grids]
    if problem.protocol == "paired":
        jab, jbc, jac = wde._paired_pair_matrices(*thetas, problem.state)
    else:
        jab, jbc, jac = wde._shared_pair_matrices(*thetas, problem.state, problem.factor,
                                                  problem.ordering)
    cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
    flat = int(np.argmax(cube))
    first = np.unravel_index(flat, cube.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SINGLE_BLOCK_BYTES", 0)
        mp.setattr(kernels, "_TILE_BYTES", 0)
        mp.setattr(kernels, "_BOUND_SHARE", side * side)
        witness = _search(problem)
    if cube.flat[flat] <= wde.SEARCH_THRESHOLD:
        assert witness is None
    else:
        assert witness.thetas == tuple(float(th[x]) for th, x in zip(thetas, first))


@settings(FIXED, max_examples=60)
@given(file=search_files())
def test_search_witness_is_what_eval_gives_at_its_angles(tmp_path_factory, file):
    path = tmp_path_factory.getbasetemp() / "search.json"
    path.write_text(json.dumps(file))
    searched = _run(["search", str(path)])
    witness = _search(problemfile.loads(json.dumps(file)).problem)
    if witness is None:
        assert searched["results"]["witness"] is None
        return
    reported = searched["results"]["witness"]

    # the witness angles, exactly, as the file's directions
    at_witness = dict(file, directions={name: {"theta": t}
                                        for name, t in zip("abc", witness.thetas)})
    path.write_text(json.dumps(at_witness))
    evaluated = _run(["eval", str(path)])
    assert {key: evaluated["results"][key] for key in TRIPLE} == \
        {key: reported[key] for key in TRIPLE}
    problem = problemfile.loads(json.dumps(at_witness)).problem
    triple = wde.wde_quantum(*problem.tests, problem.state, problem.ordering,
                             problem.protocol, problem.factor)
    assert triple == witness.triple  # bit for bit


# finite angles of any magnitude, and angles at which a direction is a
# basis vector (up to the rounding of pi), so that a basis state has Born
# weight 0 or nearly 0 there
ANGLES = st.one_of(
    st.sampled_from((0.0, PI, -PI, 2 * PI)),
    st.floats(-4 * PI, 4 * PI),
    st.floats(1e299, 1e301) | st.floats(-1e301, -1e299),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _unit_state(draw, qubits: int) -> ComplexStateVector:
    if draw(st.booleans()):  # a basis vector
        return ComplexStateVector(np.eye(1 << qubits)[draw(st.integers(0, (1 << qubits) - 1))])
    amps = np.array(draw(_state(qubits)))  # [re, im] pairs, or the singlet's reals
    return ComplexStateVector(amps @ [1.0, 1j] if amps.ndim == 2 else amps)


@settings(FIXED, max_examples=200)
@given(data=st.data(), qubits=st.integers(1, 3), one_axis=st.booleans())
def test_pair_sheets_of_finite_angles_and_a_unit_state_are_finite(data, qubits, one_axis):
    axes = [np.array(data.draw(st.lists(ANGLES, min_size=1, max_size=6))) for _ in range(3)]
    if one_axis:  # one array for all three axes, as a search on one grid passes
        axes = [axes[0]] * 3
    shared = data.draw(_unit_state(qubits))
    builds = [wde._paired_pair_matrices(*axes, data.draw(_unit_state(2)))]
    builds += [wde._shared_pair_matrices(*axes, shared, factor, ordering)
               for factor in range(qubits) for ordering in wde.ORDERINGS]
    for sheets in builds:
        assert all(np.isfinite(sheet).all() for sheet in sheets)
