"""Seeded input generator for the three benchmark workloads.

`build_mix(workload, seed)` returns one pass of operations. The same seed
gives the same operations and the same file bytes. Every generated file is
valid: tfu-tables carry at most one T cell and never only F cells (else
`eval` exits 3), and every quantum conditioning projector has positive Born
weight (else `eval` exits 4). Each op records the input properties its cost
depends on (mode, n or dim, points per axis, tuples, input bytes), so a
later change can state what share of a workload has a given property.

The sizes and the protocol mix are fixed per workload; the seed only moves
the numbers inside the files (states, angles, probabilities, masks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

FORMATS = ("structured", "csv", "table")
ORDERINGS = ("sequential", "symmetrized")
WORKLOADS = ("search-grid", "eval-large", "check-seeds")

# Points per axis of one search-grid pass. 16 keeps the score cube inside
# the L2 cache; 384 makes a ~450 MB cube. Small grids come more often so a
# run has enough samples beyond its 90th percentile.
SEARCH_POINTS = (16, 16, 24, 32, 32, 48, 48, 64, 64, 96, 96, 128, 128, 192, 256, 384)
# (protocol, state, qubits) x ordering: the paired protocol on the singlet and
# on random two-qubit states, the shared one on random 2- and 3-qubit states.
SEARCH_VARIANTS = tuple(
    (protocol, state, qubits, ordering)
    for protocol, state, qubits in (
        ("paired", "singlet", 2),
        ("paired", "random", 2),
        ("shared", "random", 2),
        ("shared", "random", 3),
    )
    for ordering in ORDERINGS
)
# A check-seeds pass is one `check` op; runs with different seeds use
# disjoint seed ranges.
CHECK_SEED_STRIDE = 100_000

SINGLET = (0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0)


@dataclass
class Op:
    """One CLI invocation: argv (with `{file}` for the input path) and its input."""

    name: str
    verb: str
    argv: list[str]
    props: dict
    payload: dict | None = None
    text: str | None = None
    path: str | None = None
    expect: dict = field(default_factory=dict)

    def resolved_argv(self) -> list[str]:
        return [self.path if a == "{file}" else a for a in self.argv]


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _amps(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def random_state(rng, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _distribution(rng, size: int) -> np.ndarray:
    """Strictly positive probabilities whose float sum is 1 within 1e-13."""
    while True:
        raw = rng.random(size) + 1e-3
        probs = raw / raw.sum()
        if abs(float(probs.sum()) - 1.0) <= 1e-13:
            return probs


def grid_points(start: float, stop: float, step: float) -> int:
    """The point count `AngleGrid.values` gives for these bounds."""
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def grid_values(grid: dict) -> np.ndarray:
    """The angles `AngleGrid.values` gives, with its arithmetic."""
    count = grid_points(grid["start"], grid["stop"], grid["step"])
    return grid["start"] + grid["step"] * np.arange(count)


def _grid(rng, points: int) -> dict:
    start = float(rng.uniform(0.0, math.pi / 4))
    step = float(rng.uniform(math.pi / 2, math.pi)) / (points - 1)
    stop = start + step * (points - 1) + step * 1e-6
    grid = {"start": start, "stop": stop, "step": step}
    if grid_points(start, stop, step) != points:
        raise AssertionError(f"grid generator missed {points} points: {grid}")
    return grid


# ---------------------------------------------------------------------------
# search-grid

def _search_input(rng, points: int, variant) -> tuple[dict, dict]:
    protocol, state_kind, qubits, ordering = variant
    if state_kind == "singlet":
        state = np.array(SINGLET, dtype=complex)
    else:
        state = random_state(rng, 1 << qubits)
    payload = {
        "version": 1,
        "mode": "wde",
        "variant": "quantum",
        "protocol": protocol,
        "ordering": ordering,
        "state": _amps(state),
    }
    if protocol == "shared":
        payload["factor"] = int(rng.integers(qubits))
    if state_kind == "singlet":
        grid = _grid(rng, points)
        payload["grid"] = grid
        grids = (grid, grid, grid)
    else:
        grids = tuple(_grid(rng, points) for _ in range(3))
        payload["grids"] = dict(zip("abc", grids))
    expect = {
        "protocol": protocol,
        "ordering": ordering,
        "state": state,
        "factor": payload.get("factor", 0),
        "grids": grids,
    }
    return payload, expect


def _search_mix(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for pos, points in enumerate(SEARCH_POINTS):
        variant = SEARCH_VARIANTS[pos % len(SEARCH_VARIANTS)]
        payload, expect = _search_input(rng, points, variant)
        protocol, state_kind, qubits, ordering = variant
        props = {
            "verb": "search",
            "mode": f"wde-quantum-{protocol}",
            "state": state_kind,
            "dim": 1 << qubits,
            "ordering": ordering,
            "points": points,
            "tuples": points ** 3,
        }
        ops.append(Op(
            name=f"search-{pos:02d}-{protocol}-{state_kind}{qubits}-{ordering}-{points}",
            verb="search",
            argv=["search", "{file}"],
            props=props,
            payload=payload,
            expect=expect,
        ))
    return ops


# ---------------------------------------------------------------------------
# eval-large

def _tfu_table(rng, n: int) -> dict:
    size = 1 << n
    while True:
        values = np.where(rng.random(size) < 0.5, "F", "U").astype(object)
        if rng.random() < 0.5:
            values[int(rng.integers(size))] = "T"
        if any(v != "F" for v in values):
            break
    values = [str(v) for v in values]
    if n <= 4:
        keys = ["".join("+" if (s >> (n - 1 - p)) & 1 == 0 else "-" for p in range(n))
                for s in range(size)]
        return {"version": 1, "mode": "tfu-table", "n": n, "values": dict(zip(keys, values))}
    return {"version": 1, "mode": "tfu-table", "n": n, "values": values}


def _classical(rng, n: int) -> dict:
    probs = [float(p) for p in _distribution(rng, 1 << n)]
    return {"version": 1, "mode": "classical", "n": n, "probs": probs}


def _tfu_measure(rng, n: int) -> dict:
    measures = [float(x) for x in rng.random(3 ** n) * 4.0 + 0.01]
    if n <= 3:
        keys = ["".join("TFU"[(c // 3 ** (n - 1 - k)) % 3] for k in range(n))
                for c in range(3 ** n)]
        return {"version": 1, "mode": "tfu-measure", "n": n,
                "measures": dict(zip(keys, measures))}
    return {"version": 1, "mode": "tfu-measure", "n": n, "measures": measures}


def _projector_spec(rng, dim: int, kind: str) -> tuple[dict, np.ndarray]:
    """A projector spec and its matrix, for the Born-weight check."""
    qubits = dim.bit_length() - 1
    if kind == "qubit-direction":
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        factor = int(rng.integers(qubits))
        single = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        mat = np.eye(1, dtype=complex)
        for k in range(qubits):
            mat = np.kron(mat, np.outer(single, single.conj()) if k == factor else np.eye(2))
        spec = {"type": "qubit-direction", "theta": theta, "phi": phi,
                "factor": factor, "n_factors": qubits}
        return spec, mat
    if kind == "diagonal":
        mask = rng.integers(2, size=dim)
        mask[int(rng.integers(dim))] = 1
        return {"type": "diagonal", "mask": [int(m) for m in mask]}, np.diag(mask.astype(complex))
    rank = max(1, dim // 4)  # fixed, so the seed does not change the cost
    vecs = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    basis, _ = np.linalg.qr(vecs.T)
    spec = {"type": "subspace", "vectors": [_amps(v) for v in vecs]}
    return spec, basis @ basis.conj().T


def _quantum(rng, dim: int, count: int) -> dict:
    kinds = ("qubit-direction", "diagonal", "subspace")
    state = random_state(rng, dim)
    projectors = {}
    for pos in range(count):
        while True:
            spec, mat = _projector_spec(rng, dim, kinds[pos % 3])
            weight = float(np.vdot(state, mat @ state).real)
            if weight > 1e-3:  # a conditioning projector needs Born weight
                break
        projectors[f"P{pos}"] = spec
    return {"version": 1, "mode": "quantum", "state": _amps(state), "projectors": projectors}


def _wde_classical(rng) -> dict:
    probs = [float(p) for p in _distribution(rng, 8)]
    return {"version": 1, "mode": "wde", "variant": "classical", "probs": probs}


def _wde_tfu_sets(rng, count: int) -> dict:
    items = [
        {"tags": "".join(rng.choice(list("TFU"), size=3)),
         "weight": float(rng.uniform(0.0, 2.0))}
        for _ in range(count)
    ]
    return {"version": 1, "mode": "wde", "variant": "tfu-sets", "items": items}


def _wde_quantum(rng, protocol: str, qubits: int) -> dict:
    """Paired: three directions on a two-qubit state; shared: three explicit projectors."""
    payload = {
        "version": 1, "mode": "wde", "variant": "quantum", "protocol": protocol,
        "ordering": ORDERINGS[int(rng.integers(2))],
        "state": _amps(random_state(rng, 1 << qubits)),
    }
    if protocol == "paired":
        payload["directions"] = {name: {"theta": float(rng.uniform(0.0, math.pi))}
                                 for name in "abc"}
    else:
        kinds = ("diagonal", "subspace", "qubit-direction")
        payload["projectors"] = {
            name: _projector_spec(rng, 1 << qubits, kind)[0] for name, kind in zip("abc", kinds)
        }
    return payload


# (mode label, size label, size, payload maker). tfu-measure n=9, classical n=14,
# tfu-table n=10 and quantum dim 64 with 8 projectors are the large ends.
EVAL_INPUTS = (
    ("tfu-table", "n", 3, lambda rng: _tfu_table(rng, 3)),
    ("tfu-table", "n", 7, lambda rng: _tfu_table(rng, 7)),
    ("tfu-table", "n", 10, lambda rng: _tfu_table(rng, 10)),
    ("classical", "n", 2, lambda rng: _classical(rng, 2)),
    ("classical", "n", 8, lambda rng: _classical(rng, 8)),
    ("classical", "n", 14, lambda rng: _classical(rng, 14)),
    ("tfu-measure", "n", 3, lambda rng: _tfu_measure(rng, 3)),
    ("tfu-measure", "n", 6, lambda rng: _tfu_measure(rng, 6)),
    ("tfu-measure", "n", 9, lambda rng: _tfu_measure(rng, 9)),
    ("quantum", "dim", 2, lambda rng: _quantum(rng, 2, 2)),
    ("quantum", "dim", 8, lambda rng: _quantum(rng, 8, 4)),
    ("quantum", "dim", 64, lambda rng: _quantum(rng, 64, 8)),
    ("wde-classical", "n", 3, _wde_classical),
    ("wde-tfu-sets", "items", 400, lambda rng: _wde_tfu_sets(rng, 400)),
    ("wde-quantum-paired", "dim", 4, lambda rng: _wde_quantum(rng, "paired", 2)),
    ("wde-quantum-shared", "dim", 8, lambda rng: _wde_quantum(rng, "shared", 3)),
)


def _eval_mix(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for pos, (mode, size_label, size, build) in enumerate(EVAL_INPUTS):
        payload = build(rng)
        for fmt in FORMATS:
            ops.append(Op(
                name=f"eval-{pos:02d}-{mode}-{size_label}{size}-{fmt}",
                verb="eval",
                argv=["eval", "{file}", "--format", fmt],
                props={"verb": "eval", "mode": mode, size_label: size, "format": fmt},
                payload=payload,
            ))
    return ops


# ---------------------------------------------------------------------------
# check-seeds

def check_seed(seed: int, index: int) -> int:
    """The `check --seed` of the index-th check op of a run."""
    return seed * CHECK_SEED_STRIDE + index


def _check_mix(seed: int, pass_index: int) -> list[Op]:
    s = check_seed(seed, pass_index)
    return [Op(
        name=f"check-seed-{s}",
        verb="check",
        argv=["check", "--seed", str(s)],
        props={"verb": "check", "mode": "check", "check_seed": s},
    )]


def build_mix(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """One pass of `workload` for `seed`. Only check-seeds changes per pass
    (successive seeds); the other workloads repeat the same files."""
    if workload == "search-grid":
        ops = _search_mix(seed)
    elif workload == "eval-large":
        ops = _eval_mix(seed)
    elif workload == "check-seeds":
        return _check_mix(seed, pass_index)
    else:
        raise ValueError(f"unknown workload {workload!r}: expected one of {WORKLOADS}")
    for op in ops:
        op.text = _dump(op.payload)
        op.props["bytes"] = len(op.text.encode())
    return ops


def write_inputs(ops: list[Op], workdir) -> None:
    """Write each distinct input once under `workdir` and point its ops at it."""
    written: dict[str, str] = {}
    for op in ops:
        if op.text is None:
            continue
        if op.text not in written:
            path = workdir / f"input-{len(written):03d}.json"
            path.write_text(op.text, encoding="utf-8")
            written[op.text] = str(path)
        op.path = written[op.text]
