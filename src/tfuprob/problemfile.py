"""Problem files: JSON descriptions of what to evaluate.

Every file carries an integer "version" (currently 1) and a "mode":

    tfu-table    {"n": 2, "values": {"++": "F", "+-": "U", ...} | [list]}
    classical    {"n": 2, "probs": [0.25, ...] | {"++": 0.25, ...}}
    tfu-measure  {"n": 2, "measures": {"TT": 1, ...} | [list of 3^n]}
    quantum      {"state": [amp, ...], "projectors": {"P": spec, ...}}
    wde          {"variant": "classical" | "tfu-sets" | "quantum", ...}

Amplitudes are JSON numbers or [re, im] pairs. A quantum projector's name
holds no ",", which separates the two names of a pair key. Projector specs:

    {"type": "qubit-direction", "theta": x, "phi": 0, "factor": 0, "n_factors": 1}
    {"type": "diagonal", "mask": [1, 0, ...]}
    {"type": "subspace", "vectors": [[amp, ...], ...]}

The wde quantum variant takes "protocol" ("paired" or "shared"), a
"state", and either "directions" {"a": {"theta": ...}, "b": ..., "c": ...}
or, for the shared protocol, "projectors" {"a": spec, ...}, never both: a
file gives its three tests once. An optional "grid" {"start", "stop",
"step"} (or one such object per angle under "grids") enables violation
searches, which scan one-qubit directions and so refuse a file whose tests
are projectors. "ordering" picks the pair ordering (default
"symmetrized"), and "factor" the qubit the shared protocol's directions
act on.

Structural problems (bad JSON, a missing or mistyped field, an unknown
mode, variant, protocol, ordering or projector type) raise
ProblemFileError; a field the reader does not know is ignored, though
reports echo it. Payloads that parse but violate domain invariants raise
ValidationError from the domain constructors. The command line maps the
two to different exit codes. An "n" whose state or cell space (2^n for
tfu-table and classical, 3^n for tfu-measure) holds more than MAX_CELLS
entries is a ValidationError, raised before anything is allocated; so is a
"state" of more than quantum.MAX_DIM amplitudes. A diagonal "mask" is a
non-empty list of JSON 0/1 values as long as the state, and "subspace"
vectors are as long as the state; both are checked before any projector is
built. A NaN or infinite number anywhere (JSON NaN and Infinity, or a
float literal that overflows) is a ValidationError naming its field. A key
that repeats within one JSON object is a ProblemFileError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .classical import ClassicalDistribution
from .errors import ProblemFileError, ValidationError
from .logic import CompleteStateTable, TfuValue
from .measures import TfuMeasureAssignment
from .quantum import (
    MAX_DIM,
    ComplexStateVector,
    HermitianProjector,
    QubitDirection,
    SubspaceSpan,
    projector_from_spec,
)
from .wde import DEFAULT_ORDERING, ORDERINGS, PROTOCOLS, AngleGrid, TfuPopulation

VERSION = 1
MODES = ("tfu-table", "classical", "tfu-measure", "quantum", "wde")
# Largest state or cell space a file may ask for: 2^20 entries, 8 MiB as
# float64 (classical and tfu-table up to n=20, tfu-measure up to n=12).
MAX_CELLS = 2**20


def _need(payload: dict, key: str, kind, where: str):
    if key not in payload:
        raise ProblemFileError(f"{where}: missing required field {key!r}")
    value = payload[key]
    if kind is not None and not isinstance(value, kind):
        raise ProblemFileError(
            f"{where}: field {key!r} has type {type(value).__name__}, "
            f"expected {getattr(kind, '__name__', kind)}"
        )
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ProblemFileError(
            f"{where}: integer of {value.bit_length()} bits is out of float range"
        ) from None
    if not math.isfinite(number):
        raise ValidationError(f"{where}: expected a finite number, got {number!r}")
    return number


def _finite(floats: np.ndarray, where: str) -> np.ndarray:
    """The array itself, once no entry is NaN or infinite."""
    finite = np.isfinite(floats)
    if not finite.all():
        _number(float(floats[~finite][0]), where)  # raises, naming the first one
    return floats


def _numbers(values: list, where: str) -> np.ndarray:
    """Float array of a list of JSON numbers, each checked as _number does."""
    if set(map(type, values)) != {float}:
        return np.array([_number(v, where) for v in values], dtype=float)
    return _finite(np.array(values, dtype=float), where)


def _integer(payload: dict, key: str, default: int, where: str) -> int:
    """An optional integer field; a float, bool, string or null is an error."""
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _amplitude(value, where: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise ProblemFileError(f"{where}: amplitude pair must be [re, im]")
        return complex(_number(value[0], where), _number(value[1], where))
    return complex(_number(value, where), 0.0)


def _amplitudes(values: list, where: str) -> np.ndarray:
    """Complex array of a list of amplitudes, each read as _amplitude does."""
    if (
        set(map(type, values)) == {list}
        and set(map(len, values)) == {2}
        and set(map(type, chain.from_iterable(values))) == {float}
    ):  # [re, im] pairs of floats are complex128's layout
        return _finite(np.array(values, dtype=float), where).view(complex)[:, 0]
    return np.array([_amplitude(v, where) for v in values], dtype=complex)


def _state(payload: dict, where: str) -> ComplexStateVector:
    raw = _need(payload, "state", list, where)
    if len(raw) > MAX_DIM:
        raise ValidationError(
            f"{where}: state has {len(raw)} amplitudes, over the limit of {MAX_DIM}"
        )
    return ComplexStateVector(_amplitudes(raw, f"{where}.state"))


def parse_projector_spec(raw, where: str, dim: int) -> HermitianProjector:
    """The projector a spec describes, for a state of dimension `dim`. A
    mask, span or qubit register of another size is refused before
    anything of that size is built."""
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{where}: projector spec must be an object")
    kind = _need(raw, "type", str, where)
    if kind == "qubit-direction":
        spec = replace(
            _parse_direction(raw, where),
            factor=_integer(raw, "factor", 0, where),
            n_factors=_integer(raw, "n_factors", 1, where),
        )
        return projector_from_spec(spec, dim=dim)
    if kind == "diagonal":
        mask = _need(raw, "mask", list, where)
        if len(mask) != dim:
            raise ProblemFileError(f"{where}: diagonal mask has dim {len(mask)}, expected {dim}")
        # JSON 0 and 1 (or 0.0 and 1.0); true and false are not numbers here
        if not all(type(v) in (int, float) and v in (0, 1) for v in mask):
            raise ProblemFileError(f"{where}: mask must be a non-empty list of 0/1 values")
        return HermitianProjector.from_diagonal(np.array(mask))
    if kind == "subspace":
        rows = _need(raw, "vectors", list, where)
        if not all(isinstance(row, list) for row in rows):
            raise ProblemFileError(f"{where}: each of the vectors must be a list of amplitudes")
        lengths = {len(row) for row in rows}
        if len(lengths) > 1:
            raise ProblemFileError(f"{where}: vectors differ in length ({sorted(lengths)})")
        if lengths and lengths != {dim}:
            raise ValidationError(
                f"{where}: projector dim {lengths.pop()} does not match required {dim}"
            )
        vectors = np.array([_amplitudes(row, where) for row in rows], dtype=complex)
        return projector_from_spec(SubspaceSpan(vectors), dim=dim)
    raise ProblemFileError(f"{where}: unknown projector type {kind!r}")


@dataclass(frozen=True)
class TfuTableProblem:
    table: CompleteStateTable


@dataclass(frozen=True)
class ClassicalProblem:
    distribution: ClassicalDistribution


@dataclass(frozen=True)
class TfuMeasureProblem:
    assignment: TfuMeasureAssignment


@dataclass(frozen=True)
class QuantumProblem:
    state: ComplexStateVector
    projectors: dict[str, HermitianProjector]


@dataclass(frozen=True)
class WdeClassicalProblem:
    distribution: ClassicalDistribution


@dataclass(frozen=True)
class WdeTfuSetsProblem:
    population: TfuPopulation


@dataclass(frozen=True)
class WdeQuantumProblem:
    """`tests`: the three one-qubit directions, or (shared protocol only)
    the three projectors, or None. `ordering`: the file's, else the default."""

    state: ComplexStateVector
    protocol: str
    tests: tuple[QubitDirection | HermitianProjector, ...] | None
    ordering: str
    factor: int
    grids: tuple[AngleGrid, AngleGrid, AngleGrid] | None


Problem = (
    TfuTableProblem
    | ClassicalProblem
    | TfuMeasureProblem
    | QuantumProblem
    | WdeClassicalProblem
    | WdeTfuSetsProblem
    | WdeQuantumProblem
)


@dataclass(frozen=True)
class ProblemFile:
    version: int
    mode: str
    problem: Problem
    raw: dict


def _parse_n(payload: dict, where: str, base: int) -> int:
    """Read "n" for a space of base^n states or cells, at most MAX_CELLS."""
    n = _need(payload, "n", int, where)
    if isinstance(n, bool) or n < 1:
        raise ProblemFileError(f"{where}: n must be a positive integer")
    # base >= 2, so the first test keeps base ** n from growing huge
    if n > MAX_CELLS.bit_length() or base**n > MAX_CELLS:
        raise ValidationError(
            f"{where}: n={n} needs {base}^{n} cells, over the limit of {MAX_CELLS}"
        )
    return n


def _parse_tfu_table(payload: dict) -> TfuTableProblem:
    n = _parse_n(payload, "tfu-table", 2)
    values = _need(payload, "values", (list, dict), "tfu-table")
    if isinstance(values, dict):
        table = CompleteStateTable.from_mapping(n, values)
    else:
        table = CompleteStateTable(n, tuple(TfuValue.parse(str(v)) for v in values))
    return TfuTableProblem(table)


def _distribution(payload: dict, where: str, n: int) -> ClassicalDistribution:
    """The "probs" field: a list of 2^n numbers or a {"+-": p, ...} mapping."""
    probs = _need(payload, "probs", (list, dict), where)
    if isinstance(probs, dict):
        return ClassicalDistribution.from_mapping(
            n, {k: _number(v, f"{where}.probs") for k, v in probs.items()}
        )
    arr = _numbers(probs, f"{where}.probs")
    if arr.size != 1 << n:
        raise ProblemFileError(
            f"{where}: probs has {arr.size} entries, expected {1 << n} for n={n}"
        )
    return ClassicalDistribution(arr)


def _parse_classical(payload: dict) -> ClassicalProblem:
    return ClassicalProblem(_distribution(payload, "classical", _parse_n(payload, "classical", 2)))


def _parse_tfu_measure(payload: dict) -> TfuMeasureProblem:
    n = _parse_n(payload, "tfu-measure", 3)
    measures = _need(payload, "measures", (list, dict), "tfu-measure")
    if isinstance(measures, dict):
        assignment = TfuMeasureAssignment.from_mapping(
            n, {k: _number(v, "tfu-measure.measures") for k, v in measures.items()}
        )
    else:
        arr = _numbers(measures, "tfu-measure.measures")
        assignment = TfuMeasureAssignment(n, arr)
    return TfuMeasureProblem(assignment)


def _parse_quantum(payload: dict) -> QuantumProblem:
    state = _state(payload, "quantum")
    raw_projs = _need(payload, "projectors", dict, "quantum")
    if not raw_projs:
        raise ProblemFileError("quantum: needs at least one projector")
    projectors = {}
    for name, spec in raw_projs.items():
        where = f"quantum.projectors.{name}"
        if "," in name:
            raise ProblemFileError(
                f"{where}: a projector name may not contain ',', which separates pair keys"
            )
        projectors[name] = parse_projector_spec(spec, where, dim=state.dim)
    return QuantumProblem(state, projectors)


def _parse_grid(raw, where: str) -> AngleGrid:
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{where}: grid must be an object")
    return AngleGrid(
        start=_number(_need(raw, "start", None, where), where),
        stop=_number(_need(raw, "stop", None, where), where),
        step=_number(_need(raw, "step", None, where), where),
    )


def _abc(payload: dict, key: str, read) -> tuple:
    """The "a", "b" and "c" entries of the object under `key`, each read
    as `read(raw, where)`."""
    raw = _need(payload, key, dict, "wde")
    return tuple(read(_need(raw, name, None, f"wde.{key}"), f"wde.{key}.{name}") for name in "abc")


def _parse_direction(raw, where: str) -> QubitDirection:
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{where}: direction must be an object with theta")
    return QubitDirection(
        theta=_number(_need(raw, "theta", None, where), where),
        phi=_number(raw.get("phi", 0.0), where),
    )


def _parse_wde(payload: dict) -> Problem:
    variant = _need(payload, "variant", str, "wde")
    if variant == "classical":
        return WdeClassicalProblem(_distribution(payload, "wde", 3))
    if variant == "tfu-sets":
        raw_items = _need(payload, "items", list, "wde")
        members = []
        weights = []
        for pos, item in enumerate(raw_items):
            where = f"wde.items[{pos}]"
            if not isinstance(item, dict):
                raise ProblemFileError(f"{where}: expected an object")
            tags = _need(item, "tags", str, where)
            if len(tags) != 3:
                raise ProblemFileError(f"{where}: tags must be three letters from T/F/U")
            members.append(tuple(TfuValue.parse(ch) for ch in tags))
            weights.append(_number(item.get("weight", 1.0), where))
        return WdeTfuSetsProblem(TfuPopulation(tuple(members), np.array(weights)))
    if variant == "quantum":
        state = _state(payload, "wde")
        protocol = _need(payload, "protocol", str, "wde")
        if protocol not in PROTOCOLS:
            raise ProblemFileError(f"wde: unknown protocol {protocol!r}")
        ordering = payload.get("ordering")
        if ordering is None:
            ordering = DEFAULT_ORDERING
        elif ordering not in ORDERINGS:
            raise ProblemFileError(f"wde: unknown ordering {ordering!r}")
        factor = _integer(payload, "factor", 0, "wde")
        if "directions" in payload and "projectors" in payload:
            raise ProblemFileError("wde: give the tests as directions or as projectors, not both")
        tests = None
        if "directions" in payload:
            tests = _abc(payload, "directions", _parse_direction)
        elif "projectors" in payload:
            if protocol != "shared":
                raise ProblemFileError("wde: explicit projectors need the shared protocol")
            tests = _abc(payload, "projectors", partial(parse_projector_spec, dim=state.dim))
        grids = None
        if "grids" in payload:
            grids = _abc(payload, "grids", _parse_grid)
        elif "grid" in payload:
            g = _parse_grid(payload["grid"], "wde.grid")
            grids = (g, g, g)
        if tests is None and grids is None:
            raise ProblemFileError(
                "wde: quantum variant needs directions, projectors, or a grid"
            )
        return WdeQuantumProblem(
            state=state,
            protocol=protocol,
            tests=tests,
            ordering=ordering,
            factor=factor,
            grids=grids,
        )
    raise ProblemFileError(f"wde: unknown variant {variant!r}")


_PARSERS = {
    "tfu-table": _parse_tfu_table,
    "classical": _parse_classical,
    "tfu-measure": _parse_tfu_measure,
    "quantum": _parse_quantum,
    "wde": _parse_wde,
}


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose key repeats is an error, not its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ProblemFileError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def loads(text: str) -> ProblemFile:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal over the str-to-int digit
        # limit, or nesting deeper than the decoder's recursion limit
        raise ProblemFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFileError("problem file must be a JSON object")
    version = _need(raw, "version", int, "problem file")
    if isinstance(version, bool) or version != VERSION:
        raise ProblemFileError(f"unsupported problem file version {version!r}")
    mode = _need(raw, "mode", str, "problem file")
    if mode not in MODES:
        raise ProblemFileError(f"unknown mode {mode!r}: expected one of {MODES}")
    problem = _PARSERS[mode](raw)
    return ProblemFile(version=version, mode=mode, problem=problem, raw=raw)


def load_path(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file {path!r}: {exc}") from exc
    return loads(text)
