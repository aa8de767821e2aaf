"""Wigner-d'Espagnat inequality lab: ab + b'c >= ac.

For any classical distribution over three propositions A, B, C the three
pair probabilities obey

    prob(A and B) + prob(not B and C) >= prob(A and C),

because every (A, C) case is either a B case or a not-B case. The lab
evaluates the three terms in three regimes:

* classical  -- a distribution over the 8 complete states; the inequality
  always holds, and `wde_classical` is the control group.
* tfu sets   -- a weighted population whose members carry T/F/U tags for
  each attribute. "A and B" counts members with both tags manifestly T,
  "not B" needs B manifestly F. Members with B undecidable can then sit in
  the ac count while escaping both left-hand terms, so the inequality can
  fail without any vectors in sight.
* quantum    -- states and projectors, with two measurement protocols:

  - "shared": all three tests act on the same register and "not B" is the
    literal complement I - B. A one-qubit direction acts on qubit `factor`
    of the register, in evaluation and search alike. Commuting (diagonal)
    configurations reduce exactly to the classical control group.
  - "paired": each pair of directions is tested on the two factors of a
    two-qubit register, first member on factor 0, second on factor 1, as
    in spin-pair experiments. For a perfectly anticorrelated state an
    affirmative middle-direction outcome on the partner factor is what
    manifests "not B" for the first factor; this is the protocol under
    which the singlet state violates the inequality.

Pair terms support two orderings: "sequential" (first-then-second, the
raw ||P2 P1 s||^2) and "symmetrized" (average of the two orders). In the
paired protocol the two factors' projectors commute, so the orderings
coincide; in the shared protocol they generally do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from . import kernels
from .classical import (
    ClassicalDistribution,
    and_op,
    build_state_vector,
    negation_op,
    probability,
    projector_for,
)
from .errors import ValidationError
from .logic import TfuValue
from .quantum import (
    ComplexStateVector,
    HermitianProjector,
    QubitDirection,
    check_factor,
    projector_from_spec,
)

ORDERINGS = ("sequential", "symmetrized")
DEFAULT_ORDERING = "symmetrized"
PROTOCOLS = ("paired", "shared")
HOLDS_TOL = 1e-12
SEARCH_THRESHOLD = 1e-9
# Points per search axis. A pair sheet holds points**2 float64 values, so
# 2048 points make 32 MiB per sheet, built in row blocks of about 1 MiB. A
# search builds three, or on one grid one (paired) or two (shared: Jac is
# Jab); the scan adds one block buffer and per-block bound tables, under
# 12 MiB at 2048 points, and the tuple count is then at most 2048**3.
MAX_GRID_POINTS = 2048


@dataclass(frozen=True)
class WdeTriple:
    """The three pair terms; `violation` is how far ac overshoots."""

    ab: float
    not_b_c: float
    ac: float

    def __post_init__(self):
        for name in ("ab", "not_b_c", "ac"):  # keep plain floats, reports are strict
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def violation(self) -> float:
        return self.ac - self.ab - self.not_b_c

    def holds(self, tol: float = HOLDS_TOL) -> bool:
        return bool(self.violation <= tol)


@cache
def _classical_terms() -> tuple[HermitianProjector, HermitianProjector, HermitianProjector]:
    """A and B, not B and C, A and C over the 8 states of three propositions."""
    a, b, c = (projector_for(i, 3) for i in range(3))
    return and_op(a, b), and_op(negation_op(b), c), and_op(a, c)


def wde_classical(dist: ClassicalDistribution) -> WdeTriple:
    """The control group: three propositions, one distribution."""
    if dist.n != 3:
        raise ValidationError(f"need exactly 3 propositions, got n={dist.n}")
    s = build_state_vector(dist)
    ab, not_b_c, ac = _classical_terms()
    return WdeTriple(
        ab=probability(ab, s),
        not_b_c=probability(not_b_c, s),
        ac=probability(ac, s),
    )


@dataclass(frozen=True, eq=False)
class TfuPopulation:
    """Weighted members, each tagged (A, B, C) with T/F/U."""

    items: tuple[tuple[TfuValue, TfuValue, TfuValue], ...]
    weights: np.ndarray

    def __post_init__(self):
        items = tuple(tuple(member) for member in self.items)
        if len(items) == 0:
            raise ValidationError("population needs at least one member")
        for member in items:
            if len(member) != 3 or not all(isinstance(v, TfuValue) for v in member):
                raise ValidationError(f"member {member!r} is not a (A,B,C) TfuValue triple")
        weights = np.asarray(self.weights, dtype=float).copy()
        if weights.shape != (len(items),):
            raise ValidationError("need exactly one weight per member")
        if not (weights >= 0).all():
            raise ValidationError("weights must be nonnegative")
        if not weights.sum() < np.inf:
            raise ValidationError("weights must have a finite sum")
        weights.setflags(write=False)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "weights", weights)


def wde_tfu_sets(pop: TfuPopulation) -> WdeTriple:
    """Set-level counting with manifest tags; no normalization is needed,
    the inequality is scale-free. All weights zero gives the degenerate
    (0, 0, 0), which holds with equality."""
    t = TfuValue.TRUE
    f = TfuValue.FALSE
    ab = not_b_c = ac = 0.0
    for (a, b, c), w in zip(pop.items, pop.weights):
        if a is t and b is t:
            ab += w
        if b is f and c is t:
            not_b_c += w
        if a is t and c is t:
            ac += w
    return WdeTriple(ab=ab, not_b_c=not_b_c, ac=ac)


# ---------------------------------------------------------------------------
# quantum variants

def singlet_state() -> ComplexStateVector:
    """The anticorrelated two-qubit state (0, 1, -1, 0)/sqrt(2)."""
    root_half = np.sqrt(0.5)
    return ComplexStateVector(np.array([0.0, root_half, -root_half, 0.0], dtype=complex))


def _joint(p1: HermitianProjector, p2: HermitianProjector,
           s: ComplexStateVector, ordering: str) -> float:
    first = p2.apply(p1.apply(s.amplitudes))
    value = float(np.vdot(first, first).real)
    if ordering == "sequential":
        return value
    second = p1.apply(p2.apply(s.amplitudes))
    return 0.5 * (value + float(np.vdot(second, second).real))


def _check_ordering(ordering: str) -> None:
    if ordering not in ORDERINGS:
        raise ValidationError(f"unknown ordering {ordering!r}: expected one of {ORDERINGS}")


def _check_protocol(protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown protocol {protocol!r}: expected one of {PROTOCOLS}")


def _check_paired_state(state: ComplexStateVector) -> None:
    if state.dim != 4:
        raise ValidationError(f"paired protocol needs a two-qubit state, got dim {state.dim}")


def _as_projector(spec, state: ComplexStateVector, factor: int) -> HermitianProjector:
    if isinstance(spec, HermitianProjector):
        if spec.dim != state.dim:
            raise ValidationError(f"projector dim {spec.dim} does not match state dim {state.dim}")
        return spec
    if isinstance(spec, QubitDirection) and spec.n_factors == 1:
        spec = replace(spec, factor=factor, n_factors=state.n_factors)
    return projector_from_spec(spec, dim=state.dim)


def wde_quantum_shared(
    a, b, c,
    state: ComplexStateVector,
    ordering: str = DEFAULT_ORDERING,
    factor: int = 0,
) -> WdeTriple:
    """All three tests on one register; "not B" is the literal I - B. A
    one-qubit QubitDirection (n_factors == 1) acts on qubit `factor`."""
    _check_ordering(ordering)
    pa, pb, pc = (_as_projector(spec, state, factor) for spec in (a, b, c))
    return WdeTriple(
        ab=_joint(pa, pb, state, ordering),
        not_b_c=_joint(pb.complement(), pc, state, ordering),
        ac=_joint(pa, pc, state, ordering),
    )


def wde_quantum_paired(
    a: QubitDirection,
    b: QubitDirection,
    c: QubitDirection,
    state: ComplexStateVector,
    ordering: str = DEFAULT_ORDERING,
) -> WdeTriple:
    """Pair-measurement protocol on a two-qubit register.

    Each term tests its first direction on factor 0 and its second on
    factor 1; the middle term tests (B, C) directly, the anticorrelation
    of the state being what reads the factor-1 outcome as "not B" of
    factor 0. The factor projectors commute, so both orderings agree.
    """
    _check_ordering(ordering)
    _check_paired_state(state)
    for spec in (a, b, c):
        if not isinstance(spec, QubitDirection):
            raise ValidationError("paired protocol takes QubitDirection specs")

    def on(spec: QubitDirection, factor: int) -> HermitianProjector:
        return projector_from_spec(replace(spec, factor=factor, n_factors=2))

    a0, b0, b1, c1 = on(a, 0), on(b, 0), on(b, 1), on(c, 1)
    return WdeTriple(
        ab=_joint(a0, b1, state, ordering),
        not_b_c=_joint(b0, c1, state, ordering),
        ac=_joint(a0, c1, state, ordering),
    )


def wde_quantum(
    a, b, c,
    state: ComplexStateVector,
    ordering: str = DEFAULT_ORDERING,
    protocol: str = "paired",
    factor: int = 0,
) -> WdeTriple:
    """The three terms under `protocol`; `factor` places the shared
    protocol's one-qubit directions and is unused by the paired one."""
    _check_protocol(protocol)
    if protocol == "paired":
        return wde_quantum_paired(a, b, c, state, ordering)
    return wde_quantum_shared(a, b, c, state, ordering, factor)


# ---------------------------------------------------------------------------
# grid search

@dataclass(frozen=True)
class AngleGrid:
    """Closed range [start, stop] walked in fixed steps (radians)."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not np.isfinite([self.start, self.stop, self.step]).all():
            raise ValidationError("grid bounds and step must be finite")
        if self.step <= 0:
            raise ValidationError(f"grid step must be positive, got {self.step!r}")
        if self.stop < self.start:
            raise ValidationError("grid stop lies before start")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValidationError(f"grid step {self.step!r} is too small for its range")

    @property
    def points(self) -> int:
        """Number of grid values, counted without building them."""
        return math.floor((self.stop - self.start) / self.step + 1e-9) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.points)


@dataclass(frozen=True)
class ViolationWitness:
    """Best grid tuple found, re-evaluated through the dense operator path."""

    thetas: tuple[float, float, float]
    triple: WdeTriple
    magnitude: float
    protocol: str
    ordering: str


def _pair_sheets(th_a, th_b, th_c, axis, fills):
    """Jab, Jbc, Jac: fills' tables over the angle pairs (a, b), (b, c), (a, c),
    in row blocks whose temporaries stay about 1 MiB; fill(out, r, x, y) writes
    rows r into out from axis(x) and axis(y), made once per distinct array. A
    sheet whose fill and arrays are an earlier one's takes its table, read-only
    since a write through one name would change both: Jac is Jab when the b and
    c axes are one array, and Jbc is Jac when the a and b axes are one array
    and all three sheets are one fill (the paired protocol)."""
    axes = {id(th): th for th in (th_a, th_b, th_c)}
    axes = {key: axis(th) for key, th in axes.items()}
    tables, sheets = {}, []
    for fill, x, y in zip(fills, (th_a, th_b, th_a), (th_b, th_c, th_c)):
        key = (fill, id(x), id(y))
        if key in tables:
            tables[key].flags.writeable = False
        else:
            table = tables[key] = np.empty((x.size, y.size))
            rows = max(1, 2**16 // y.size)
            for r0 in range(0, x.size, rows):
                r = slice(r0, r0 + rows)
                fill(table[r], r, axes[id(x)], axes[id(y)])
        sheets.append(tables[key])
    return tuple(sheets)


def _paired_pair_matrices(th_a, th_b, th_c, state: ComplexStateVector):
    """Jab, Jbc, Jac of the paired protocol: |<d(x) (x) d(y)|s>|^2, phi = 0."""
    s00, s01, s10, s11 = state.amplitudes

    def fill(out, r, x, y):
        (cx, sx), (cy, sy) = x, y
        amp = (
            np.multiply.outer(cx[r], cy) * s00
            + np.multiply.outer(cx[r], sy) * s01
            + np.multiply.outer(sx[r], cy) * s10
            + np.multiply.outer(sx[r], sy) * s11
        )
        out[...] = np.abs(amp) ** 2

    return _pair_sheets(th_a, th_b, th_c, lambda th: (np.cos(th / 2.0), np.sin(th / 2.0)),
                        (fill, fill, fill))


def _direction_weights(thetas: np.ndarray, state: ComplexStateVector, factor: int) -> np.ndarray:
    """Born weight of each direction projector (on `factor`) against the state."""
    m = state.n_factors
    reshaped = np.moveaxis(state.amplitudes.reshape((2,) * m), factor, 0).reshape(2, -1)
    d = np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], axis=1)  # phi = 0
    rows = d.conj() @ reshaped
    return np.sum(np.abs(rows) ** 2, axis=1)


def _shared_pair_matrices(th_a, th_b, th_c, state, factor, ordering):
    # Rank-one algebra: ||P_y P_x s||^2 = |<d_y|d_x>|^2 * <s|P_x|s>, and the
    # complement of a qubit direction is the antipodal direction, so
    # overlap and weight of "not b" are 1 - overlap and 1 - weight of b.
    # The overlap is (cos(x/2) cos(y/2) + sin(x/2) sin(y/2))^2, no cosine
    # per pair; the weights are applied in place, as overlap * 0.5 * (w_x + w_y).
    def fill(complement, out, r, x, y):
        (cx, sx, wx), (cy, sy, wy) = x, y
        np.multiply.outer(cx[r], cy, out=out)
        out += np.multiply.outer(sx[r], sy)
        out *= out
        if complement:
            np.subtract(1.0, out, out=out)
        wx = 1.0 - wx[r] if complement else wx[r]
        if ordering == "sequential":
            out *= wx[:, None]
        else:
            out *= 0.5
            out *= np.add.outer(wx, wy)

    def axis(th):
        return np.cos(th / 2.0), np.sin(th / 2.0), _direction_weights(th, state, factor)

    joint = partial(fill, False)
    return _pair_sheets(th_a, th_b, th_c, axis, (joint, partial(fill, True), joint))


def search_violation(
    grid: AngleGrid | tuple[AngleGrid, AngleGrid, AngleGrid],
    state: ComplexStateVector,
    protocol: str = "paired",
    ordering: str = DEFAULT_ORDERING,
    factor: int = 0,
) -> ViolationWitness | None:
    """Deterministic scan of a theta grid for an inequality violation.

    The kernel locates the best tuple (ties break to the lexicographically
    smallest one); the reported triple is then re-evaluated through the
    dense operator path. A witness is returned only when the violation
    exceeds SEARCH_THRESHOLD; otherwise None. An axis with more than
    MAX_GRID_POINTS points is rejected before anything is allocated.

    The pair sheets are finite by construction: the grid angles are finite,
    so are their sines and cosines, and the state is a unit vector, so each
    cell is built from a few numbers no larger than about 1 in magnitude.
    The scan's refusal of a NaN or an infinity is never reached from here.
    """
    _check_ordering(ordering)
    _check_protocol(protocol)
    grids = (grid, grid, grid) if isinstance(grid, AngleGrid) else tuple(grid)
    if len(grids) != 3 or not all(isinstance(g, AngleGrid) for g in grids):
        raise ValidationError("grid must be one AngleGrid or a triple of them")
    for g in grids:
        if g.points > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid has {g.points} points per axis, over the limit of {MAX_GRID_POINTS}"
            )
    values = {g: g.values() for g in set(grids)}  # equal grids share one array
    th_a, th_b, th_c = (values[g] for g in grids)

    if protocol == "paired":
        _check_paired_state(state)
        jab, jbc, jac = _paired_pair_matrices(th_a, th_b, th_c, state)
    else:
        check_factor(factor, state.n_factors)
        jab, jbc, jac = _shared_pair_matrices(th_a, th_b, th_c, state, factor, ordering)

    (i, j, k), best = kernels.scan_triple(jab, jbc, jac)
    if best <= SEARCH_THRESHOLD:
        return None

    thetas = (float(th_a[i]), float(th_b[j]), float(th_c[k]))
    specs = (QubitDirection(t) for t in thetas)
    triple = wde_quantum(*specs, state, ordering, protocol, factor)
    return ViolationWitness(
        thetas=thetas,
        triple=triple,
        magnitude=triple.violation,
        protocol=protocol,
        ordering=ordering,
    )
