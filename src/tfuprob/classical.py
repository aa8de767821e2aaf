"""Classical probability as geometry on the space of complete states.

A distribution over the 2^n complete states is stored, component by
component, as the unit vector of its square roots; a proposition is the
0/1 diagonal projector onto the states where it holds. Probability is then
the squared length of the projected state, negation is I - P, conjunction
is the product of projectors, disjunction is P + Q - PQ, and conditioning
is projection followed by renormalization. Several quantities collapse to
squared cosines between one-dimensional directions, which is what makes
the later complex-vector generalization a change of field rather than a
change of formalism.

Everything here commutes; the point of the module is that the identities
it satisfies are exactly the ones put at risk when the projectors stop
being diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedConditionalError, ValidationError
from . import formulas
from .formulas import Formula
from .logic import state_from_key, state_count

IDENTITY_TOL = 1e-12


def _as_pow2(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValidationError(f"{what} length {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True, eq=False)
class ClassicalDistribution:
    """Probabilities over complete states (canonical ordering), summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float).copy()
        if arr.ndim != 1:
            raise ValidationError("distribution must be one-dimensional")
        _as_pow2(arr.size, "distribution")
        if np.any(arr < 0):
            bad = int(np.argmin(arr))
            raise ValidationError(
                f"distribution entry {bad} is negative ({arr[bad]!r})"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > IDENTITY_TOL:
            raise ValidationError(
                f"distribution sums to {total!r}, expected 1 within {IDENTITY_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.size.bit_length() - 1

    @classmethod
    def uniform(cls, n: int) -> "ClassicalDistribution":
        dim = state_count(n)
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[str, float]) -> "ClassicalDistribution":
        """Build from {'+-': 0.25, ...}; omitted states get probability 0."""
        probs = np.zeros(state_count(n))
        for key, value in mapping.items():
            state, kn = state_from_key(key)
            if kn != n:
                raise ValidationError(f"state key {key!r} does not match n={n}")
            probs[state] = float(value)
        return cls(probs)


@dataclass(frozen=True, eq=False)
class RealStateVector:
    """Unit vector in R^(2^n); components are square roots of probabilities."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float).copy()
        if arr.ndim != 1:
            raise ValidationError("state vector must be one-dimensional")
        _as_pow2(arr.size, "state vector")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > IDENTITY_TOL:
            raise ValidationError(f"state vector norm {norm!r} is not 1 within {IDENTITY_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def n(self) -> int:
        return self.components.size.bit_length() - 1


def build_state_vector(dist: ClassicalDistribution) -> RealStateVector:
    return RealStateVector(np.sqrt(dist.probs))


@dataclass(frozen=True, eq=False)
class DiagonalProjector:
    """0/1 diagonal projector; idempotent and symmetric by construction."""

    mask: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mask)
        if arr.dtype != np.bool_:
            if not np.all((arr == 0) | (arr == 1)):
                raise ValidationError("projector mask entries must be 0 or 1")
            arr = arr.astype(bool)
        else:
            arr = arr.copy()
        if arr.ndim != 1:
            raise ValidationError("projector mask must be one-dimensional")
        _as_pow2(arr.size, "projector mask")
        arr.setflags(write=False)
        object.__setattr__(self, "mask", arr)

    @property
    def dim(self) -> int:
        return self.mask.size

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.mask.astype(float))


def _same_dim(a: DiagonalProjector, b: DiagonalProjector) -> None:
    if a.dim != b.dim:
        raise ValidationError(f"projector dimensions differ: {a.dim} vs {b.dim}")


def projector_for(target: int | str | Formula, n: int) -> DiagonalProjector:
    """Projector of a proposition index, a formula string, or a parsed formula."""
    if isinstance(target, (int, np.integer)):
        target = formulas.Var(int(target))
    elif isinstance(target, str):
        target = formulas.parse(target, n)
    return DiagonalProjector(formulas.truth_mask(target, n))


def negation_op(p: DiagonalProjector) -> DiagonalProjector:
    return DiagonalProjector(~p.mask)


def and_op(p: DiagonalProjector, q: DiagonalProjector) -> DiagonalProjector:
    _same_dim(p, q)
    return DiagonalProjector(p.mask & q.mask)


def or_op(p: DiagonalProjector, q: DiagonalProjector) -> DiagonalProjector:
    # P + Q - PQ, which for 0/1 diagonals is the entrywise union
    _same_dim(p, q)
    return DiagonalProjector(p.mask | q.mask)


def probability(p: DiagonalProjector, s: RealStateVector) -> float:
    """Squared length of the projection: <s|P|s>. Always in [0, 1]."""
    if p.dim != s.components.size:
        raise ValidationError(
            f"projector dim {p.dim} does not match state dim {s.components.size}"
        )
    value = float(np.dot(s.components[p.mask], s.components[p.mask]))
    return min(value, 1.0)


def conditional(
    q: DiagonalProjector,
    p: DiagonalProjector,
    s: RealStateVector,
    tol: float = IDENTITY_TOL,
) -> float:
    """Probability of q after projecting the state onto p and renormalizing.

    Raises when the condition has probability <= tol: a null condition has
    no normalized projection. Equality with |p&q|/|p| is a theorem here,
    not the implementation; the test suite checks the two routes agree.
    """
    _same_dim(p, q)
    return project(p, s).conditional(q, tol)


@dataclass(frozen=True, eq=False)
class Direction:
    """A ray: nonzero vector remembered as a unit vector."""

    unit: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.unit, dtype=float).copy()
        if arr.ndim != 1:
            raise ValidationError("direction must be one-dimensional")
        norm = float(np.linalg.norm(arr))
        if norm <= 0.0:
            raise ValidationError("zero vector has no direction")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "unit", arr)


def state_direction(s: RealStateVector) -> Direction:
    return Direction(s.components)


@dataclass(eq=False, slots=True)
class Projection:
    """P|s> of one projector and state, built once and read by everything
    that conditions on P: the vector, its squared length <s|P|s> and, when
    that is positive, the unit vector P|s> / ||P|s||.

    `unit` divides by sqrt(weight), which is what np.linalg.norm computes,
    so it is bit for bit the vector Direction(P|s>) keeps.
    """

    vector: np.ndarray
    weight: float
    unit: np.ndarray | None

    def conditional(self, q: DiagonalProjector | int, tol: float = IDENTITY_TOL) -> float:
        """Probability of q, a projector or a proposition index, on the
        renormalized projection; see `conditional`."""
        if isinstance(q, DiagonalProjector) and q.dim != self.vector.size:
            raise ValidationError(f"projector dimensions differ: {self.vector.size} vs {q.dim}")
        if self.weight <= tol:
            raise UndefinedConditionalError(
                f"cannot condition: the condition has probability {self.weight!r} <= {tol}"
            )
        # a null projection gets here only with a negative or NaN tol: 0/0
        unit = self.unit if self.unit is not None else self.vector / np.sqrt(self.weight)
        kept = unit[q.mask] if isinstance(q, DiagonalProjector) else affirmed(unit, q)
        return min(float(np.dot(kept, kept)), 1.0)

    def direction(self) -> Direction:
        """Direction of P|s>; raises when the projection is null."""
        if self.unit is None:
            raise ValidationError("zero vector has no direction")
        direction = object.__new__(Direction)  # already a unit vector
        object.__setattr__(direction, "unit", self.unit)
        return direction


def project(p: DiagonalProjector, s: RealStateVector) -> Projection:
    if p.dim != s.components.size:
        raise ValidationError("projector and state dimensions differ")
    return _projection(np.where(p.mask, s.components, 0.0))


def _projection(vector: np.ndarray) -> Projection:
    vector.setflags(write=False)
    weight = float(np.dot(vector, vector))
    if weight <= 0.0:
        return Projection(vector, weight, None)
    unit = vector / np.sqrt(weight)
    unit.setflags(write=False)
    return Projection(vector, weight, unit)


def _slab_index(n: int, props: tuple[int, ...]) -> tuple:
    index = [slice(None)] * n
    for k in props:
        if not 0 <= k < n:
            raise ValidationError(f"proposition index {k} out of range for n={n}")
        index[k] = 0
    return tuple(index)


def affirmed(vector: np.ndarray, *props: int) -> np.ndarray:
    """The entries of a 2^n vector at the complete states that affirm every
    listed proposition, in canonical order, as a contiguous 1-D array.

    In the canonical ordering those states are a strided slab: the vector
    reshaped to (2, ..., 2) with each proposition's bit fixed at 0. The
    result is the array `vector[mask]` gathers for the conjunction's truth
    mask, so a dot product of it adds the same values in the same order.
    """
    n = vector.size.bit_length() - 1
    return vector.reshape((2,) * n)[_slab_index(n, props)].ravel()


def project_affirmed(s: RealStateVector, *props: int) -> Projection:
    """`project` onto the conjunction of the listed propositions, with the
    slab of the state copied into a zero vector instead of a mask applied."""
    n = s.n
    index = _slab_index(n, props)
    vector = np.zeros(s.components.size)
    vector.reshape((2,) * n)[index] = s.components.reshape((2,) * n)[index]
    return _projection(vector)


def projected_direction(p: DiagonalProjector, s: RealStateVector) -> Direction:
    """Direction of P|s>; raises when the projection is null."""
    return project(p, s).direction()


def cos2(a: Direction, b: Direction) -> float:
    """Squared cosine of the angle between two rays."""
    if a.unit.size != b.unit.size:
        raise ValidationError("directions live in different dimensions")
    return min(float(np.dot(a.unit, b.unit) ** 2), 1.0)
