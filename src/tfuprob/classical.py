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

The projector type is the complex engine's own: a proposition is a
`quantum.HermitianProjector` in mask form, and this module reads its bool
`mask` against a real vector. A dense projector, or one of another
dimension, is a ValidationError here. A selection may instead be given as
proposition indices, an int or a tuple for their conjunction, read as a
slab of the vector with no mask built.

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
from .logic import check_prop, slab_index, state_from_key, state_count
from .quantum import HermitianProjector

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
        if not (arr >= 0).all():
            bad = int(np.argmin(arr))  # the first NaN, if there is one
            kind = "negative" if arr[bad] < 0 else "NaN"
            raise ValidationError(f"distribution entry {bad} is {kind} ({float(arr[bad])})")
        total = float(arr.sum())
        if not abs(total - 1.0) <= IDENTITY_TOL:
            raise ValidationError(
                f"distribution sums to {total!r}, expected 1 within {IDENTITY_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.size.bit_length() - 1

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
        if not abs(norm - 1.0) <= IDENTITY_TOL:
            raise ValidationError(f"state vector norm {norm!r} is not 1 within {IDENTITY_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def n(self) -> int:
        return self.components.size.bit_length() - 1


def build_state_vector(dist: ClassicalDistribution) -> RealStateVector:
    return RealStateVector(np.sqrt(dist.probs))


def _mask(p: HermitianProjector, dim: int | None = None) -> np.ndarray:
    """The bool diagonal of a mask projector, checked against `dim`."""
    mask = p.mask
    if mask is None:
        raise ValidationError(
            f"the classical engine needs a diagonal mask projector, got a dense dim-{p.dim} one"
        )
    if dim is not None and mask.size != dim:
        raise ValidationError(f"projector dimensions differ: dim {mask.size} does not match {dim}")
    return mask


def projector_for(target: int | Formula, n: int) -> HermitianProjector:
    """Projector of a proposition index or a formula tree over n propositions."""
    if isinstance(target, (int, np.integer)):
        check_prop(int(target), n)  # before truth_mask allocates 2^n entries
        target = formulas.Var(int(target))
    return HermitianProjector.from_diagonal(formulas.truth_mask(target, n))


def negation_op(p: HermitianProjector) -> HermitianProjector:
    return HermitianProjector.from_diagonal(~_mask(p))


def and_op(p: HermitianProjector, q: HermitianProjector) -> HermitianProjector:
    mask = _mask(p)
    return HermitianProjector.from_diagonal(mask & _mask(q, mask.size))


def or_op(p: HermitianProjector, q: HermitianProjector) -> HermitianProjector:
    # P + Q - PQ, which for 0/1 diagonals is the entrywise union
    mask = _mask(p)
    return HermitianProjector.from_diagonal(mask | _mask(q, mask.size))


def _slab(props: int | tuple[int, ...], n: int) -> tuple:
    """`slab_index` of the complete states that affirm every listed proposition."""
    props = props if isinstance(props, tuple) else (props,)
    return slab_index(n, *[(k, 0) for k in props])


def _selected(sel: HermitianProjector | int | tuple[int, ...], vector: np.ndarray) -> np.ndarray:
    """The entries of a 2^n vector that a selection keeps, as a contiguous 1-D
    array in canonical order: the mask's gather, or the same array as the
    ravel of the indices' slab, so a dot of it adds the same values in turn."""
    if isinstance(sel, HermitianProjector):
        return vector[_mask(sel, vector.size)]
    n = vector.size.bit_length() - 1
    return vector.reshape((2,) * n)[_slab(sel, n)].ravel()


def probability(sel: HermitianProjector | int | tuple[int, ...], s: RealStateVector) -> float:
    """Squared length of the projection: <s|P|s>. Always in [0, 1]."""
    kept = _selected(sel, s.components)
    return min(float(np.dot(kept, kept)), 1.0)


def conditional(
    q: HermitianProjector | int | tuple[int, ...],
    p: HermitianProjector | int | tuple[int, ...],
    s: RealStateVector,
    tol: float = IDENTITY_TOL,
) -> float:
    """Probability of q after projecting the state onto p and renormalizing.

    Raises when the condition has probability <= tol: a null condition has
    no normalized projection. Equality with |p&q|/|p| is a theorem here,
    not the implementation; the test suite checks the two routes agree.
    """
    return project(p, s).conditional(q, tol)


@dataclass(eq=False, slots=True)
class Projection:
    """The ray of P|s> for one projector and state, built once and read by
    everything that conditions on P: the squared length <s|P|s> and the unit
    vector P|s> / ||P|s||, all NaN when the projection is null. The state's
    own ray is the projection onto the identity.

    `unit` divides by sqrt(weight), which is what np.linalg.norm computes.
    """

    weight: float
    unit: np.ndarray

    def conditional(
        self, q: HermitianProjector | int | tuple[int, ...], tol: float = IDENTITY_TOL
    ) -> float:
        """Probability of the selection q on the renormalized projection; see
        `conditional`."""
        if isinstance(q, HermitianProjector):
            _mask(q, self.unit.size)  # before a null condition; an index is checked after
        if self.weight <= tol:
            raise UndefinedConditionalError(
                f"cannot condition: the condition has probability {self.weight!r} <= {tol}"
            )
        kept = _selected(q, self.unit)
        return min(float(np.dot(kept, kept)), 1.0)

    def direction(self) -> Projection:
        """This ray; raises when the projection is null."""
        if self.weight <= 0.0:
            raise ValidationError("zero vector has no direction")
        return self


def state_direction(s: RealStateVector) -> Projection:
    return _projection(s.components)


def project(sel: HermitianProjector | int | tuple[int, ...], s: RealStateVector) -> Projection:
    """The ray of P|s>; proposition indices copy their slab into zeros, no mask."""
    if isinstance(sel, HermitianProjector):
        return _projection(np.where(_mask(sel, s.components.size), s.components, 0.0))
    n = s.n
    index = _slab(sel, n)
    vector = np.zeros(s.components.size)
    vector.reshape((2,) * n)[index] = s.components.reshape((2,) * n)[index]
    return _projection(vector)


def _projection(vector: np.ndarray) -> Projection:
    weight = float(np.dot(vector, vector))
    unit = vector / np.sqrt(weight) if weight > 0.0 else np.full(vector.size, np.nan)
    unit.setflags(write=False)
    return Projection(weight, unit)


def projected_direction(p: HermitianProjector, s: RealStateVector) -> Projection:
    """Direction of P|s>; raises when the projection is null."""
    return project(p, s).direction()


def cos2(a: Projection, b: Projection) -> float:
    """Squared cosine of the angle between two rays."""
    if a.unit.size != b.unit.size:
        raise ValidationError("directions live in different dimensions")
    return min(float(np.dot(a.unit, b.unit) ** 2), 1.0)
