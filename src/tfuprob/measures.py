"""Measure-valued probability over three-valued cells.

For n propositions the joint demonstrability situation is one of 3^n
cells (each proposition tagged T, F or U), and a nonnegative measure is
spread over the cells. The probability of p is the T-mass of p within its
decided mass:

    prob(p) = ||p=T|| / (||p=T|| + ||p=F||)

with every cell where p is undecidable standing aside entirely, in the
numerator and in the denominator. Conditionals keep only the cells where
the condition is manifestly true:

    prob(q | p) = ||p=T, q=T|| / (||p=T, q=T|| + ||p=T, q=F||)

Because conditioning on p and conditioning on q discard different U-mass,
prob(p) * prob(q|p) and prob(q) * prob(p|q) need not agree: the classical
product rule fails at the level of demonstrability, with no complex
amplitudes in sight. The quantum module reproduces the same failure with
non-commuting projectors.

Cell ordering convention: cells are indexed 0..3^n-1 in base 3, with
proposition 0 on the most significant digit and digits T=0, F=1, U=2.
Keys like "TU" name cells in files and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import ClassicalDistribution
from .errors import UndefinedConditionalError, ValidationError
from .logic import check_prop, slab_index

CELL_SYMBOLS = "TFU"
_T, _F, _U = 0, 1, 2


def cell_count(n: int) -> int:
    return 3 ** n


def cell_key(cell: int, n: int) -> str:
    digits = []
    for k in range(n):
        digits.append(CELL_SYMBOLS[(cell // 3 ** (n - 1 - k)) % 3])
    return "".join(digits)


def cell_from_key(key: str) -> tuple[int, int]:
    """Inverse of cell_key. Returns (cell index, n)."""
    n = len(key)
    if n == 0:
        raise ValidationError("empty cell key")
    cell = 0
    for ch in key.upper():
        if ch not in CELL_SYMBOLS:
            raise ValidationError(f"bad cell key {key!r}: expected letters T, F, U")
        cell = cell * 3 + CELL_SYMBOLS.index(ch)
    return cell, n


@dataclass(frozen=True, eq=False)
class TfuMeasureAssignment:
    """Nonnegative measure over the 3^n cells; only ratios ever matter."""

    n: int
    measures: np.ndarray
    # the measures as an n-dimensional (3, ..., 3) read-only view: axis k
    # is the digit of proposition k (0=T, 1=F, 2=U)
    cube: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one proposition")
        arr = np.asarray(self.measures, dtype=float).copy()
        if arr.shape != (cell_count(self.n),):
            raise ValidationError(
                f"measure vector for n={self.n} needs {cell_count(self.n)} entries, "
                f"got shape {arr.shape}"
            )
        if not (arr >= 0).all():
            bad = int(np.argmin(arr))  # the first NaN, if there is one
            kind = "negative" if arr[bad] < 0 else "NaN"
            raise ValidationError(
                f"cell {cell_key(bad, self.n)} carries {kind} measure {arr[bad]!r}"
            )
        total = float(arr.sum())
        if not total > 0.0:
            raise ValidationError("total measure must be positive")
        if not total < np.inf:
            raise ValidationError(f"total measure {total!r} is not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "measures", arr)
        object.__setattr__(self, "cube", arr.reshape((3,) * self.n))

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[str, float]) -> "TfuMeasureAssignment":
        """Build from {'TU': 2.0, ...}; omitted cells carry zero measure.
        Keys are read case-insensitively, so two keys may not name one cell."""
        measures = np.zeros(cell_count(n))
        keys = {}
        for key, value in mapping.items():
            cell, kn = cell_from_key(key)
            if kn != n:
                raise ValidationError(f"cell key {key!r} does not match n={n}")
            if cell in keys:
                raise ValidationError(f"cell keys {keys[cell]!r} and {key!r} name the same cell")
            keys[cell] = key
            measures[cell] = float(value)
        return cls(n, measures)


def _mass(m: TfuMeasureAssignment, *fixed: tuple[int, int]) -> float:
    """Total measure of the cells with the given (proposition, digit) pairs:
    a slab of the cell cube. ravel() copies it into the contiguous array a
    boolean-mask gather of the same cells would give, so the sum adds the
    same values in the same order. np.add.reduce is the reduction
    ndarray.sum runs, without its Python wrapper."""
    return float(np.add.reduce(m.cube[slab_index(m.n, *fixed)].ravel()))


def _decided_mass(prop: int, m: TfuMeasureAssignment) -> tuple[float, float]:
    """(T-mass, F-mass) of a proposition; raises when both are zero."""
    t = _mass(m, (prop, _T))
    f = _mass(m, (prop, _F))
    if t + f <= 0.0:
        raise UndefinedConditionalError(
            f"proposition {prop} is everywhere undecidable: no decided mass"
        )
    return t, f


def gap(prob_p: float, q_given_p: float, prob_q: float, p_given_q: float) -> float:
    """prob(p)*prob(q|p) - prob(q)*prob(p|q)."""
    return prob_p * q_given_p - prob_q * p_given_q


def tfu_probability(prop: int, m: TfuMeasureAssignment) -> float:
    """T-mass of the proposition relative to its decided (T or F) mass."""
    t, f = _decided_mass(prop, m)
    return t / (t + f)


def tfu_conditional(q: int, p: int, m: TfuMeasureAssignment) -> float:
    """Probability of q among the cells where p is manifestly true."""
    if p == q:
        check_prop(p, m.n)  # an out-of-range index is reported first
        raise ValidationError("conditional needs two distinct propositions")
    tt = _mass(m, (p, _T), (q, _T))
    tf = _mass(m, (p, _T), (q, _F))
    if tt + tf <= 0.0:
        raise UndefinedConditionalError(
            f"no decided mass for proposition {q} among cells where {p} is true"
        )
    return tt / (tt + tf)


def noncommutativity_gap(p: int, q: int, m: TfuMeasureAssignment) -> float:
    """prob(p)*prob(q|p) - prob(q)*prob(p|q): zero classically, not here."""
    prob_p = tfu_probability(p, m)
    q_given_p = tfu_conditional(q, p, m)
    return gap(prob_p, q_given_p, tfu_probability(q, m), tfu_conditional(p, q, m))


def swap_tf(m: TfuMeasureAssignment, prop: int) -> TfuMeasureAssignment:
    """The assignment with T and F exchanged on one proposition (its negation)."""
    check_prop(prop, m.n)
    return TfuMeasureAssignment(m.n, np.take(m.cube, [_F, _T, _U], axis=prop).ravel())


def complement_check(prop: int, m: TfuMeasureAssignment) -> tuple[float, float]:
    """(prob(p), prob(~p)); the two always sum to one when defined. prob(~p)
    is the F-mass over the decided mass, what `tfu_probability` gives on
    `swap_tf(m, prop)`, read off the same two slabs."""
    t, f = _decided_mass(prop, m)
    return t / (t + f), f / (f + t)


@dataclass(frozen=True, eq=False)
class DecidabilityAugmentedSpace:
    """Classical space over n propositions plus their n decidability flags.

    Proposition k of the base space is proposition k here; "p_k is decided"
    is proposition n+k. A single classical distribution over the 2^(2n)
    complete states then induces a TFU measure on the base propositions:
    T needs the proposition and its flag both affirmative, F needs the flag
    affirmative and the proposition negated, and U is just the flag negated.
    """

    distribution: ClassicalDistribution

    def __post_init__(self):
        if self.distribution.n % 2 != 0:
            raise ValidationError(
                "augmented space needs an even number of propositions "
                "(each base proposition brings its decidability flag)"
            )

    @property
    def n(self) -> int:
        return self.distribution.n // 2


def tfu_from_augmented(space: DecidabilityAugmentedSpace) -> TfuMeasureAssignment:
    n = space.n
    probs = space.distribution.probs
    states = np.arange(probs.size)
    cells = np.zeros(probs.size, dtype=np.intp)
    for k in range(n):
        base_bit = (states >> (2 * n - 1 - k)) & 1  # 1 = negated, digit F
        flag_bit = (states >> (n - 1 - k)) & 1  # 1 = flag negated, digit U
        cells = cells * 3 + np.where(flag_bit == 1, _U, base_bit)
    # bincount adds the weights in ascending state order, as a loop would
    measures = np.bincount(cells, weights=probs, minlength=cell_count(n))
    return TfuMeasureAssignment(n, measures)
