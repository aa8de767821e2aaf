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

from dataclasses import dataclass

import numpy as np

from .classical import ClassicalDistribution
from .errors import UndefinedConditionalError, ValidationError

CELL_SYMBOLS = "TFU"
_T, _F, _U = 0, 1, 2
_ALL = slice(None)


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


def _check_prop(n: int, prop: int) -> None:
    if not 0 <= prop < n:
        raise ValidationError(f"proposition index {prop} out of range for n={n}")


def _cube(m: "TfuMeasureAssignment") -> np.ndarray:
    """The measures as an n-dimensional (3, ..., 3) view: axis k is the
    digit of proposition k (0=T, 1=F, 2=U)."""
    return m.measures.reshape((3,) * m.n)


@dataclass(frozen=True, eq=False)
class TfuMeasureAssignment:
    """Nonnegative measure over the 3^n cells; only ratios ever matter."""

    n: int
    measures: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one proposition")
        arr = np.asarray(self.measures, dtype=float).copy()
        if arr.shape != (cell_count(self.n),):
            raise ValidationError(
                f"measure vector for n={self.n} needs {cell_count(self.n)} entries, "
                f"got shape {arr.shape}"
            )
        if np.any(arr < 0):
            bad = int(np.argmin(arr))
            raise ValidationError(
                f"cell {cell_key(bad, self.n)} carries negative measure {arr[bad]!r}"
            )
        if float(arr.sum()) <= 0.0:
            raise ValidationError("total measure must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "measures", arr)

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[str, float]) -> "TfuMeasureAssignment":
        """Build from {'TU': 2.0, ...}; omitted cells carry zero measure."""
        measures = np.zeros(cell_count(n))
        for key, value in mapping.items():
            cell, kn = cell_from_key(key)
            if kn != n:
                raise ValidationError(f"cell key {key!r} does not match n={n}")
            measures[cell] = float(value)
        return cls(n, measures)


def _mass(cube: np.ndarray, *fixed: tuple[int, int]) -> float:
    """Total measure of the cells with the given (axis, digit) pairs: a
    strided slab of the cube. ravel() copies it, in ascending cell order,
    into the contiguous array a boolean-mask gather of the same cells would
    give, so the sum adds the same values in the same order. np.add.reduce
    is the reduction ndarray.sum runs, without its Python wrapper."""
    index = [_ALL] * cube.ndim
    for axis, digit in fixed:
        index[axis] = digit
    return float(np.add.reduce(cube[tuple(index)].ravel()))


@dataclass(eq=False, slots=True)
class Decided:
    """Where one proposition is decided, read off an assignment: its T and F
    cells are the slabs of the cell cube with the proposition's digit fixed.
    Every probability, conditional and gap of this module is computed here."""

    prop: int
    cube: np.ndarray

    def probabilities(self) -> tuple[float, float]:
        """(prob(p), prob(~p)): the T-mass and the F-mass relative to the
        decided (T or F) mass. prob(~p) is what `probability` gives on the
        assignment with T and F swapped on p."""
        t = _mass(self.cube, (self.prop, _T))
        f = _mass(self.cube, (self.prop, _F))
        if t + f <= 0.0:
            raise UndefinedConditionalError(
                f"proposition {self.prop} is everywhere undecidable: no decided mass"
            )
        return t / (t + f), f / (f + t)

    def probability(self) -> float:
        """T-mass relative to the decided (T or F) mass."""
        return self.probabilities()[0]

    def given(self, p: "Decided") -> float:
        """Probability of this proposition among the cells where p is true."""
        if p.prop == self.prop:
            raise ValidationError("conditional needs two distinct propositions")
        tt = _mass(self.cube, (p.prop, _T), (self.prop, _T))
        tf = _mass(self.cube, (p.prop, _T), (self.prop, _F))
        if tt + tf <= 0.0:
            raise UndefinedConditionalError(
                f"no decided mass for proposition {self.prop} among cells where {p.prop} is true"
            )
        return tt / (tt + tf)


def decided(prop: int, m: TfuMeasureAssignment) -> Decided:
    _check_prop(m.n, prop)
    return Decided(prop, _cube(m))


def gap(prob_p: float, q_given_p: float, prob_q: float, p_given_q: float) -> float:
    """prob(p)*prob(q|p) - prob(q)*prob(p|q)."""
    return prob_p * q_given_p - prob_q * p_given_q


def tfu_probability(prop: int, m: TfuMeasureAssignment) -> float:
    """T-mass of the proposition relative to its decided (T or F) mass."""
    return decided(prop, m).probability()


def tfu_conditional(q: int, p: int, m: TfuMeasureAssignment) -> float:
    """Probability of q among the cells where p is manifestly true."""
    given = decided(p, m)
    return decided(q, m).given(given)


def noncommutativity_gap(p: int, q: int, m: TfuMeasureAssignment) -> float:
    """prob(p)*prob(q|p) - prob(q)*prob(p|q): zero classically, not here."""
    dp = decided(p, m)
    prob_p = dp.probability()
    dq = decided(q, m)
    q_given_p = dq.given(dp)
    return gap(prob_p, q_given_p, dq.probability(), dp.given(dq))


def swap_tf(m: TfuMeasureAssignment, prop: int) -> TfuMeasureAssignment:
    """The assignment with T and F exchanged on one proposition (its negation)."""
    _check_prop(m.n, prop)
    return TfuMeasureAssignment(m.n, np.take(_cube(m), [_F, _T, _U], axis=prop).ravel())


def complement_check(prop: int, m: TfuMeasureAssignment) -> tuple[float, float]:
    """(prob(p), prob(~p)); the two always sum to one when defined."""
    return tfu_probability(prop, m), tfu_probability(prop, swap_tf(m, prop))


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
