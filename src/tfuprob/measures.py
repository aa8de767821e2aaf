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
from functools import lru_cache

import numpy as np

from .classical import ClassicalDistribution
from .errors import UndefinedConditionalError, ValidationError

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


@lru_cache(maxsize=8)
def _digit_table(n: int) -> np.ndarray:
    """Read-only (n, 3^n) uint8 table: row k is the digit of proposition k
    (0=T, 1=F, 2=U) of every cell. Built on first use, n * 3^n bytes."""
    table = np.indices((3,) * n, dtype=np.uint8).reshape(n, -1)
    table.setflags(write=False)
    return table


def _digits(n: int, prop: int) -> np.ndarray:
    """Digit of `prop` (0=T, 1=F, 2=U) for every cell index, vectorized."""
    if not 0 <= prop < n:
        raise ValidationError(f"proposition index {prop} out of range for n={n}")
    return _digit_table(n)[prop]


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


@dataclass(eq=False, slots=True)
class Decided:
    """Where one proposition is decided, read off an assignment once: the
    masks of its T and F cells. Every probability, conditional and gap of
    this module is computed from these."""

    prop: int
    measures: np.ndarray
    true: np.ndarray
    false: np.ndarray

    def probability(self) -> float:
        """T-mass relative to the decided (T or F) mass."""
        t = float(self.measures[self.true].sum())
        f = float(self.measures[self.false].sum())
        if t + f <= 0.0:
            raise UndefinedConditionalError(
                f"proposition {self.prop} is everywhere undecidable: no decided mass"
            )
        return t / (t + f)

    def given(self, p: "Decided") -> float:
        """Probability of this proposition among the cells where p is true."""
        if p.prop == self.prop:
            raise ValidationError("conditional needs two distinct propositions")
        tt = float(self.measures[p.true & self.true].sum())
        tf = float(self.measures[p.true & self.false].sum())
        if tt + tf <= 0.0:
            raise UndefinedConditionalError(
                f"no decided mass for proposition {self.prop} among cells where {p.prop} is true"
            )
        return tt / (tt + tf)


def decided(prop: int, m: TfuMeasureAssignment) -> Decided:
    digits = _digits(m.n, prop)
    return Decided(prop, m.measures, digits == _T, digits == _F)


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
    digits = _digits(m.n, prop)
    step = 3 ** (m.n - 1 - prop)
    cells = np.arange(cell_count(m.n))
    # T<->F: move digit 0 cells up one step, digit 1 cells down; U stays.
    source = cells + np.where(digits == _T, step, np.where(digits == _F, -step, 0))
    return TfuMeasureAssignment(m.n, m.measures[source])


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
