"""Three-valued propositional core: T (provable), F (refutable), U (neither).

The third value is not a third ontological truth value. Propositions are
still classically true or false; T and F record what can be *demonstrated*,
and U tags the propositions that can be neither proved nor refuted.
Negation swaps T and F and fixes U. Conjunction is determined by the
operands in eight of nine cells; the U,U cell is genuinely ambiguous,
because two undecidable propositions may or may not exclude each other.
That missing information lives in a value assignment over complete states
(the 2^n polarity conjunctions), which is also where undecidable values are
derived from in the first place:

* rule I  -- p is refutable exactly when every complete state containing
             p affirmatively is manifestly false;
* rule II -- p is provable exactly when every complete state containing
             the negation of p is manifestly false.

A table that makes neither rule fire leaves p undecidable. Manifestly
false U,U cells of a pair table encode semantic implications between the
two undecidables (p true forces q false); `detect_nexus` reads those off.

State ordering convention, used everywhere downstream: states are indexed
0..2^n-1, proposition 0 on the most significant bit, affirmative = 0.
For n=2 the order is (pq, p~q, ~pq, ~p~q).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError


class TfuValue(enum.Enum):
    """Demonstrability tag of a proposition."""

    TRUE = "T"         # manifestly true: a proof exists
    FALSE = "F"        # manifestly false: a refutation exists
    UNDECIDABLE = "U"  # neither provable nor refutable

    def __repr__(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "TfuValue":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise ValidationError(
                f"unknown truth tag {text!r}: expected one of T, F, U"
            ) from None


T = TfuValue.TRUE
F = TfuValue.FALSE
U = TfuValue.UNDECIDABLE


class Ambiguous(enum.Enum):
    """One-member marker for the U,U conjunction cell: undecidable or false.

    Two undecidable propositions conjoin to F exactly when they exclude
    each other; otherwise the conjunction is again undecidable. The operand
    values alone cannot tell the cases apart, so `conjoin` returns this
    marker and `conjunction_value` resolves it against a CompleteStateTable.
    """

    AMBIGUOUS = "U|F"

    def __repr__(self) -> str:
        return "Ambiguous(U|F)"


AMBIGUOUS = Ambiguous.AMBIGUOUS


def negate(value: TfuValue) -> TfuValue:
    """Negation: swaps provable and refutable, fixes undecidable."""
    if value is T:
        return F
    if value is F:
        return T
    return U


def conjoin(a: TfuValue, b: TfuValue) -> TfuValue | Ambiguous:
    """Conjunction at the value level.

    Total except on the U,U cell, which returns AMBIGUOUS (see Ambiguous).
    Commutative in every cell.
    """
    if a is F or b is F:
        return F
    if a is T and b is T:
        return T
    if a is T or b is T:
        return U
    return AMBIGUOUS


# ---------------------------------------------------------------------------
# complete states

def state_count(n: int) -> int:
    return 1 << n


def affirms(state: int, prop: int, n: int) -> bool:
    """Whether the complete state contains proposition `prop` unnegated."""
    return (state >> (n - 1 - prop)) & 1 == 0


def check_prop(prop: int, n: int) -> None:
    """Reject a proposition index outside 0..n-1."""
    if not 0 <= prop < n:
        raise ValidationError(f"proposition index {prop} out of range for n={n}")


@lru_cache(maxsize=4096)
def slab_index(n: int, *fixed: tuple[int, int]) -> tuple:
    """Index tuple for an array reshaped to one axis per proposition
    ((2,)*n over complete states, (3,)*n over T/F/U cells) that fixes each
    listed (proposition, digit) pair and keeps every other axis whole.

    In the canonical ordering the complete states (or cells) with those
    digits are exactly this strided slab, and its ravel() lists them in
    ascending index order, as a boolean-mask gather of the same entries
    would. Each proposition index is range-checked in the order given.
    Cached: the eval and check paths ask for the same few tuples again and
    again, and building one takes about a third as long as a small read.
    """
    index = [slice(None)] * n
    for prop, digit in fixed:
        check_prop(prop, n)
        index[prop] = digit
    return tuple(index)


def state_key(state: int, n: int) -> str:
    """Canonical '+-' key, one sign per proposition ('++' = pq)."""
    return "".join("+" if affirms(state, p, n) else "-" for p in range(n))


def state_keys(n: int) -> list[str]:
    """state_key of every complete state, in state order."""
    # row k holds proposition k's bit of every state, 0 = affirmative
    bits = np.indices((2,) * n, dtype=np.uint8).reshape(n, -1)
    signs = np.where(bits == 0, np.uint8(ord("+")), np.uint8(ord("-")))
    rows = np.ascontiguousarray(signs.T).view(f"S{n}").ravel()
    return [key.decode("ascii") for key in rows.tolist()]


def state_from_key(key: str) -> tuple[int, int]:
    """Inverse of state_key. Returns (state index, n)."""
    n = len(key)
    if n == 0 or any(ch not in "+-" for ch in key):
        raise ValidationError(f"bad state key {key!r}: expected a string of + and -")
    state = 0
    for ch in key:
        state = (state << 1) | (0 if ch == "+" else 1)
    return state, n


def default_names(n: int) -> tuple[str, ...]:
    if n <= 3:
        return tuple("pqr"[:n])
    return tuple(f"p{i}" for i in range(n))


@dataclass(frozen=True)
class CompleteStateTable:
    """T/F/U assignment over all 2^n complete states of n propositions.

    Construction validates the two consistency requirements: at most one
    state may be manifestly true (two provable polarity conjunctions would
    contradict each other), and not every state may be manifestly false
    (something is the case).
    """

    n: int
    values: tuple[TfuValue, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one proposition")
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != state_count(self.n):
            raise ValidationError(
                f"table for n={self.n} needs {state_count(self.n)} entries, "
                f"got {len(self.values)}"
            )
        if not all(isinstance(v, TfuValue) for v in self.values):
            raise ValidationError("table entries must be TfuValue")
        trues = [s for s, v in enumerate(self.values) if v is T]
        if len(trues) > 1:
            keys = ", ".join(state_key(s, self.n) for s in trues)
            raise ValidationError(
                f"more than one manifestly true complete state ({keys}): "
                "distinct complete states exclude each other"
            )
        if all(v is F for v in self.values):
            raise ValidationError(
                "every complete state is manifestly false: no state of affairs left"
            )

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[str, object]) -> "CompleteStateTable":
        """Build from {'+-': 'U', ...}; omitted states default to U."""
        values = [U] * state_count(n)
        for key, raw in mapping.items():
            state, kn = state_from_key(key)
            if kn != n:
                raise ValidationError(
                    f"state key {key!r} has {kn} signs, table has n={n}"
                )
            values[state] = raw if isinstance(raw, TfuValue) else TfuValue.parse(str(raw))
        return cls(n, tuple(values))

    @cached_property
    def false_mask(self) -> np.ndarray:
        """Read-only bool array: which complete states are manifestly false."""
        mask = np.array([v is F for v in self.values], dtype=bool)
        mask.setflags(write=False)
        return mask

    @cached_property
    def _open_count(self) -> int:
        """How many complete states are not manifestly false."""
        return self.false_mask.size - int(np.count_nonzero(self.false_mask))

    def flip(self, prop: int) -> "CompleteStateTable":
        """The table of the same situation with proposition `prop` replaced
        by its negation (swaps the two halves along that bit)."""
        bit = 1 << (self.n - 1 - prop)
        values = tuple(self.values[s ^ bit] for s in range(state_count(self.n)))
        return CompleteStateTable(self.n, values)


def _rules(table: CompleteStateTable, *fixed: tuple[int, int]) -> TfuValue:
    """Rules I and II applied to the complete states with the given
    (proposition, digit) pairs, digit 0 = affirmative: F when all of them
    are manifestly false, T when every state that is not lies among them,
    else U. The states outside are not a slab when two digits are fixed,
    so rule II compares counts instead of reading them."""
    inside = table.false_mask.reshape((2,) * table.n)[slab_index(table.n, *fixed)]
    if inside.all():
        return F
    if inside.size - np.count_nonzero(inside) == table._open_count:
        return T
    return U


def derive_value(prop: int, table: CompleteStateTable) -> TfuValue:
    """Value of a single proposition from the table, by rules I and II.

    The two rules never both fire: that needs an all-F table, which
    CompleteStateTable rejects."""
    return _rules(table, (prop, 0))


def derived_values(table: CompleteStateTable) -> tuple[TfuValue, ...]:
    return tuple(derive_value(p, table) for p in range(table.n))


def conjunction_value(
    table: CompleteStateTable,
    p: int,
    q: int,
    p_affirm: bool = True,
    q_affirm: bool = True,
) -> TfuValue:
    """Resolved value of the polarity conjunction (p, q) under the table.

    Applies rules I and II to the conjunction itself: it is F when all its
    refining complete states are F, T when all other states are F, else U.
    This is what settles the AMBIGUOUS cell of `conjoin`.
    """
    if p == q:
        check_prop(p, table.n)  # an out-of-range index is reported first
        raise ValidationError("conjunction_value needs two distinct propositions")
    return _rules(table, (p, 0 if p_affirm else 1), (q, 0 if q_affirm else 1))


@dataclass(frozen=True)
class Literal:
    """A proposition or its negation."""

    prop: int
    negated: bool

    def label(self, names: tuple[str, ...]) -> str:
        name = names[self.prop]
        return "~" + name if self.negated else name


@dataclass(frozen=True)
class Implication:
    """Semantic nexus between two undecidables: antecedent forces consequent."""

    antecedent: Literal
    consequent: Literal

    def label(self, names: tuple[str, ...]) -> str:
        return f"{self.antecedent.label(names)} => {self.consequent.label(names)}"


def detect_nexus(table: CompleteStateTable) -> list[Implication]:
    """Implications encoded by manifestly false polarity cells.

    Only pairs whose derived values are both U are examined: for decided
    propositions an F cell carries no news. A cell (p polarity a, q
    polarity b) that is F in every refinement means the a-polarity of p
    forces the opposite polarity of q. Results are in deterministic
    (p, q, polarity) order.
    """
    n = table.n
    derived = derived_values(table)
    found: list[Implication] = []
    for p, q in itertools.combinations(range(n), 2):
        if derived[p] is not U or derived[q] is not U:
            continue
        for p_affirm in (True, False):
            for q_affirm in (True, False):
                if conjunction_value(table, p, q, p_affirm, q_affirm) is F:
                    found.append(
                        Implication(
                            Literal(p, negated=not p_affirm),
                            Literal(q, negated=q_affirm),
                        )
                    )
    return found
