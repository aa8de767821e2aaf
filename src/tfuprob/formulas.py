"""Boolean formulas over indexed propositions, plus their truth masks.

A formula is a tree of `Var`, `Not`, `And` and `Or` nodes. Evaluated
against the canonical state ordering (proposition 0 on the most significant
bit, affirmative = 0), it yields a boolean mask over the 2^n complete
states; the classical engine turns a formula's mask into a diagonal
projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .logic import affirms, check_prop


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Var | Not | And | Or


def truth_mask(formula: Formula, n: int) -> np.ndarray:
    """Boolean mask over the 2^n complete states where the formula holds."""
    states = np.arange(1 << n)
    return _eval(formula, states, n)


def _eval(formula: Formula, states: np.ndarray, n: int) -> np.ndarray:
    if isinstance(formula, Var):
        check_prop(formula.index, n)
        return affirms(states, formula.index, n)
    if isinstance(formula, Not):
        return ~_eval(formula.operand, states, n)
    if isinstance(formula, And):
        return _eval(formula.left, states, n) & _eval(formula.right, states, n)
    if isinstance(formula, Or):
        return _eval(formula.left, states, n) | _eval(formula.right, states, n)
    raise ValidationError(f"not a formula node: {formula!r}")


def unparse(formula: Formula) -> str:
    """Render with explicit parentheses around every binary node."""
    if isinstance(formula, Var):
        return f"p{formula.index}"
    if isinstance(formula, Not):
        return "~" + unparse(formula.operand)
    if isinstance(formula, And):
        return f"({unparse(formula.left)} & {unparse(formula.right)})"
    return f"({unparse(formula.left)} | {unparse(formula.right)})"
