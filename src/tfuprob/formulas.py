"""Boolean formulas over indexed propositions, plus their truth masks.

A formula evaluated against the canonical state ordering (proposition 0 on
the most significant bit, affirmative = 0) yields a boolean mask over the
2^n complete states; the classical engine turns a formula's mask into a
diagonal projector. `parse` maps the word and symbol aliases onto `~ & |`
and hands the result to Python's own expression parser (`ast`), so the
precedence and associativity are Python's: `~` binds tightest, then `&`,
then `|`, and both binary operators group to the left. As a grammar,
loosest binding first:

    or_expr  := and_expr (('|' | '∨' | 'or') and_expr)*
    and_expr := unary (('&' | '∧' | 'and') unary)*
    unary    := ('~' | '!' | '¬' | 'not') unary | atom
    atom     := name | '(' or_expr ')'

Names are either the short letters p, q, r (propositions 0..2) or indexed
identifiers p0, p1, ... with no upper bound. Parsing builds no mask: with
n given, each index is range-checked as its node is built.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormulaError
from .logic import default_names


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
        if not 0 <= formula.index < n:
            raise FormulaError(
                f"proposition index {formula.index} out of range for n={n}"
            )
        return (states >> (n - 1 - formula.index)) & 1 == 0
    if isinstance(formula, Not):
        return ~_eval(formula.operand, states, n)
    if isinstance(formula, And):
        return _eval(formula.left, states, n) & _eval(formula.right, states, n)
    if isinstance(formula, Or):
        return _eval(formula.left, states, n) | _eval(formula.right, states, n)
    raise FormulaError(f"not a formula node: {formula!r}")


def unparse(formula: Formula, names: tuple[str, ...] | None = None) -> str:
    """Render with explicit parentheses around every binary node."""
    if isinstance(formula, Var):
        if names is not None and formula.index < len(names):
            return names[formula.index]
        return f"p{formula.index}"
    if isinstance(formula, Not):
        return "~" + unparse(formula.operand, names)
    if isinstance(formula, And):
        return f"({unparse(formula.left, names)} & {unparse(formula.right, names)})"
    return f"({unparse(formula.left, names)} | {unparse(formula.right, names)})"


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()&|~!∧∨¬]))"
)
_OP_ALIASES = {"∧": "&", "∨": "|", "¬": "~", "!": "~"}
_WORD_OPS = {"and": "&", "or": "|", "not": "~"}


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise FormulaError(f"cannot tokenize formula at {text[pos:]!r}")
        pos = m.end()
        tok = m.group("name") or m.group("op")
        low = tok.lower()
        if low in _WORD_OPS:
            tok = _WORD_OPS[low]
        else:
            tok = _OP_ALIASES.get(tok, tok)
        out.append(tok)
    return out


def parse(text: str, n: int | None = None, names: tuple[str, ...] | None = None) -> Formula:
    """Parse a formula string. When n is given, indices are range-checked."""
    if names is None:
        names = default_names(n if n is not None else 3)
    index = {nm: i for i, nm in enumerate(names)}

    def var(name: str) -> Var:
        if name in index:
            i = index[name]
        elif name[:1] == "p" and name[1:].isdigit():
            i = int(name[1:])
        else:
            raise FormulaError(f"unknown proposition name {name!r}")
        if n is not None and not i < n:
            raise FormulaError(f"proposition index {i} out of range for n={n}")
        return Var(i)

    def build(node: ast.expr) -> Formula:
        if isinstance(node, ast.Name):
            return var(node.id[1:])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return Not(build(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            kind = And if isinstance(node.op, ast.BitAnd) else Or
            return kind(build(node.left), build(node.right))
        raise FormulaError("malformed formula: misplaced '('")

    # every name gets a leading "_", so that none reads as a Python keyword
    source = " ".join(tok if tok in "()&|~" else "_" + tok for tok in _tokens(text))
    try:
        return build(ast.parse(source, mode="eval").body)
    except SyntaxError as exc:
        raise FormulaError(f"malformed formula: {exc.msg}") from None
    except (RecursionError, MemoryError, ValueError):
        raise FormulaError("formula is nested too deeply or has too long an index") from None
