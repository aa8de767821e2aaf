import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tfuprob.formulas
from tfuprob.errors import FormulaError
from tfuprob.formulas import And, Not, Or, Var, _tokens, parse, truth_mask, unparse
from tfuprob.logic import default_names


def _mask_by_enumeration(formula, n):
    """Evaluate a formula state-by-state, independent of truth_mask's
    vectorized implementation."""
    def eval_at(node, state):
        if isinstance(node, Var):
            return not (state >> (n - 1 - node.index)) & 1
        if isinstance(node, Not):
            return not eval_at(node.operand, state)
        if isinstance(node, And):
            return eval_at(node.left, state) and eval_at(node.right, state)
        if isinstance(node, Or):
            return eval_at(node.left, state) or eval_at(node.right, state)
        raise TypeError(node)
    return np.array([eval_at(formula, s) for s in range(1 << n)])


def test_var_mask_follows_bit_convention():
    # proposition 0 owns the most significant bit; affirmative = bit 0
    got = truth_mask(Var(0), 2)
    assert got.tolist() == [True, True, False, False]
    assert truth_mask(Var(1), 2).tolist() == [True, False, True, False]


@pytest.mark.parametrize("text", [
    "p", "~p", "p & q", "p | q", "~(p & q)", "~p | ~q",
    "p & (q | ~r)", "(p | q) & (q | r)", "~~p",
])
def test_parse_matches_enumeration(text):
    n = 3
    formula = parse(text, n)
    np.testing.assert_array_equal(truth_mask(formula, n), _mask_by_enumeration(formula, n))


def test_precedence_not_over_and_over_or():
    n = 3
    assert parse("~p & q | r", n) == Or(And(Not(Var(0)), Var(1)), Var(2))


def test_alias_tokens():
    n = 2
    assert parse("p ∧ q", n) == parse("p and q", n) == parse("p & q", n)
    assert parse("p ∨ q", n) == parse("p or q", n)
    assert parse("¬p", n) == parse("!p", n) == parse("not p", n)


def test_numbered_variables():
    formula = parse("p0 & p3", 4)
    assert formula == And(Var(0), Var(3))


def test_unparse_round_trips():
    n = 3
    for text in ["p & (q | ~r)", "~(p & q) | r", "p"]:
        formula = parse(text, n)
        again = parse(unparse(formula), n)
        np.testing.assert_array_equal(truth_mask(formula, n), truth_mask(again, n))


@pytest.mark.parametrize("bad", [
    "", "p &", "& q", "p q", "(p", "p)", "p ** q", "4",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormulaError):
        parse(bad, 2)


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(FormulaError, match="unknown proposition"):
        parse("r", 2)  # names for n=2 are just p, q
    with pytest.raises(FormulaError, match="out of range"):
        parse("p5", 3)


def test_custom_names():
    formula = parse("alpha & ~beta", 2, names=("alpha", "beta"))
    assert formula == And(Var(0), Not(Var(1)))


class _Oracle:
    """The recursive-descent parser that `parse` replaced, kept as the
    reference its Python-precedence reading must agree with."""

    def __init__(self, tokens: list[str], names: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.names = {nm: i for i, nm in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise FormulaError("formula ended unexpectedly")
        self.pos += 1
        return tok

    def parse(self):
        node = self.or_expr()
        if self.peek() is not None:
            raise FormulaError(f"trailing input from token {self.peek()!r}")
        return node

    def or_expr(self):
        node = self.and_expr()
        while self.peek() == "|":
            self.take()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self):
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self):
        if self.peek() == "~":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.or_expr()
            if self.take() != ")":
                raise FormulaError("expected ')'")
            return node
        if tok in self.names:
            return Var(self.names[tok])
        m = re.fullmatch(r"p(\d+)", tok)
        if m:
            return Var(int(m.group(1)))
        raise FormulaError(f"unknown proposition name {tok!r}")


def _oracle_parse(text, n=None, names=None):
    if names is None:
        names = default_names(n if n is not None else 3)
    node = _Oracle(_tokens(text), names).parse()
    if n is not None:
        truth_mask(node, n)  # the range check the old parse made
    return node


def _assert_same_as_oracle(text, n, names):
    try:
        want = _oracle_parse(text, n, names)
    except FormulaError:
        with pytest.raises(FormulaError):
            parse(text, n, names)
    else:
        assert parse(text, n, names) == want


FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
NAMES = ("p", "q", "r", "p0", "p1", "p2", "p3", "p7", "p12", "p007", "x", "alpha", "beta",
         "if", "None", "True", "lambda", "_")
CUSTOM = (None, ("alpha", "beta"), ("if", "None", "p3"))
SIZES = (None, 1, 2, 3, 4, 8, 13)
SPELLINGS = {
    "&": ("&", "∧", "and", "AND", "And"),
    "|": ("|", "∨", "or", "OR"),
    "~": ("~", "!", "¬", "not", "NOT"),
}
JUNK = ("4", "*", "**", "^", "-", ",", "$", "=", "!=", "p.q", "()", "[", "'p'", "é")
TOKENS = NAMES + sum(SPELLINGS.values(), ()) + ("(", ")", "((", "))", "\n", "\t") + JUNK


@settings(FIXED, max_examples=500)
@given(
    tokens=st.lists(st.sampled_from(TOKENS), max_size=14),
    sep=st.sampled_from((" ", "", "\n", " \t ")),
    n=st.sampled_from(SIZES),
    names=st.sampled_from(CUSTOM),
)
def test_parse_agrees_with_the_oracle_on_token_soup(tokens, sep, n, names):
    _assert_same_as_oracle(sep.join(tokens), n, names)


@st.composite
def spelled(draw, depth=4):
    """A well-formed formula text with random operator spellings, in which
    each binary node is parenthesized or left to precedence at random."""
    kind = draw(st.sampled_from(("var", "~", "&", "|") if depth else ("var",)))
    if kind == "var":
        return draw(st.sampled_from(NAMES[:10]))
    if kind == "~":
        return f"{draw(st.sampled_from(SPELLINGS['~']))} {draw(spelled(depth - 1))}"
    left, right = draw(spelled(depth - 1)), draw(spelled(depth - 1))
    text = f"{left} {draw(st.sampled_from(SPELLINGS[kind]))} {right}"
    return f"({text})" if draw(st.booleans()) else text


@settings(FIXED, max_examples=200)
@given(text=spelled(), n=st.sampled_from(SIZES))
def test_parse_agrees_with_the_oracle_on_spelled_formulas(text, n):
    _assert_same_as_oracle(text, n, None)


def test_parse_builds_no_mask(monkeypatch):
    def no_mask(formula, n):
        raise AssertionError("parse built a truth mask")

    monkeypatch.setattr(tfuprob.formulas, "truth_mask", no_mask)
    assert parse("p0", 40) == Var(0)
    assert parse("p0 & ~p39", 40) == And(Var(0), Not(Var(39)))
    with pytest.raises(FormulaError, match="out of range for n=40"):
        parse("p40", 40)


@pytest.mark.parametrize("text", [
    "~" * 10**4 + "p",
    "(" * 10**4 + "p" + ")" * 10**4,
    " & ".join(["p"] * 10**4),
    "p" + "9" * 5000,
], ids=["not", "parentheses", "and-chain", "long-index"])
def test_too_deep_or_too_long_input_is_a_formula_error(text):
    with pytest.raises(FormulaError):
        parse(text, 3)
    with pytest.raises(FormulaError):
        parse(text)


@pytest.mark.parametrize("depth", [199, 200, 201])
def test_nesting_past_200_parentheses_is_where_parse_departs_from_the_oracle(depth):
    # Python's tokenizer stops at 200 nested parentheses; the old parser
    # read a few more levels before it ran out of stack
    text = "(" * depth + "p & q" + ")" * depth
    want = _oracle_parse(text, 3)
    if depth <= 200:
        assert parse(text, 3) == want == And(Var(0), Var(1))
    else:
        with pytest.raises(FormulaError, match="^malformed formula: too many nested parentheses$"):
            parse(text, 3)
