import numpy as np
import pytest

from tfuprob.errors import ValidationError
from tfuprob.formulas import And, Not, Or, Var, truth_mask, unparse


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


P, Q, R = Var(0), Var(1), Var(2)
TREES = [
    P, Not(P), And(P, Q), Or(P, Q), Not(And(P, Q)), Or(Not(P), Not(Q)),
    And(P, Or(Q, Not(R))), And(Or(P, Q), Or(Q, R)), Not(Not(P)),
]


@pytest.mark.parametrize("formula", TREES, ids=unparse)
def test_truth_mask_matches_enumeration(formula):
    n = 3
    np.testing.assert_array_equal(truth_mask(formula, n), _mask_by_enumeration(formula, n))


def test_unparse_pins_trees():
    assert unparse(P) == "p0"
    assert unparse(Not(Var(12))) == "~p12"
    assert unparse(And(P, Or(Q, Not(R)))) == "(p0 & (p1 | ~p2))"
    assert unparse(Or(Not(And(P, Q)), R)) == "(~(p0 & p1) | p2)"


@pytest.mark.parametrize("node", [5, "p", None, (0,)])
def test_a_foreign_node_is_a_validation_error(node):
    with pytest.raises(ValidationError, match="not a formula node"):
        truth_mask(And(P, node), 2)
