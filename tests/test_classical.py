import numpy as np
import pytest

from tfuprob.classical import (
    ClassicalDistribution,
    RealStateVector,
    and_op,
    build_state_vector,
    conditional,
    cos2,
    negation_op,
    or_op,
    probability,
    project,
    projected_direction,
    projector_for,
    state_direction,
)
from tfuprob.errors import UndefinedConditionalError, ValidationError
import tfuprob.formulas
from tfuprob.formulas import Var, parse, truth_mask
from tfuprob.quantum import HermitianProjector, QubitDirection, SubspaceSpan, projector_from_spec


def _random_distribution(rng, n):
    w = rng.uniform(size=1 << n) + 1e-6
    return ClassicalDistribution(w / w.sum())


def _sum_oracle(dist, formula):
    """Plain mass summation over satisfying states — no vectors, no
    projectors."""
    mask = truth_mask(formula, dist.n)
    return float(dist.probs[mask].sum())


def test_distribution_validation():
    with pytest.raises(ValidationError, match="negative"):
        ClassicalDistribution([1.5, -0.5])
    with pytest.raises(ValidationError, match="sums to"):
        ClassicalDistribution([0.4, 0.4])
    with pytest.raises(ValidationError, match="power of two"):
        ClassicalDistribution([0.5, 0.25, 0.25])


def test_distribution_rejects_nan():
    with pytest.raises(ValidationError, match=r"entry 0 is NaN"):
        ClassicalDistribution([float("nan"), 1.0])
    with pytest.raises(ValidationError, match=r"entry 1 is NaN"):
        ClassicalDistribution([-0.5, float("nan")])  # the NaN is named first
    with pytest.raises(ValidationError, match="sums to inf"):
        ClassicalDistribution([float("inf"), 0.0])


def test_state_vector_rejects_nan():
    for bad in ([float("nan"), 1.0], [float("inf"), 0.0]):
        with pytest.raises(ValidationError, match="norm (nan|inf) is not 1"):
            RealStateVector(bad)


def test_distribution_probs_read_only():
    dist = ClassicalDistribution.uniform(2)
    with pytest.raises(ValueError):
        dist.probs[0] = 0.9


def test_from_mapping_uses_state_keys():
    dist = ClassicalDistribution.from_mapping(2, {"++": 0.25, "-+": 0.75})
    np.testing.assert_allclose(dist.probs, [0.25, 0.0, 0.75, 0.0])
    with pytest.raises(ValidationError, match="does not match n"):
        ClassicalDistribution.from_mapping(2, {"+++": 1.0})


def test_state_vector_entries_are_sqrt_probs():
    dist = ClassicalDistribution([0.25, 0.75, 0.0, 0.0])
    vec = build_state_vector(dist)
    np.testing.assert_allclose(vec.components, [0.5, np.sqrt(0.75), 0.0, 0.0])
    assert abs(np.linalg.norm(vec.components) - 1.0) < 1e-12


def test_projector_diagonal_matches_truth_mask():
    formula = parse("p & ~q", 2)
    proj = projector_for(formula, 2)
    np.testing.assert_array_equal(proj.mask, truth_mask(formula, 2))
    np.testing.assert_array_equal(proj.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_probability_is_quadratic_form():
    # <s|P|s> computed with the explicit matrix must equal the fast path
    rng = np.random.default_rng(5)
    dist = _random_distribution(rng, 3)
    vec = build_state_vector(dist)
    proj = projector_for("p | (q & ~r)", 3)
    direct = float((vec.components @ proj.matrix @ vec.components).real)
    assert abs(probability(proj, vec) - direct) < 1e-12


@pytest.mark.parametrize("text", ["p", "~q", "p & q", "p | ~q", "~(p & q)"])
def test_probability_matches_sum_oracle(text):
    rng = np.random.default_rng(17)
    for n in (2, 3):
        formula = parse(text, n)
        proj = projector_for(formula, n)
        for _ in range(25):
            dist = _random_distribution(rng, n)
            got = probability(proj, build_state_vector(dist))
            assert abs(got - _sum_oracle(dist, formula)) < 1e-12


def test_complement_and_union_identities():
    rng = np.random.default_rng(23)
    dist = _random_distribution(rng, 3)
    vec = build_state_vector(dist)
    p = projector_for("p", 3)
    q = projector_for("q | r", 3)
    assert abs(probability(negation_op(p), vec) - (1 - probability(p, vec))) < 1e-12
    union = probability(p, vec) + probability(q, vec) - probability(and_op(p, q), vec)
    assert abs(probability(or_op(p, q), vec) - union) < 1e-12


def test_conditional_matches_ratio_oracle():
    rng = np.random.default_rng(31)
    p = projector_for("p", 3)
    q = projector_for("q & ~r", 3)
    for _ in range(50):
        dist = _random_distribution(rng, 3)
        vec = build_state_vector(dist)
        want = _sum_oracle(dist, parse("p & q & ~r", 3)) / _sum_oracle(dist, parse("p", 3))
        assert abs(conditional(q, p, vec) - want) < 1e-12


def test_conditional_on_null_event_raises():
    dist = ClassicalDistribution([0.5, 0.5, 0.0, 0.0])  # ~p carries no mass
    vec = build_state_vector(dist)
    with pytest.raises(UndefinedConditionalError, match="probability"):
        conditional(projector_for("q", 2), projector_for("~p", 2), vec)


def test_cos2_identities():
    # cos^2 between the state ray and a projected ray recovers probability;
    # between two projected rays it recovers the two-sided conditional product
    rng = np.random.default_rng(41)
    p = projector_for("p", 2)
    q = projector_for("q", 2)
    for _ in range(30):
        dist = _random_distribution(rng, 2)
        vec = build_state_vector(dist)
        dp = projected_direction(p, vec)
        dq = projected_direction(q, vec)
        ds = state_direction(vec)
        assert abs(cos2(dp, ds) - probability(p, vec)) < 1e-12
        dpq = projected_direction(and_op(p, q), vec)
        assert abs(cos2(dp, dpq) - conditional(q, p, vec)) < 1e-12
        want = conditional(p, q, vec) * conditional(q, p, vec)
        assert abs(cos2(dp, dq) - want) < 1e-12


def test_projected_direction_of_null_projection_raises():
    vec = build_state_vector(ClassicalDistribution([1.0, 0.0]))
    with pytest.raises(ValidationError, match="no direction"):
        projected_direction(projector_for("~p", 1), vec)


def test_projector_accepts_strings_and_indices():
    a = projector_for("p & q", 2)
    b = projector_for(parse("p & q", 2), 2)
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(
        projector_for(1, 2).mask, truth_mask(parse("q", 2), 2)
    )


def test_projector_of_an_index_is_the_mask_of_its_variable():
    for n in range(1, 13):
        for i in range(n):
            np.testing.assert_array_equal(projector_for(i, n).mask, truth_mask(Var(i), n))
    for i, n in ((2, 2), (-1, 2), (0, 0)):
        with pytest.raises(ValidationError, match="out of range"):
            projector_for(i, n)


def test_projector_of_a_string_builds_one_mask(monkeypatch):
    calls = []

    def counted(formula, n):
        calls.append(formula)
        return truth_mask(formula, n)

    monkeypatch.setattr(tfuprob.formulas, "truth_mask", counted)
    projector_for("p & ~(q | r)", 3)
    assert len(calls) == 1


def test_projector_dimension_mismatch():
    vec = build_state_vector(ClassicalDistribution.uniform(2))
    with pytest.raises(ValidationError, match="does not match"):
        probability(projector_for("p", 3), vec)


def test_propositions_are_mask_form_hermitian_projectors():
    p, q = projector_for("p", 2), projector_for("q", 2)
    for proj in (p, negation_op(p), and_op(p, q), or_op(p, q)):
        assert isinstance(proj, HermitianProjector)
        assert proj.mask is not None and proj.mask.dtype == bool
        with pytest.raises(ValueError):
            proj.mask[0] = not proj.mask[0]
    np.testing.assert_array_equal(or_op(p, q).mask, [True, True, True, False])


_DENSE = {
    "qubit-direction": projector_from_spec(QubitDirection(0.7, factor=1, n_factors=2)),
    "span": projector_from_spec(SubspaceSpan(np.array([[1.0, 1.0, 0.0, 0.0]])), dim=4),
}
_CALLS = {
    "probability": lambda d, m, s: probability(d, s),
    "project": lambda d, m, s: project(d, s),
    "conditional-on-dense": lambda d, m, s: conditional(m, d, s),
    "conditional-of-dense": lambda d, m, s: conditional(d, m, s),
    "and_op": lambda d, m, s: and_op(m, d),
    "or_op": lambda d, m, s: or_op(d, m),
    "negation_op": lambda d, m, s: negation_op(d),
    "Projection.conditional": lambda d, m, s: project(m, s).conditional(d),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
@pytest.mark.parametrize("kind", sorted(_DENSE))
def test_dense_projector_is_a_validation_error(call, kind):
    # the classical engine reads a diagonal mask; a dense projector has none
    s = build_state_vector(ClassicalDistribution.uniform(2))
    with pytest.raises(ValidationError, match="diagonal mask"):
        _CALLS[call](_DENSE[kind], projector_for("p", 2), s)
