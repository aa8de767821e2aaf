import itertools

import numpy as np
import pytest

from tfuprob.classical import ClassicalDistribution, build_state_vector, conditional, projector_for
from tfuprob.errors import UndefinedConditionalError, ValidationError
from tfuprob.measures import (
    DecidabilityAugmentedSpace,
    TfuMeasureAssignment,
    cell_from_key,
    cell_key,
    complement_check,
    noncommutativity_gap,
    tfu_conditional,
    tfu_from_augmented,
    tfu_probability,
)


def _count_oracle(m, prop):
    """Tally T and F cell mass for one proposition by walking cell keys."""
    t = f = 0.0
    for cell, w in enumerate(m.measures):
        tag = cell_key(cell, m.n)[prop]
        if tag == "T":
            t += w
        elif tag == "F":
            f += w
    return t / (t + f)


def _random_assignment(rng, n):
    return TfuMeasureAssignment(n, rng.uniform(size=3 ** n) + 1e-9)


def test_cell_keys_round_trip():
    for n in (1, 2, 3):
        for cell in range(3 ** n):
            assert cell_from_key(cell_key(cell, n)) == (cell, n)
    assert cell_key(0, 2) == "TT"
    assert cell_key(5, 2) == "FU"  # base-3 big-endian, digits T=0 F=1 U=2
    with pytest.raises(ValidationError, match="bad cell key"):
        cell_from_key("TX")


def test_assignment_validation():
    with pytest.raises(ValidationError, match="negative"):
        TfuMeasureAssignment(1, [1.0, -0.1, 0.0])
    with pytest.raises(ValidationError, match="positive"):
        TfuMeasureAssignment(1, [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="entries"):
        TfuMeasureAssignment(2, [1.0, 1.0, 1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_assignment_rejects_nan_inf_and_an_infinite_total():
    with pytest.raises(ValidationError, match="carries NaN measure"):
        TfuMeasureAssignment(1, [float("nan"), 1.0, 0.0])
    with pytest.raises(ValidationError, match="carries negative measure"):
        TfuMeasureAssignment(1, [1.0, -0.5, 0.0])
    for bad in ([float("inf"), 1.0, 0.0], [1e308, 1e308, 0.0]):
        with pytest.raises(ValidationError, match="total measure inf is not finite"):
            TfuMeasureAssignment(1, bad)


def test_probability_matches_count_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(40):
            m = _random_assignment(rng, n)
            for prop in range(n):
                assert abs(tfu_probability(prop, m) - _count_oracle(m, prop)) < 1e-12


def test_probability_ignores_undecided_mass():
    # piling weight on U cells must not move the decided ratio
    base = TfuMeasureAssignment.from_mapping(1, {"T": 3.0, "F": 1.0})
    heavy = TfuMeasureAssignment.from_mapping(1, {"T": 3.0, "F": 1.0, "U": 40.0})
    assert tfu_probability(0, base) == 0.75
    assert tfu_probability(0, heavy) == 0.75


def test_probability_undefined_when_everywhere_undecided():
    m = TfuMeasureAssignment.from_mapping(2, {"UU": 1.0, "UT": 2.0})
    with pytest.raises(UndefinedConditionalError, match="everywhere undecidable"):
        tfu_probability(0, m)
    # ...but q is fine
    assert abs(tfu_probability(1, m) - 1.0) < 1e-15


def test_scale_invariance():
    rng = np.random.default_rng(9)
    w = rng.uniform(size=9) + 1e-9
    a = TfuMeasureAssignment(2, w)
    b = TfuMeasureAssignment(2, w * 137.0)
    for prop in range(2):
        assert abs(tfu_probability(prop, a) - tfu_probability(prop, b)) < 1e-12
    assert abs(tfu_conditional(1, 0, a) - tfu_conditional(1, 0, b)) < 1e-12


def test_conditional_counts_tt_against_tf():
    m = TfuMeasureAssignment.from_mapping(
        2, {"TT": 2.0, "TF": 6.0, "TU": 5.0, "FT": 1.0}
    )
    # cells with q undecided are excluded from both sides; FT has p false
    assert tfu_conditional(1, 0, m) == 0.25


def test_conditional_needs_distinct_propositions():
    m = TfuMeasureAssignment.from_mapping(1, {"T": 1.0})
    with pytest.raises(ValidationError, match="distinct"):
        tfu_conditional(0, 0, m)


def test_conditional_undefined_without_decided_mass():
    m = TfuMeasureAssignment.from_mapping(2, {"TU": 1.0, "FT": 1.0})
    with pytest.raises(UndefinedConditionalError, match="no decided mass"):
        tfu_conditional(1, 0, m)


def _swap_tf(m, prop):
    """The assignment with T and F exchanged on one proposition (its negation)."""
    return TfuMeasureAssignment(m.n, np.take(m.cube, [1, 0, 2], axis=prop).ravel())


def test_swap_tf_complement_identity():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3):
        for _ in range(30):
            m = _random_assignment(rng, n)
            for prop in range(n):
                direct, flipped = complement_check(prop, m)
                assert abs(flipped - (1 - direct)) < 1e-12


def test_swap_tf_permutes_cells():
    m = TfuMeasureAssignment.from_mapping(2, {"TF": 1.0, "UT": 2.0})
    flipped = _swap_tf(m, 0)
    assert flipped.measures[cell_from_key("FF")[0]] == 1.0
    assert flipped.measures[cell_from_key("UT")[0]] == 2.0  # U untouched
    # prob(~p) is the probability of p on the swapped assignment
    assert complement_check(0, m)[1] == tfu_probability(0, flipped) == 0.0


def test_gap_exhibit_exact():
    m = TfuMeasureAssignment.from_mapping(2, {"TT": 1.0, "TF": 1.0, "UT": 2.0})
    assert tfu_probability(0, m) == 1.0
    assert tfu_conditional(1, 0, m) == 0.5
    assert tfu_probability(1, m) == 0.75
    assert tfu_conditional(0, 1, m) == 1.0
    assert noncommutativity_gap(0, 1, m) == -0.25


def test_gap_antisymmetry():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = _random_assignment(rng, 2)
        assert abs(noncommutativity_gap(0, 1, m) + noncommutativity_gap(1, 0, m)) < 1e-12


def test_gap_vanishes_without_undecided_mass():
    rng = np.random.default_rng(27)
    for _ in range(40):
        w = np.zeros(9)
        for i, j in itertools.product((0, 1), repeat=2):
            w[i * 3 + j] = rng.uniform() + 1e-9
        m = TfuMeasureAssignment(2, w)
        assert abs(noncommutativity_gap(0, 1, m)) < 1e-12


def test_augmented_space_needs_even_propositions():
    with pytest.raises(ValidationError, match="even"):
        DecidabilityAugmentedSpace(ClassicalDistribution([0.125] * 8))


def test_augmented_space_hand_case():
    # n=1: proposition 0 is the base, proposition 1 its decidability flag;
    # flag negated reads U regardless of the base bit
    dist = ClassicalDistribution.from_mapping(
        2, {"++": 0.2, "-+": 0.3, "+-": 0.1, "--": 0.4}
    )
    m = tfu_from_augmented(DecidabilityAugmentedSpace(dist))
    np.testing.assert_allclose(m.measures, [0.2, 0.3, 0.5], atol=1e-15)


def test_augmented_space_conditional_identity():
    # the TFU value of p equals the classical probability of its base bit
    # conditioned on its decidability flag
    rng = np.random.default_rng(39)
    for n in (1, 2):
        for _ in range(25):
            w = rng.uniform(size=1 << (2 * n)) + 1e-6
            dist = ClassicalDistribution(w / w.sum())
            space = DecidabilityAugmentedSpace(dist)
            m = tfu_from_augmented(space)
            vec = build_state_vector(dist)
            for prop in range(n):
                base = projector_for(prop, 2 * n)
                flag = projector_for(n + prop, 2 * n)
                want = conditional(base, flag, vec)
                assert abs(tfu_probability(prop, m) - want) < 1e-12


def test_augmented_gap_matches_direct_gap():
    # the same noncommutativity shows up whether the U mass is native or
    # carried by decidability flags
    rng = np.random.default_rng(45)
    for _ in range(20):
        w = rng.uniform(size=16) + 1e-6
        dist = ClassicalDistribution(w / w.sum())
        m = tfu_from_augmented(DecidabilityAugmentedSpace(dist))
        g = noncommutativity_gap(0, 1, m)
        forward = tfu_probability(0, m) * tfu_conditional(1, 0, m)
        backward = tfu_probability(1, m) * tfu_conditional(0, 1, m)
        assert abs(g - (forward - backward)) < 1e-12


# ---------------------------------------------------------------------------
# reference oracles: the per-call digit arithmetic, whose masks the slab
# reads replaced, and the per-cell loops; results must agree bit for bit

def _digits_oracle(n, prop):
    return (np.arange(3 ** n) // 3 ** (n - 1 - prop)) % 3


def _tfu_from_augmented_oracle(space):
    n = space.n
    probs = space.distribution.probs
    measures = np.zeros(3 ** n)
    for state in range(probs.size):
        cell = 0
        for k in range(n):
            base_affirm = (state >> (2 * n - 1 - k)) & 1 == 0
            flag_affirm = (state >> (n - 1 - k)) & 1 == 0
            digit = 2 if not flag_affirm else (0 if base_affirm else 1)
            cell = cell * 3 + digit
        measures[cell] += probs[state]
    return measures


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# n=10: slabs of 3^9 cells, past numpy's 8192-item reduction buffer, where
# summing a strided slab without ravel() would change the order of the adds
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10])
def test_slab_reads_match_digit_masks(n):
    # every sum is read from a slab of the cell cube; the per-call digit
    # arithmetic builds the masks the sums used to gather through
    rng = np.random.default_rng([61, n])
    for scale in (1.0, 1e-5, 1e5):
        # 1e-300 cells next to ordinary ones, so a read that dropped or
        # moved cells would show (exact zeros: test_eval_oracles)
        w = rng.uniform(size=3 ** n) * (rng.random(3 ** n) < 0.8) * scale + 1e-300
        m = TfuMeasureAssignment(n, w)
        for prop in range(n):
            dp = _digits_oracle(n, prop)
            t, f = float(w[dp == 0].sum()), float(w[dp == 1].sum())
            assert repr(complement_check(prop, m)) == repr((t / (t + f), f / (t + f)))
            assert repr(tfu_probability(prop, m)) == repr(t / (t + f))
            step = 3 ** (n - 1 - prop)
            source = np.arange(3 ** n) + np.where(dp == 0, step, np.where(dp == 1, -step, 0))
            swapped = _swap_tf(m, prop)
            assert _same_bits(swapped.measures, w[source])
            # the negation read off the F slab is the swapped assignment's probability
            assert repr(complement_check(prop, m)[1]) == repr(tfu_probability(prop, swapped))
        for p, q in itertools.permutations(range(n), 2):
            dp, dq = _digits_oracle(n, p), _digits_oracle(n, q)
            tt = float(w[(dp == 0) & (dq == 0)].sum())
            tf = float(w[(dp == 0) & (dq == 1)].sum())
            assert repr(tfu_conditional(q, p, m)) == repr(tt / (tt + tf))


@pytest.mark.parametrize("prop", [-1, 2, 5])
def test_digits_reject_out_of_range_proposition(prop):
    m = TfuMeasureAssignment(2, np.ones(9))
    for read in (complement_check, tfu_probability):
        with pytest.raises(ValidationError, match="out of range"):
            read(prop, m)
    with pytest.raises(ValidationError, match="out of range"):
        tfu_conditional(prop, 0 if prop != 0 else 1, m)
    with pytest.raises(ValidationError, match="out of range"):
        tfu_conditional(0 if prop != 0 else 1, prop, m)
    # an out-of-range index is reported before the repeated one
    with pytest.raises(ValidationError, match="out of range"):
        tfu_conditional(prop, prop, m)


def test_slab_reads_leave_measures_read_only():
    m = TfuMeasureAssignment(3, np.arange(27.0))
    complement_check(1, m)
    tfu_conditional(2, 1, m)
    with pytest.raises(ValueError):
        m.cube[0, 0, 0] = 2.0
    assert m.measures.tolist() == list(range(27))


@pytest.mark.parametrize("n", range(1, 6))
def test_tfu_from_augmented_matches_state_loop(n):
    rng = np.random.default_rng([71, n])
    for _ in range(4):
        w = rng.uniform(size=1 << (2 * n)) * (rng.random(1 << (2 * n)) < 0.8) + 1e-6
        space = DecidabilityAugmentedSpace(ClassicalDistribution(w / w.sum()))
        assert _same_bits(tfu_from_augmented(space).measures, _tfu_from_augmented_oracle(space))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: cell_from_key(""), "empty cell key", id="empty-key"),
        pytest.param(
            lambda: TfuMeasureAssignment(0, [1.0]),
            "need at least one proposition",
            id="no-proposition",
        ),
    ],
)
def test_library_checks_raise_validation_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
