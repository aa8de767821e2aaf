import itertools

import numpy as np
import pytest

from tfuprob.errors import ValidationError
from tfuprob.logic import (
    AMBIGUOUS,
    CompleteStateTable,
    Implication,
    Literal,
    T,
    F,
    U,
    TfuValue,
    conjoin,
    conjunction_value,
    default_names,
    derive_value,
    derived_values,
    detect_nexus,
    negate,
    state_from_key,
    state_key,
    state_keys,
)

ALL = (T, F, U)


def test_negation_table():
    assert negate(T) is F
    assert negate(F) is T
    assert negate(U) is U


@pytest.mark.parametrize("a", ALL)
def test_negation_involution(a):
    assert negate(negate(a)) is a


def test_conjunction_table_all_nine_cells():
    expected = {
        (T, T): T, (T, F): F, (T, U): U,
        (F, T): F, (F, F): F, (F, U): F,
        (U, T): U, (U, F): F, (U, U): AMBIGUOUS,
    }
    for (a, b), want in expected.items():
        assert conjoin(a, b) is want, (a, b)


@pytest.mark.parametrize("a,b", list(itertools.product(ALL, repeat=2)))
def test_conjunction_commutes(a, b):
    assert conjoin(a, b) is conjoin(b, a)


def test_ambiguous_is_a_singleton_marker():
    assert conjoin(U, U) is AMBIGUOUS
    assert list(type(AMBIGUOUS)) == [AMBIGUOUS]
    assert "U|F" in repr(AMBIGUOUS)


def test_state_keys_round_trip():
    for n in (1, 2, 3):
        for state in range(1 << n):
            key = state_key(state, n)
            assert state_from_key(key) == (state, n)
    assert state_key(0, 2) == "++"  # p q both affirmative
    assert state_key(1, 2) == "+-"  # q negated: q sits on the low bit


def test_table_rejects_two_true_states():
    with pytest.raises(ValidationError, match=r"\+\+.*\-\-|more than one"):
        CompleteStateTable(2, (T, U, U, T))


def test_table_rejects_all_false():
    with pytest.raises(ValidationError, match="manifestly false"):
        CompleteStateTable(1, (F, F))


def test_table_rejects_wrong_size():
    with pytest.raises(ValidationError, match="4 entries"):
        CompleteStateTable(2, (U, U, U))


def test_derive_rule_i_refutes():
    # n=1: the affirmative state is manifestly false, so p is refutable
    table = CompleteStateTable(1, (F, U))
    assert derive_value(0, table) is F


def test_derive_rule_ii_proves():
    # n=1: the negated state is manifestly false, so p is provable
    table = CompleteStateTable(1, (U, F))
    assert derive_value(0, table) is T


def test_derive_undecidable_when_neither_rule_fires():
    table = CompleteStateTable.from_mapping(2, {"++": "F"})
    assert derived_values(table) == (U, U)


def _independent_rules(table):
    """Quantifier-style restatement of rules I and II, written separately
    from derive_value on purpose."""
    out = []
    n = table.n
    for p in range(n):
        affirmative = [s for s in range(1 << n) if not (s >> (n - 1 - p)) & 1]
        negative = [s for s in range(1 << n) if (s >> (n - 1 - p)) & 1]
        if all(table.values[s] is F for s in affirmative):
            out.append(F)
        elif all(table.values[s] is F for s in negative):
            out.append(T)
        else:
            out.append(U)
    return tuple(out)


def _all_valid_tables(n):
    for combo in itertools.product(ALL, repeat=1 << n):
        trues = sum(1 for v in combo if v is T)
        if trues > 1 or all(v is F for v in combo):
            continue
        yield CompleteStateTable(n, combo)


@pytest.mark.parametrize("n", [1, 2])
def test_rules_iff_directions_exhaustive_small(n):
    for table in _all_valid_tables(n):
        assert derived_values(table) == _independent_rules(table)


def test_derivation_negation_duality_random_n3():
    rng = np.random.default_rng(11)
    values = np.array(ALL, dtype=object)
    seen = 0
    while seen < 120:
        combo = tuple(values[rng.integers(3, size=8)])
        try:
            table = CompleteStateTable(3, combo)
        except ValidationError:
            continue
        seen += 1
        for p in range(3):
            assert derive_value(p, table) is negate(derive_value(p, table.flip(p)))


def test_nexus_reads_off_false_conjunction_cell():
    table = CompleteStateTable.from_mapping(2, {"++": "F"})
    found = detect_nexus(table)
    assert [imp.label(default_names(table.n)) for imp in found] == ["p => ~q"]


def test_nexus_empty_without_false_cells():
    table = CompleteStateTable(2, (U, U, U, U))
    assert detect_nexus(table) == []


def test_nexus_skips_pairs_with_decided_members():
    # p is refutable here, so the false cells say nothing new about (p, q)
    table = CompleteStateTable(2, (F, F, U, U))
    assert derive_value(0, table) is F
    assert detect_nexus(table) == []


def test_nexus_all_four_polarity_cells():
    # ++ and -- false: p forces ~q and ~p forces q
    table = CompleteStateTable(2, (F, U, U, F))
    labels = [imp.label(default_names(table.n)) for imp in detect_nexus(table)]
    assert labels == ["p => ~q", "~p => q"]


def test_nexus_on_three_propositions_uses_marginal_folds():
    # (p,q) cell ++ is false only if both of its refinements are false
    table = CompleteStateTable.from_mapping(3, {"+++": "F", "++-": "F"})
    labels = [imp.label(default_names(table.n)) for imp in detect_nexus(table)]
    assert "p => ~q" in labels
    # a half-covered cell must not register
    partial = CompleteStateTable.from_mapping(3, {"+++": "F"})
    assert all("p => ~q" != imp.label(default_names(3)) for imp in detect_nexus(partial))


def test_nexus_labels_name_both_literals_from_the_names_given():
    # (p2, p3) cell ++ is false in all four refinements: p2 forces ~p3
    table = CompleteStateTable.from_mapping(4, {k + "++": "F" for k in ("++", "+-", "-+", "--")})
    assert detect_nexus(table) == [Implication(Literal(2, False), Literal(3, True))]
    assert [imp.label(default_names(4)) for imp in detect_nexus(table)] == ["p2 => ~p3"]


def test_conjunction_value_resolves_ambiguity_both_ways():
    exclusive = CompleteStateTable.from_mapping(2, {"++": "F"})
    assert conjunction_value(exclusive, 0, 1) is F
    open_table = CompleteStateTable(2, (U, U, U, U))
    assert conjunction_value(open_table, 0, 1) is U
    # and rule II can even prove a conjunction: everything else false
    proved = CompleteStateTable.from_mapping(2, {"+-": "F", "-+": "F", "--": "F", "++": "U"})
    assert conjunction_value(proved, 0, 1) is T


def test_tfu_value_parse_and_errors():
    assert TfuValue.parse("t") is T
    assert TfuValue.parse(" U ") is U
    with pytest.raises(ValidationError, match="unknown truth tag"):
        TfuValue.parse("X")


# ---------------------------------------------------------------------------
# reference oracles: the per-state walks that derive_value, detect_nexus's
# all-false cells and conjunction_value replaced with slab reads; the reads
# must agree with them exactly

def _affirms_oracle(state, prop, n):
    return (state >> (n - 1 - prop)) & 1 == 0


def _derive_oracle(prop, table):
    n = table.n
    aff_all_false = all(
        table.values[s] is F for s in range(1 << n) if _affirms_oracle(s, prop, n)
    )
    neg_all_false = all(
        table.values[s] is F for s in range(1 << n) if not _affirms_oracle(s, prop, n)
    )
    if aff_all_false:
        return F
    if neg_all_false:
        return T
    return U


def _cell_all_false_oracle(table, p, p_affirm, q, q_affirm):
    n = table.n
    return all(
        table.values[s] is F
        for s in range(1 << n)
        if _affirms_oracle(s, p, n) == p_affirm and _affirms_oracle(s, q, n) == q_affirm
    )


def _conjunction_oracle(table, p, q, p_affirm, q_affirm):
    n = table.n
    inside = {
        s for s in range(1 << n)
        if _affirms_oracle(s, p, n) == p_affirm and _affirms_oracle(s, q, n) == q_affirm
    }
    if all(table.values[s] is F for s in inside):
        return F
    if all(table.values[s] is F for s in range(1 << n) if s not in inside):
        return T
    return U


def _assert_matches_oracles(table):
    n = table.n
    for p in range(n):
        assert derive_value(p, table) is _derive_oracle(p, table)
    for p, q in itertools.permutations(range(n), 2):
        for p_affirm, q_affirm in itertools.product((True, False), repeat=2):
            assert conjunction_value(table, p, q, p_affirm, q_affirm) is _conjunction_oracle(
                table, p, q, p_affirm, q_affirm
            )
            all_false = conjunction_value(table, p, q, p_affirm, q_affirm) is F
            assert all_false is _cell_all_false_oracle(table, p, p_affirm, q, q_affirm)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_masks_match_state_walk_on_every_valid_table(n):
    count = 0
    for table in _all_valid_tables(n):
        _assert_matches_oracles(table)
        count += 1
    # 3^(2^n) tables, less those with two or more T cells and the all-F one
    assert count == {1: 7, 2: 47, 3: 1279}[n]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_masks_match_state_walk_on_random_tables(n):
    rng = np.random.default_rng([51, n])
    values = np.array(ALL, dtype=object)
    for _ in range(12):
        # mostly F, so that all-false cells and both rules do fire
        combo = list(values[rng.choice(3, size=1 << n, p=[0.0, 0.85, 0.15])])
        if rng.random() < 0.5:
            combo[int(rng.integers(1 << n))] = T
        if all(v is F for v in combo):
            combo[0] = U
        _assert_matches_oracles(CompleteStateTable(n, tuple(combo)))


def test_false_mask_is_read_only_and_cached():
    table = CompleteStateTable.from_mapping(2, {"++": "F", "--": "T"})
    mask = table.false_mask
    assert mask.tolist() == [True, False, False, False]
    assert table.false_mask is mask
    with pytest.raises(ValueError):
        mask[0] = False


@pytest.mark.parametrize("prop", [-1, 3, 7])
def test_out_of_range_proposition_rejected(prop):
    table = CompleteStateTable.from_mapping(3, {"+++": "F"})
    with pytest.raises(ValidationError, match="out of range"):
        derive_value(prop, table)
    with pytest.raises(ValidationError, match="out of range"):
        conjunction_value(table, prop, 0 if prop != 0 else 1)
    with pytest.raises(ValidationError, match="out of range"):
        conjunction_value(table, 1, prop)
    # an out-of-range index is reported before the repeated one
    with pytest.raises(ValidationError, match="out of range"):
        conjunction_value(table, prop, prop)


def test_conjunction_value_needs_distinct_propositions():
    table = CompleteStateTable.from_mapping(3, {"+++": "F"})
    with pytest.raises(ValidationError, match="two distinct propositions"):
        conjunction_value(table, 1, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_state_keys_match_state_key(n):
    assert state_keys(n) == [state_key(s, n) for s in range(1 << n)]


@pytest.mark.parametrize(
    "n, values, message",
    [
        pytest.param(0, (), "need at least one proposition", id="no-proposition"),
        pytest.param(1, ("T", "F"), "table entries must be TfuValue", id="entries-not-tags"),
    ],
)
def test_table_checks_raise_validation_errors(n, values, message):
    with pytest.raises(ValidationError) as info:
        CompleteStateTable(n, values)
    assert str(info.value) == message
