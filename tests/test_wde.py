import itertools

import numpy as np
import pytest

from tfuprob import wde
from tfuprob.classical import (
    ClassicalDistribution,
    and_op,
    build_state_vector,
    negation_op,
    probability,
    projector_for,
)
from tfuprob.errors import ValidationError
from tfuprob.logic import T, F, U
from tfuprob.quantum import ComplexStateVector, HermitianProjector, QubitDirection, qubit_state
from tfuprob.wde import (
    AngleGrid,
    TfuPopulation,
    WdeTriple,
    search_violation,
    singlet_state,
    wde_classical,
    wde_quantum,
    wde_quantum_paired,
    wde_quantum_shared,
    wde_tfu_sets,
)

ALL = (T, F, U)


def test_triple_violation_and_holds():
    t = WdeTriple(ab=0.1, not_b_c=0.1, ac=0.5)
    assert abs(t.violation - 0.3) < 1e-15
    assert not t.holds()
    assert WdeTriple(ab=0.3, not_b_c=0.3, ac=0.6).holds()
    # numpy scalars come out as plain python types
    t2 = WdeTriple(ab=np.float64(0.5), not_b_c=np.float64(0.5), ac=np.float64(0.1))
    assert type(t2.ab) is float and type(t2.holds()) is bool


def test_classical_terms_match_mass_sums():
    rng = np.random.default_rng(4)
    for _ in range(40):
        w = rng.uniform(size=8) + 1e-6
        dist = ClassicalDistribution(w / w.sum())
        triple = wde_classical(dist)
        ww = dist.probs
        # state index: bit 2 set = a negated, bit 1 = b negated, bit 0 = c
        ab = ww[0b000] + ww[0b001]
        nbc = ww[0b010] + ww[0b110]
        ac = ww[0b000] + ww[0b010]
        np.testing.assert_allclose(
            [triple.ab, triple.not_b_c, triple.ac], [ab, nbc, ac], atol=1e-12
        )
        assert triple.holds()


def test_classical_never_violates():
    rng = np.random.default_rng(10)
    for _ in range(300):
        w = rng.uniform(size=8)
        w[rng.integers(8)] += 5.0  # lopsided masses too
        dist = ClassicalDistribution(w / w.sum())
        assert wde_classical(dist).holds()


def test_classical_requires_three_propositions():
    with pytest.raises(ValidationError, match="n=2"):
        wde_classical(ClassicalDistribution.uniform(2))


def test_population_validation():
    with pytest.raises(ValidationError, match="at least one"):
        TfuPopulation((), np.array([]))
    with pytest.raises(ValidationError, match="one weight per member"):
        TfuPopulation(((T, T, T),), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="nonnegative"):
        TfuPopulation(((T, T, T),), np.array([-1.0]))
    with pytest.raises(ValidationError, match="triple"):
        TfuPopulation(((T, T),), np.array([1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_population_rejects_nan_inf_and_an_infinite_total():
    with pytest.raises(ValidationError, match="nonnegative"):
        TfuPopulation(((T, T, T),), np.array([float("nan")]))
    for weights in ([float("inf")], [1e308, 1e308]):
        with pytest.raises(ValidationError, match="finite sum"):
            TfuPopulation(((T, T, T),) * len(weights), np.array(weights))


def test_tfu_sets_fixture_arithmetic():
    pop = TfuPopulation(
        ((T, U, T), (T, T, T), (F, F, U)),
        np.array([1.0, 0.5, 0.25]),
    )
    triple = wde_tfu_sets(pop)
    # TTT feeds ab and ac; TUT feeds only ac; FFU feeds nothing
    np.testing.assert_allclose([triple.ab, triple.not_b_c, triple.ac], [0.5, 0.0, 1.5])
    assert abs(triple.violation - 1.0) < 1e-15


def test_singleton_violates_iff_tagged_t_u_t():
    for tags in itertools.product(ALL, repeat=3):
        triple = wde_tfu_sets(TfuPopulation((tags,), np.array([1.0])))
        if tags == (T, U, T):
            assert triple.violation == 1.0
        else:
            assert triple.holds()


def test_violation_requires_an_undecidable_middle_member():
    # exhaustive two-member populations: a violating mix always contains a
    # (T, U, T) member, and loading weight onto that member always violates
    rng = np.random.default_rng(16)
    members = list(itertools.product(ALL, repeat=3))
    for m1 in members:
        for m2 in members:
            w = rng.uniform(0.1, 1.0, size=2)
            triple = wde_tfu_sets(TfuPopulation((m1, m2), w))
            if not triple.holds():
                assert (T, U, T) in (m1, m2)
    loaded = TfuPopulation(((T, T, T), (T, U, T)), np.array([1.0, 3.0]))
    assert not wde_tfu_sets(loaded).holds()


def test_singlet_state_and_pair_law():
    s = singlet_state()
    np.testing.assert_allclose(
        s.amplitudes, [0, np.sqrt(0.5), -np.sqrt(0.5), 0], atol=1e-15
    )
    # joint "both along their axes" probability is sin^2((x - y)/2) / 2
    rng = np.random.default_rng(22)
    for _ in range(40):
        x, y = rng.uniform(0, np.pi, size=2)
        triple = wde_quantum_paired(
            QubitDirection(x), QubitDirection(y), QubitDirection(0.0), s
        )
        assert abs(triple.ab - 0.5 * np.sin((x - y) / 2) ** 2) < 1e-12


def test_singlet_violation_closed_form():
    s = singlet_state()
    triple = wde_quantum_paired(
        QubitDirection(0.0), QubitDirection(np.pi / 4), QubitDirection(np.pi / 2), s
    )
    half = 0.5 * np.sin(np.pi / 8) ** 2
    assert abs(triple.ab - half) < 1e-12
    assert abs(triple.not_b_c - half) < 1e-12
    assert abs(triple.ac - 0.25) < 1e-12
    want = 0.25 - np.sin(np.pi / 8) ** 2
    assert abs(triple.violation - want) < 1e-12
    assert not triple.holds()


def test_paired_protocol_ordering_immaterial():
    # factor-0 and factor-1 projectors commute
    s = singlet_state()
    a, b, c = QubitDirection(0.3), QubitDirection(1.0), QubitDirection(2.2)
    seq = wde_quantum_paired(a, b, c, s, ordering="sequential")
    sym = wde_quantum_paired(a, b, c, s, ordering="symmetrized")
    np.testing.assert_allclose(
        [seq.ab, seq.not_b_c, seq.ac], [sym.ab, sym.not_b_c, sym.ac], atol=1e-14
    )


def test_paired_protocol_requires_two_qubits():
    with pytest.raises(ValidationError, match="two-qubit"):
        wde_quantum_paired(
            QubitDirection(0.0), QubitDirection(0.1), QubitDirection(0.2),
            ComplexStateVector([1.0, 0.0]),
        )


def test_shared_protocol_diagonal_config_is_classical():
    # commuting diagonal projectors on a square-root state: the shared run
    # must coincide with the three-proposition control
    rng = np.random.default_rng(28)
    for _ in range(25):
        w = rng.uniform(size=8) + 1e-6
        dist = ClassicalDistribution(w / w.sum())
        qvec = ComplexStateVector(build_state_vector(dist).components.astype(complex))
        specs = [
            HermitianProjector.from_diagonal(projector_for(i, 3).mask)
            for i in range(3)
        ]
        got = wde_quantum_shared(*specs, qvec)
        want = wde_classical(dist)
        np.testing.assert_allclose(
            [got.ab, got.not_b_c, got.ac],
            [want.ab, want.not_b_c, want.ac],
            atol=1e-12,
        )
        assert got.holds()


def test_shared_protocol_single_qubit_violates():
    # a = c = |0><0|, b the equatorial direction, state |0>
    s = ComplexStateVector([1.0, 0.0])
    a = QubitDirection(0.0)
    b = QubitDirection(np.pi / 2)
    seq = wde_quantum_shared(a, b, a, s, ordering="sequential")
    np.testing.assert_allclose(
        [seq.ab, seq.not_b_c, seq.ac], [0.5, 0.25, 1.0], atol=1e-12
    )
    assert abs(seq.violation - 0.25) < 1e-12
    sym = wde_quantum_shared(a, b, a, s, ordering="symmetrized")
    np.testing.assert_allclose(
        [sym.ab, sym.not_b_c, sym.ac], [0.375, 0.375, 1.0], atol=1e-12
    )
    assert abs(sym.violation - 0.25) < 1e-12


def test_wde_quantum_dispatch():
    s = singlet_state()
    specs = (QubitDirection(0.0), QubitDirection(np.pi / 4), QubitDirection(np.pi / 2))
    assert not wde_quantum(*specs, s, protocol="paired").holds()
    with pytest.raises(ValidationError, match="unknown protocol"):
        wde_quantum(*specs, s, protocol="telepathic")
    with pytest.raises(ValidationError, match="unknown ordering"):
        wde_quantum(*specs, s, ordering="reversed")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_shared_protocol_places_one_qubit_directions_on_factor(m):
    # a one-qubit direction acts on qubit `factor`: exactly the triple of
    # the same direction built for the whole register
    rng = np.random.default_rng([43, m])
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    state = ComplexStateVector(amps / np.linalg.norm(amps))
    for f in range(m):
        for ordering in wde.ORDERINGS:
            angles = rng.uniform(0.0, 2 * np.pi, size=(3, 2))
            placed = wde_quantum(
                *(QubitDirection(t, phi) for t, phi in angles),
                state, ordering, "shared", factor=f,
            )
            explicit = wde_quantum_shared(
                *(QubitDirection(t, phi, factor=f, n_factors=m) for t, phi in angles),
                state, ordering,
            )
            assert placed == explicit
            if f == 0:
                default = wde_quantum_shared(*(QubitDirection(t, phi) for t, phi in angles),
                                             state, ordering)
                assert default == explicit
        grid = AngleGrid(0.0, np.pi, np.pi / 5)
        witness = search_violation(grid, state, protocol="shared", factor=f)
        assert witness.triple == wde_quantum_shared(
            *(QubitDirection(t, factor=f, n_factors=m) for t in witness.thetas), state
        )
    for f in (m, m + 3, -1):
        with pytest.raises(ValidationError, match=f"^factor {f} out of range for {m} qubits$"):
            wde_quantum(*(QubitDirection(0.1),) * 3, state, protocol="shared", factor=f)


def test_angle_grid_values_inclusive():
    grid = AngleGrid(0.0, np.pi / 2, np.pi / 4)
    np.testing.assert_allclose(grid.values(), [0.0, np.pi / 4, np.pi / 2], atol=1e-15)
    # endpoint reached within float wiggle is still included
    assert len(AngleGrid(0.0, 3 * 0.1, 0.1).values()) == 4
    with pytest.raises(ValidationError, match="positive"):
        AngleGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError, match="before start"):
        AngleGrid(1.0, 0.0, 0.5)
    assert AngleGrid(0.0, 1.0, 0.5).with_step(0.25).step == 0.25
    with pytest.raises(ValidationError, match="too small"):
        AngleGrid(0.0, 1.0, 5e-324)


@pytest.mark.parametrize(
    "grid",
    [
        AngleGrid(0.0, 0.0, 1.0),
        AngleGrid(0.0, np.pi / 2, np.pi / 4),
        AngleGrid(0.0, 3 * 0.1, 0.1),  # endpoint within the 1e-9 slack
        AngleGrid(0.0, 1.0, 0.3),
        AngleGrid(-1.0, 2.5, 0.006),
    ],
)
def test_angle_grid_points_counts_values(grid):
    assert grid.points == grid.values().size


def test_search_rejects_axis_over_point_limit(monkeypatch):
    monkeypatch.setattr(wde, "MAX_GRID_POINTS", 4)
    at_limit = AngleGrid(0.0, 3 * np.pi / 8, np.pi / 8)
    assert search_violation(at_limit, singlet_state(), protocol="paired") is not None
    over = (at_limit, at_limit.with_step(np.pi / 16), at_limit)
    with pytest.raises(ValidationError, match="7 points per axis, over the limit of 4"):
        search_violation(over, singlet_state(), protocol="paired")


def test_search_finds_exact_singlet_witness():
    grid = AngleGrid(0.0, np.pi / 2, np.pi / 4)
    witness = search_violation(grid, singlet_state(), protocol="paired")
    assert witness is not None
    assert witness.thetas == (0.0, np.pi / 4, np.pi / 2)
    want = 0.25 - np.sin(np.pi / 8) ** 2
    assert abs(witness.magnitude - want) < 1e-9
    assert witness.protocol == "paired"
    assert witness.ordering == "symmetrized"


def test_search_ties_break_lexicographically():
    # the mirrored tuple (pi/2, pi/4, 0) scores identically; the smaller
    # tuple must win
    grid = AngleGrid(0.0, np.pi / 2, np.pi / 4)
    witness = search_violation(grid, singlet_state(), protocol="paired")
    assert witness.thetas == (0.0, np.pi / 4, np.pi / 2)


def test_search_returns_none_without_violation():
    # commuting directions only: 0 and pi are both diagonal
    grid = AngleGrid(0.0, np.pi, np.pi)
    product = ComplexStateVector([1.0, 0.0, 0.0, 0.0])
    assert search_violation(grid, product, protocol="shared") is None


def test_search_witness_matches_dense_reevaluation():
    grid = AngleGrid(0.0, np.pi, np.pi / 6)
    state = ComplexStateVector([1.0, 0.0])
    witness = search_violation(grid, state, protocol="shared", ordering="sequential")
    assert witness is not None
    specs = [QubitDirection(t) for t in witness.thetas]
    dense = wde_quantum_shared(*specs, state, ordering="sequential")
    assert witness.triple == dense
    assert abs(witness.magnitude - dense.violation) < 1e-15


def test_search_per_axis_grids():
    grids = (
        AngleGrid(0.0, 0.0, 1.0),           # a pinned to 0
        AngleGrid(np.pi / 4, np.pi / 4, 1.0),  # b pinned to pi/4
        AngleGrid(0.0, np.pi / 2, np.pi / 2),
    )
    witness = search_violation(grids, singlet_state(), protocol="paired")
    assert witness is not None
    assert witness.thetas == (0.0, np.pi / 4, np.pi / 2)


def test_search_grid_validation():
    s = singlet_state()
    with pytest.raises(ValidationError, match="one AngleGrid or a triple"):
        search_violation((AngleGrid(0, 1, 0.5),), s)
    with pytest.raises(ValidationError, match="two-qubit"):
        search_violation(
            AngleGrid(0, 1, 0.5), ComplexStateVector([1.0, 0.0]), protocol="paired"
        )


def _old_paired(a, b, c, state, ordering):
    """The paired protocol as it was: two kron-chain projectors per term."""
    def kron_on(spec, factor):
        single = np.outer(qubit_state(spec.theta, spec.phi),
                          qubit_state(spec.theta, spec.phi).conj())
        pair = (single, np.eye(2, dtype=complex))
        return np.kron(*pair) if factor == 0 else np.kron(*pair[::-1])

    def joint(m1, m2):
        first = m2 @ (m1 @ state.amplitudes)
        value = float(np.vdot(first, first).real)
        if ordering == "sequential":
            return value
        second = m1 @ (m2 @ state.amplitudes)
        return 0.5 * (value + float(np.vdot(second, second).real))

    return WdeTriple(
        ab=joint(kron_on(a, 0), kron_on(b, 1)),
        not_b_c=joint(kron_on(b, 0), kron_on(c, 1)),
        ac=joint(kron_on(a, 0), kron_on(c, 1)),
    )


def test_paired_protocol_matches_per_term_kron_projectors():
    rng = np.random.default_rng(41)
    states = [singlet_state()] + [
        ComplexStateVector(v / np.linalg.norm(v))
        for v in rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    ]
    for state in states:
        a, b, c = (QubitDirection(float(t), float(p))
                   for t, p in rng.uniform(0, np.pi, size=(3, 2)))
        for ordering in ("sequential", "symmetrized"):
            got = wde_quantum_paired(a, b, c, state, ordering)
            want = _old_paired(a, b, c, state, ordering)
            assert (got.ab, got.not_b_c, got.ac) == (want.ab, want.not_b_c, want.ac)


def test_classical_terms_equal_per_call_projectors():
    rng = np.random.default_rng(42)
    for _ in range(50):
        w = rng.uniform(size=8) + 1e-6
        dist = ClassicalDistribution(w / w.sum())
        s = build_state_vector(dist)
        a, b, c = (projector_for(i, 3) for i in range(3))
        got = wde_classical(dist)
        assert got.ab == probability(and_op(a, b), s)
        assert got.not_b_c == probability(and_op(negation_op(b), c), s)
        assert got.ac == probability(and_op(a, c), s)
