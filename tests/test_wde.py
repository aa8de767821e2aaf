import itertools
import tracemalloc
from dataclasses import replace

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
        wde_classical(ClassicalDistribution([0.25] * 4))


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


@pytest.mark.parametrize("state, protocol, factor, message", [
    (ComplexStateVector([0.6, 0.8]), "paired", 0,
     "paired protocol needs a two-qubit state, got dim 2"),
    (singlet_state(), "shared", 2, "factor 2 out of range for 2 qubits"),
    (singlet_state(), "shared", -1, "factor -1 out of range for 2 qubits"),
    (singlet_state(), "both", 0, "unknown protocol 'both': expected one of ('paired', 'shared')"),
], ids=["paired-dim-2", "factor-2", "factor-minus-1", "protocol"])
def test_search_and_evaluation_refuse_with_one_message(state, protocol, factor, message):
    # search_violation checks before it builds sheets, wde_quantum when it
    # places the directions; both raise the same text for the same condition
    calls = (
        lambda: search_violation(AngleGrid(0.0, 1.0, 0.5), state, protocol, factor=factor),
        lambda: wde_quantum(*(QubitDirection(0.1),) * 3, state, protocol=protocol, factor=factor),
    )
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


def test_angle_grid_values_inclusive():
    grid = AngleGrid(0.0, np.pi / 2, np.pi / 4)
    np.testing.assert_allclose(grid.values(), [0.0, np.pi / 4, np.pi / 2], atol=1e-15)
    # endpoint reached within float wiggle is still included
    assert len(AngleGrid(0.0, 3 * 0.1, 0.1).values()) == 4
    with pytest.raises(ValidationError, match="positive"):
        AngleGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError, match="before start"):
        AngleGrid(1.0, 0.0, 0.5)
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
    over = (at_limit, replace(at_limit, step=np.pi / 16), at_limit)
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


def test_overlap_table_matches_the_cosine_of_the_half_difference():
    # each grid holds theta and theta + pi, whose directions are
    # complementary, so the table has exact zeros and ones in real arithmetic
    rng = np.random.default_rng(45)
    base = np.concatenate([[0.0, np.pi / 4, np.pi / 2], rng.uniform(-np.pi, np.pi, size=13)])
    th_x = np.concatenate([base, base + np.pi])
    th_y = np.concatenate([base[::-1], base + np.pi, np.linspace(0.0, 2 * np.pi, 9)])
    got = wde._overlap_table(th_x, th_y)
    want = np.cos(np.subtract.outer(th_x, th_y) / 2.0) ** 2
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ordering", wde.ORDERINGS)
def test_shared_pair_sheets_match_dense_terms(m, ordering):
    rng = np.random.default_rng([46, m])
    amps = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    state = ComplexStateVector(amps / np.linalg.norm(amps))
    factor = m - 1
    th_a, th_b, th_c = (np.sort(rng.uniform(0.0, 2 * np.pi, size=n)) for n in (7, 9, 8))
    th_b[0], th_b[1] = th_a[0], th_a[0] + np.pi  # b holds a's direction and its complement
    jab, jbc, jac = wde._shared_pair_matrices(th_a, th_b, th_c, state, factor, ordering)
    for i, j, k in zip(*(rng.integers(len(th), size=40) for th in (th_a, th_b, th_c))):
        dense = wde_quantum_shared(
            *(QubitDirection(th[x]) for th, x in ((th_a, i), (th_b, j), (th_c, k))),
            state, ordering, factor,
        )
        np.testing.assert_allclose(
            [jab[i, j], jbc[j, k], jac[i, k]], [dense.ab, dense.not_b_c, dense.ac],
            rtol=0, atol=1e-12,
        )


def _whole_amplitude_table(th_x, th_y, state4):
    """The paired sheet as one expression over the whole table."""
    cx, sx = np.cos(th_x / 2.0), np.sin(th_x / 2.0)
    cy, sy = np.cos(th_y / 2.0), np.sin(th_y / 2.0)
    s00, s01, s10, s11 = state4
    amp = (
        np.multiply.outer(cx, cy) * s00
        + np.multiply.outer(cx, sy) * s01
        + np.multiply.outer(sx, cy) * s10
        + np.multiply.outer(sx, sy) * s11
    )
    return np.abs(amp) ** 2


@pytest.mark.parametrize("nx, ny", [(1, 1), (7, 3), (300, 5), (5, 70000), (1100, 1100)])
def test_pair_amplitude_table_in_row_blocks_equals_the_whole_expression(nx, ny):
    # row blocks of 2**16 // ny rows: one, several, a ragged last one, and
    # single rows longer than a block
    rng = np.random.default_rng([47, nx, ny])
    th_x = rng.uniform(-2 * np.pi, 2 * np.pi, size=nx)
    th_y = rng.uniform(-2 * np.pi, 2 * np.pi, size=ny)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for state4 in (singlet_state().amplitudes, amps / np.linalg.norm(amps)):
        got = wde._pair_amplitude_table(th_x, th_y, state4)
        assert np.array_equal(got, _whole_amplitude_table(th_x, th_y, state4))


def test_paired_sheets_memory_is_bounded():
    th = np.linspace(0.0, np.pi, 1024)
    tracemalloc.start()
    try:
        sheets = wde._paired_pair_matrices(th, th, th, singlet_state())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sheet.nbytes for sheet in sheets) == 24 * 2**20
    assert peak <= 32 * 2**20  # one expression over a whole sheet peaked at 56 MiB


@pytest.mark.parametrize("state", [singlet_state(), ComplexStateVector(
    np.array([0.1 + 0.5j, -0.3, 0.6j, 0.2 - 0.4j]) / np.sqrt(0.91))])
def test_paired_sheets_of_one_axis_array_are_one_read_only_table(state):
    th = np.linspace(-0.4, 3.5, 37)
    jab, jbc, jac = wde._paired_pair_matrices(th, th, th, state)
    assert jab is jbc is jac and not jab.flags.writeable
    # three arrays of the same angles build the same three sheets apart
    for sheet in wde._paired_pair_matrices(th, th.copy(), th.copy(), state):
        assert sheet.flags.writeable
        assert np.array_equal(sheet, jab)


def test_search_takes_the_angles_of_each_distinct_grid_once(monkeypatch):
    built = []
    values = AngleGrid.values

    def counted(grid):
        built.append(grid)
        return values(grid)

    monkeypatch.setattr(AngleGrid, "values", counted)
    grid = AngleGrid(0.0, np.pi, np.pi / 16)
    one = search_violation(grid, singlet_state(), protocol="paired")
    assert built == [grid]
    # equal grids given apart read as the one grid
    assert search_violation(tuple(AngleGrid(grid.start, grid.stop, grid.step) for _ in range(3)),
                            singlet_state(), protocol="paired") == one
    assert len(built) == 2
    other = AngleGrid(0.0, np.pi, np.pi / 8)
    search_violation((grid, other, grid), singlet_state(), protocol="paired")
    assert len(built) == 4


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: wde_quantum_shared(
                *[HermitianProjector.from_diagonal([1, 0])] * 3, singlet_state()
            ),
            "projector dim 2 does not match state dim 4",
            id="shared-projector-dim",
        ),
        pytest.param(
            lambda: wde_quantum_paired(
                QubitDirection(0.0), QubitDirection(0.0),
                HermitianProjector.from_diagonal([1, 0, 0, 0]), singlet_state(),
            ),
            "paired protocol takes QubitDirection specs",
            id="paired-projector-spec",
        ),
        pytest.param(
            lambda: AngleGrid(0.0, np.nan, 0.1),
            "grid bounds and step must be finite",
            id="grid-not-finite",
        ),
        pytest.param(
            lambda: search_violation(AngleGrid(0.0, 1.0, 0.5), singlet_state(), protocol="both"),
            "unknown protocol 'both': expected one of ('paired', 'shared')",
            id="search-protocol",
        ),
    ],
)
def test_library_checks_raise_validation_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
