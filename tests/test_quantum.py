import numpy as np
import pytest

from tfuprob.classical import (
    ClassicalDistribution,
    build_state_vector,
    conditional as classical_conditional,
    probability as classical_probability,
    projector_for,
)
from tfuprob.errors import UndefinedConditionalError, ValidationError
from tfuprob.quantum import (
    ComplexStateVector,
    HermitianProjector,
    QubitDirection,
    SubspaceSpan,
    born,
    commutator_norm,
    haar_unitary,
    orthonormalize,
    product_asymmetry,
    projector_from_spec,
    qubit_state,
    sequential_conditional,
    tensor,
)


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ComplexStateVector(v / np.linalg.norm(v))


def test_state_vector_must_be_normalized():
    with pytest.raises(ValidationError, match="norm"):
        ComplexStateVector([1.0, 1.0])
    ComplexStateVector([np.sqrt(0.5), np.sqrt(0.5) * 1j])  # ok


def test_state_vector_rejects_nan_and_inf():
    for bad in ([float("nan"), 1.0], [1.0, complex(0.0, float("nan"))], [float("inf"), 0.0]):
        with pytest.raises(ValidationError, match="norm (nan|inf) is not 1"):
            ComplexStateVector(bad)


def test_state_vector_dimension_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        ComplexStateVector([1.0, 0.0, 0.0])


def test_projector_must_be_hermitian_idempotent():
    with pytest.raises(ValidationError, match="Hermitian"):
        HermitianProjector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="idempotent"):
        HermitianProjector(np.array([[0.5, 0.0], [0.0, 1.0]]))
    HermitianProjector(np.eye(2))  # ok


def test_complement_projector():
    p = projector_from_spec(QubitDirection(0.9))
    np.testing.assert_allclose(
        p.complement().matrix, np.eye(2) - p.matrix, atol=1e-15
    )


def test_qubit_direction_matrix_closed_form():
    theta = 1.1
    p = projector_from_spec(QubitDirection(theta))
    half = theta / 2
    want = np.array([
        [np.cos(half) ** 2, np.cos(half) * np.sin(half)],
        [np.cos(half) * np.sin(half), np.sin(half) ** 2],
    ])
    np.testing.assert_allclose(p.matrix, want, atol=1e-14)


def test_qubit_direction_on_chosen_factor():
    theta = 0.7
    p = projector_from_spec(QubitDirection(theta, factor=1, n_factors=2))
    single = projector_from_spec(QubitDirection(theta)).matrix
    np.testing.assert_allclose(p.matrix, np.kron(np.eye(2), single), atol=1e-14)
    with pytest.raises(ValidationError, match="out of range"):
        QubitDirection(theta, factor=2, n_factors=2)


def test_subspace_span_projector():
    # span of (1, i)/sqrt(2): P must fix the ray and annihilate (1, -i)
    b = np.array([[1.0, 1.0j]]) / np.sqrt(2)
    p = projector_from_spec(SubspaceSpan(b))
    inside = b[0]
    outside = np.array([1.0, -1.0j]) / np.sqrt(2)
    np.testing.assert_allclose(p.matrix @ inside, inside, atol=1e-12)
    np.testing.assert_allclose(p.matrix @ outside, 0 * outside, atol=1e-12)


def test_span_of_nonorthogonal_vectors():
    # two slanted vectors spanning the full 2-plane give the identity
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    p = projector_from_spec(SubspaceSpan(b))
    np.testing.assert_allclose(p.matrix, np.eye(2), atol=1e-12)


def test_orthonormalize_gram_schmidt():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    basis = orthonormalize(raw)
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(3), atol=1e-12)


def test_orthonormalize_rejects_dependent_vectors():
    with pytest.raises(ValidationError, match="dependent"):
        orthonormalize(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValidationError, match="cannot be independent"):
        orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError, match="zero"):
        orthonormalize(np.array([[0.0, 0.0]]))


def test_born_rule_direct_quadratic_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = _random_state(rng, 4)
        p = projector_from_spec(
            QubitDirection(rng.uniform(0, np.pi), factor=0, n_factors=2)
        )
        want = np.vdot(s.amplitudes, p.matrix @ s.amplitudes).real
        got = born(p, s)
        assert abs(got - want) < 1e-12
        assert 0.0 <= got <= 1.0


def test_born_dimension_mismatch():
    s = ComplexStateVector([1.0, 0.0])
    p = HermitianProjector.identity(4)
    with pytest.raises(ValidationError, match="does not match"):
        born(p, s)


def test_sequential_conditional_null_antecedent_raises():
    s = ComplexStateVector([1.0, 0.0])
    p = HermitianProjector(np.diag([0.0, 1.0]))
    q = HermitianProjector.identity(2)
    with pytest.raises(UndefinedConditionalError, match="probability"):
        sequential_conditional(q, p, s)


def test_twin_exhibit_quarter_asymmetry():
    # |0> state, P the equatorial direction, Q the |0><0| test
    s = ComplexStateVector([1.0, 0.0])
    p = projector_from_spec(QubitDirection(np.pi / 2))
    q = HermitianProjector(np.diag([1.0, 0.0]))
    assert abs(born(p, s) - 0.5) < 1e-12
    assert abs(sequential_conditional(q, p, s) - 0.5) < 1e-12
    assert abs(product_asymmetry(p, q, s) - (-0.25)) < 1e-12
    assert abs(commutator_norm(p, q) - 0.5) < 1e-12


def test_asymmetry_antisymmetric_and_zero_when_commuting():
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = _random_state(rng, 2)
        p = projector_from_spec(QubitDirection(rng.uniform(0, np.pi)))
        q = projector_from_spec(QubitDirection(rng.uniform(0, np.pi)))
        assert abs(product_asymmetry(p, q, s) + product_asymmetry(q, p, s)) < 1e-12
    d1 = HermitianProjector(np.diag([1.0, 0.0, 1.0, 0.0]))
    d2 = HermitianProjector(np.diag([1.0, 1.0, 0.0, 0.0]))
    s = _random_state(rng, 4)
    assert abs(product_asymmetry(d1, d2, s)) < 1e-15
    assert commutator_norm(d1, d2) == 0.0


def test_unitary_invariance():
    rng = np.random.default_rng(20)
    for _ in range(10):
        s = _random_state(rng, 4)
        p = projector_from_spec(
            QubitDirection(rng.uniform(0, np.pi), factor=1, n_factors=2)
        )
        u = haar_unitary(4, rng)
        s2 = ComplexStateVector(u @ s.amplitudes)
        p2 = HermitianProjector(u @ p.matrix @ u.conj().T)
        assert abs(born(p, s) - born(p2, s2)) < 1e-10


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(26)
    u = haar_unitary(8, rng)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_tensor_of_states_and_projectors():
    sa = ComplexStateVector(qubit_state(0.3))
    sb = ComplexStateVector(qubit_state(1.2, phi=0.4))
    s = tensor(sa, sb)
    np.testing.assert_allclose(
        s.amplitudes, np.kron(sa.amplitudes, sb.amplitudes), atol=1e-15
    )
    pa = projector_from_spec(QubitDirection(0.3))
    pb = projector_from_spec(QubitDirection(1.2))
    np.testing.assert_allclose(
        tensor(pa, pb).matrix, np.kron(pa.matrix, pb.matrix), atol=1e-15
    )
    with pytest.raises(ValidationError, match="two states or two projectors"):
        tensor(sa, pb)


def test_diagonal_sector_reduces_to_classical():
    # diagonal projectors on a real nonnegative state reproduce the
    # distribution calculus exactly
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for _ in range(15):
            w = rng.uniform(size=1 << n) + 1e-6
            dist = ClassicalDistribution(w / w.sum())
            cvec = build_state_vector(dist)
            qvec = ComplexStateVector(cvec.components.astype(complex))
            p = projector_for("p", n)
            qp = HermitianProjector.from_diagonal(p.mask)
            assert abs(born(qp, qvec) - classical_probability(p, cvec)) < 1e-12
            if n >= 2:
                q = projector_for("q", n)
                qq = HermitianProjector.from_diagonal(q.mask)
                want = classical_conditional(q, p, cvec)
                assert abs(sequential_conditional(qq, qp, qvec) - want) < 1e-12
                assert abs(product_asymmetry(qp, qq, qvec)) < 1e-15


# ---------------------------------------------------------------------------
# Structured projectors against the dense builders they replaced. Every value
# must be equal exactly; np.array_equal leaves only the sign of a zero free
# (the kron chain's 0 * x products make some -0.0 entries), and a signed zero
# cannot change a norm, a Born value or a commutator's absolute value.

def _kron_chain(spec):
    """The old qubit-direction builder: an n_factors-long np.kron chain."""
    single = np.outer(qubit_state(spec.theta, spec.phi),
                      qubit_state(spec.theta, spec.phi).conj())
    mat = np.eye(1, dtype=complex)
    for k in range(spec.n_factors):
        mat = np.kron(mat, single if k == spec.factor else np.eye(2, dtype=complex))
    return mat


def _dense_diag(mask):
    """The old from_diagonal matrix."""
    return np.diag(np.asarray(mask).astype(complex))


def _exactly_equal(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _random_mask(rng, n):
    return rng.integers(2, size=1 << n).astype(bool)


def test_qubit_direction_placement_matches_kron_chain():
    rng = np.random.default_rng(101)
    specials = (0.0, np.pi / 2, np.pi, 2 * np.pi)
    for trial in range(400):
        n = int(rng.integers(1, 8))
        theta = float(rng.choice(specials)) if trial % 8 == 0 else float(rng.uniform(0, 2 * np.pi))
        phi = 0.0 if trial % 3 == 0 else float(rng.uniform(-np.pi, 2 * np.pi))
        spec = QubitDirection(theta, phi, factor=int(rng.integers(n)), n_factors=n)
        got = projector_from_spec(spec, dim=1 << n).matrix
        assert _exactly_equal(got, _kron_chain(spec)), (trial, spec)


def test_qubit_direction_apply_matches_kron_chain_product():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        spec = QubitDirection(float(rng.uniform(0, np.pi)), float(rng.uniform(0, np.pi)),
                              factor=int(rng.integers(n)), n_factors=n)
        s = _random_state(rng, 1 << n)
        got = projector_from_spec(spec).apply(s.amplitudes)
        assert _exactly_equal(got, _kron_chain(spec) @ s.amplitudes)


def test_mask_apply_matches_dense_diagonal_product():
    rng = np.random.default_rng(103)
    for trial in range(400):
        n = int(rng.integers(1, 8))
        mask = _random_mask(rng, n)
        if trial % 10 == 0:
            mask[:] = trial % 20 == 0  # all-zero and all-one masks
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        p = HermitianProjector.from_diagonal(mask)
        assert _exactly_equal(p.apply(v), _dense_diag(mask) @ v)
        assert _exactly_equal(p.complement().apply(v), _dense_diag(~mask) @ v)


def test_mask_matrix_is_lazy_read_only_and_matches_np_diag():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        mask = _random_mask(rng, n)
        as_ints = mask.astype(int).tolist()
        p = HermitianProjector.from_diagonal(as_ints)
        assert p._matrix is None  # nothing d x d until asked for
        mat = p.matrix
        assert _exactly_equal(mat, _dense_diag(mask))
        assert mat.tobytes() == _dense_diag(mask).tobytes()
        assert p.matrix is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 0.5
    with pytest.raises(AttributeError):
        p.matrix = np.eye(p.dim)
    np.testing.assert_array_equal(HermitianProjector.identity(8).matrix, np.eye(8))


def test_mask_commutator_is_zero_like_the_dense_product():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        mp, mq = _random_mask(rng, n), _random_mask(rng, n)
        dp, dq = _dense_diag(mp), _dense_diag(mq)
        want = float(np.max(np.abs(dp @ dq - dq @ dp)))
        p, q = HermitianProjector.from_diagonal(mp), HermitianProjector.from_diagonal(mq)
        got = commutator_norm(p, q)
        assert got == want == 0.0 and type(got) is float
        assert p._matrix is None and q._matrix is None


def test_mixed_commutator_uses_the_dense_matrices():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        mask = _random_mask(rng, n)
        spec = QubitDirection(float(rng.uniform(0, np.pi)), factor=int(rng.integers(n)),
                              n_factors=n)
        d, k = _dense_diag(mask), _kron_chain(spec)
        want = float(np.max(np.abs(d @ k - k @ d)))
        got = commutator_norm(HermitianProjector.from_diagonal(mask), projector_from_spec(spec))
        assert got == want


def test_mask_times_dense_commutator_matches_dense_product():
    # max |M_ij| over m_i != m_j, with no d^3 product and no dense mask,
    # equals max |PQ - QP| exactly, in both argument orders
    rng = np.random.default_rng(108)
    for trial in range(300):
        n = int(rng.integers(1, 7))  # dims 2..64
        mask = _random_mask(rng, n)
        if trial % 10 == 0:
            mask[:] = trial % 20 == 0  # uniform masks commute with everything
        if trial % 3 == 0:
            spec = QubitDirection(float(rng.uniform(0, np.pi)), float(rng.uniform(0, np.pi)),
                                  factor=int(rng.integers(n)), n_factors=n)
        else:
            rank = int(rng.integers(1, (1 << n) + 1))
            spec = SubspaceSpan(rng.standard_normal((rank, 1 << n))
                                + 1j * rng.standard_normal((rank, 1 << n)))
        dense = projector_from_spec(spec)
        if trial % 4 == 0:  # a caller-built matrix takes the same path
            dense = HermitianProjector(dense.matrix)
        masked = HermitianProjector.from_diagonal(mask)
        d, m = _dense_diag(mask), dense.matrix
        for got, want in (
            (commutator_norm(masked, dense), d @ m - m @ d),
            (commutator_norm(dense, masked), m @ d - d @ m),
        ):
            want = float(np.max(np.abs(want)))
            assert got == want and type(got) is float, (trial, got, want)
        assert masked._matrix is None


def test_span_projector_matches_dense_basis_product():
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        dim = 1 << n
        k = int(rng.integers(1, min(dim, 12) + 1))
        vecs = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
        basis = orthonormalize(vecs)
        p = projector_from_spec(SubspaceSpan(vecs), dim=dim)
        assert p.matrix.tobytes() == (basis.T @ basis.conj()).tobytes()
        mat = p.matrix
        assert float(np.max(np.abs(mat @ mat - mat))) <= 1e-12
        assert float(np.max(np.abs(mat - mat.conj().T))) <= 1e-12


def test_span_at_the_independence_edge_stays_idempotent():
    # the second vector leaves the first's line by just over INDEPENDENCE_TOL
    rng = np.random.default_rng(108)
    for dim in (2, 8, 64):
        for eps in (3e-10, 1e-9, 1e-8):
            first = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            away = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            away -= np.vdot(first, away) / np.vdot(first, first) * first
            away *= eps * np.linalg.norm(first) / np.linalg.norm(away)
            vecs = np.array([first, first + away])
            p = projector_from_spec(SubspaceSpan(vecs), dim=dim)
            mat = p.matrix
            assert float(np.max(np.abs(mat @ mat - mat))) <= 1e-12, (dim, eps)
            assert float(np.max(np.abs(mat - mat.conj().T))) <= 1e-12, (dim, eps)
            assert abs(np.trace(mat).real - 2.0) <= 1e-12
    with pytest.raises(ValidationError, match="dependent"):
        orthonormalize(np.array([[1.0, 0.0], [1.0, 1e-11]]))


def test_library_constructors_do_not_validate(monkeypatch):
    def refuse(self, matrix):
        raise AssertionError("a library-built projector was re-validated")

    monkeypatch.setattr(HermitianProjector, "__init__", refuse)
    projector_from_spec(QubitDirection(0.4, factor=1, n_factors=3)).complement()
    projector_from_spec(SubspaceSpan(np.array([[1.0, 1.0, 0.0, 0.0]])), dim=4).complement()
    HermitianProjector.from_diagonal([1, 0]).complement()
    HermitianProjector.identity(4)
    with pytest.raises(AssertionError, match="re-validated"):
        HermitianProjector(np.eye(2))


def test_dense_complement_matches_identity_minus_matrix():
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        spec = QubitDirection(float(rng.uniform(0, np.pi)), factor=int(rng.integers(n)),
                              n_factors=n)
        p = projector_from_spec(spec)
        assert _exactly_equal(p.complement().matrix, np.eye(1 << n, dtype=complex) - p.matrix)


def test_mask_is_a_read_only_copy_and_none_when_dense():
    given = np.array([True, False, True, True])
    p = HermitianProjector.from_diagonal(given)
    given[0] = False
    assert p.mask.tolist() == [True, False, True, True]
    with pytest.raises(ValueError):
        p.mask[1] = True
    assert p.complement().mask.tolist() == [False, True, False, False]
    assert projector_from_spec(QubitDirection(0.3)).mask is None
    assert HermitianProjector(np.eye(2)).mask is None


@pytest.mark.parametrize("mask", [[], [[1, 0], [0, 1]], np.ones((2, 2)), [1, 2], [0.5, 1]])
def test_from_diagonal_rejects_bad_masks(mask):
    with pytest.raises(ValidationError):
        HermitianProjector.from_diagonal(mask)


def test_span_width_checked_before_orthonormalizing():
    vecs = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])  # also dependent
    with pytest.raises(ValidationError, match="projector dim 4 does not match required 2"):
        projector_from_spec(SubspaceSpan(vecs), dim=2)
