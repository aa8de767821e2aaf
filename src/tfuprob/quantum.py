"""Complex state vectors and Hermitian projectors: the non-commuting engine.

Promoting the classical square-root vectors from R^(2^n) to C^(2^n) and
the 0/1 diagonals to arbitrary orthogonal projectors keeps every one-place
rule intact (complement, normalization, values in [0,1]) while breaking
the two-place ones: once P and Q stop commuting, measuring P first and Q
second is a different experiment from the reverse order, and the classical
product rule picks up exactly the kind of asymmetry the measure engine
shows for undecidable propositions.

A projector takes one of three forms, fixed by how it was built:

* a diagonal mask (`from_diagonal`, the complement of a mask),
  kept as a 0/1 vector, read as `mask` and applied as one: P s keeps the
  masked entries. Two masks commute exactly. The dense matrix is built
  only on request. This is also the classical engine's projector: a
  proposition's truth mask over the complete states, applied to real
  square-root vectors;
* a qubit direction (`projector_from_spec`), a 2x2 block placed on its
  factor of a dense matrix in one step and applied as `matrix @ s`;
* a subspace span, the dense `B^T B^*` of an orthonormalized basis B.

The library's constructors are correct by construction and skip the d^3
Hermitian/idempotent check; only a matrix passed in by a caller, as
`HermitianProjector(matrix)`, is validated. Problem files are limited to
states of at most MAX_DIM amplitudes. Dynamics are out of scope: only
states, projectors and the probability rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedConditionalError, ValidationError

PROJECTOR_TOL = 1e-12
BORN_CLAMP = 1e-12
INDEPENDENCE_TOL = 1e-10
UNITARY_INVARIANCE_TOL = 1e-10
# Largest state a problem file may give, in amplitudes (ten qubits): a
# dense projector or commutator at this size holds 16 MiB.
MAX_DIM = 2**10


@dataclass(frozen=True, eq=False)
class ComplexStateVector:
    """Unit vector in C^(2^n)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).copy()
        if arr.ndim != 1:
            raise ValidationError("state vector must be one-dimensional")
        n = arr.size.bit_length() - 1
        if arr.size < 2 or (1 << n) != arr.size:
            raise ValidationError(f"state dimension {arr.size} is not a power of two >= 2")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= PROJECTOR_TOL:
            raise ValidationError(f"state norm {norm!r} is not 1 within {PROJECTOR_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n_factors(self) -> int:
        return self.dim.bit_length() - 1


class HermitianProjector:
    """Orthogonal projector: Hermitian and idempotent within 1e-12.

    `HermitianProjector(matrix)` validates the caller's matrix. The
    classmethods and `complement` build a diagonal mask or a trusted dense
    matrix without that d^3 check; `mask` is the read-only bool diagonal of
    a mask projector (None for a dense one), `matrix` is the dense form,
    built on first use for a mask, and `apply` computes P s in either form.
    """

    __slots__ = ("_matrix", "_mask")

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=complex).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("projector must be a square matrix")
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > PROJECTOR_TOL:
            raise ValidationError(f"matrix is not Hermitian: max deviation {herm!r}")
        idem = float(np.max(np.abs(arr @ arr - arr)))
        if idem > PROJECTOR_TOL:
            raise ValidationError(f"matrix is not idempotent: max deviation {idem!r}")
        arr.setflags(write=False)
        self._matrix = arr
        self._mask = None

    @classmethod
    def _trusted(cls, matrix: np.ndarray | None = None, mask: np.ndarray | None = None):
        """A projector the library built, taking ownership of the array."""
        proj = object.__new__(cls)
        for arr in (matrix, mask):
            if arr is not None:
                arr.setflags(write=False)
        proj._matrix = matrix
        proj._mask = mask
        return proj

    @property
    def dim(self) -> int:
        return self._mask.size if self._mask is not None else self._matrix.shape[0]

    @property
    def mask(self) -> np.ndarray | None:
        """The read-only bool diagonal, or None for a dense projector."""
        return self._mask

    @property
    def matrix(self) -> np.ndarray:
        """The dense, read-only d x d matrix."""
        if self._matrix is None:
            mat = np.zeros((self._mask.size,) * 2, dtype=complex)
            np.fill_diagonal(mat, self._mask)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P v; a mask keeps the entries it selects, exactly."""
        if self._mask is not None:
            return np.where(self._mask, v, 0)
        return self._matrix @ v

    @classmethod
    def from_diagonal(cls, mask) -> "HermitianProjector":
        mask = np.asarray(mask)
        if mask.ndim != 1 or mask.size == 0:
            raise ValidationError("diagonal projector needs a non-empty one-dimensional mask")
        if mask.dtype != np.bool_ and not np.all((mask == 0) | (mask == 1)):
            raise ValidationError("diagonal projector entries must be 0 or 1")
        return cls._trusted(mask=mask.astype(bool))  # a copy, even of a bool mask

    def complement(self) -> "HermitianProjector":
        if self._mask is not None:
            return HermitianProjector._trusted(mask=~self._mask)
        return HermitianProjector._trusted(
            matrix=np.eye(self.dim, dtype=complex) - self._matrix
        )


# ---------------------------------------------------------------------------
# projector construction

def check_factor(factor: int, n_factors: int) -> None:
    """Refuse a qubit index outside 0..n_factors-1."""
    if not 0 <= factor < n_factors:
        raise ValidationError(f"factor {factor} out of range for {n_factors} qubits")


@dataclass(frozen=True)
class QubitDirection:
    """Rank-one projector onto (cos(theta/2), e^(i phi) sin(theta/2)) of one
    qubit factor, identity on the others."""

    theta: float
    phi: float = 0.0
    factor: int = 0
    n_factors: int = 1

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValidationError("need at least one qubit factor")
        check_factor(self.factor, self.n_factors)


@dataclass(frozen=True, eq=False)
class SubspaceSpan:
    """Projector onto the span of explicit (possibly non-orthogonal) vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValidationError("span needs a nonempty 2-D array of row vectors")
        object.__setattr__(self, "vectors", arr)


ProjectorSpec = QubitDirection | SubspaceSpan


def qubit_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Point on the Bloch sphere as a C^2 unit vector."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt run twice (CGS2), the second pass mopping up
    rounding in near-parallel sets; a pass is one block projection.

    Raises when an input vector is linearly dependent on its predecessors:
    its residual norm falls below INDEPENDENCE_TOL times its original norm.
    """
    vecs = np.asarray(vectors, dtype=complex).copy()
    k, dim = vecs.shape
    if k > dim:
        raise ValidationError(f"{k} vectors cannot be independent in dimension {dim}")
    basis = np.zeros((k, dim), dtype=complex)
    for i in range(k):
        v = vecs[i]
        original = float(np.linalg.norm(v))
        if original == 0.0:
            raise ValidationError(f"span vector {i} is zero")
        for _ in range(2):
            v -= basis[:i].T @ (basis[:i].conj() @ v)
        residual = float(np.linalg.norm(v))
        if residual < INDEPENDENCE_TOL * original:
            raise ValidationError(
                f"span vector {i} is linearly dependent on its predecessors "
                f"(residual {residual!r} < {INDEPENDENCE_TOL} * {original!r})"
            )
        basis[i] = v / residual
    return basis


def projector_from_spec(spec: ProjectorSpec, dim: int | None = None) -> HermitianProjector:
    """Materialize a projector description as an explicit matrix.

    A required `dim` is compared with the spec's size before anything of
    that size is built.
    """
    if isinstance(spec, QubitDirection):
        n = spec.n_factors
        if dim is not None and dim != 1 << min(n, int(dim).bit_length()):
            raise ValidationError(
                f"{n} qubit factors do not match the required dim {dim}"
            )
        u = qubit_state(spec.theta, spec.phi)
        outer, inner = 1 << spec.factor, 1 << (n - spec.factor - 1)
        # I_outer (x) |u><u| (x) I_inner: the 2x2 block on every diagonal
        # (a, r) position of the factor axes, zero elsewhere
        blocks = np.zeros((outer, 2, inner, outer, 2, inner), dtype=complex)
        a = np.arange(outer)[:, None]
        r = np.arange(inner)
        blocks[a, :, r, a, :, r] = np.outer(u, u.conj())
        return HermitianProjector._trusted(matrix=blocks.reshape(1 << n, 1 << n))
    if isinstance(spec, SubspaceSpan):
        width = spec.vectors.shape[1]
        if dim is not None and width != dim:
            raise ValidationError(f"projector dim {width} does not match required {dim}")
        basis = orthonormalize(spec.vectors)  # rows b_i; P = sum_i |b_i><b_i|
        return HermitianProjector._trusted(matrix=basis.T @ basis.conj())
    raise ValidationError(f"not a projector spec: {spec!r}")


# ---------------------------------------------------------------------------
# probability rule

def born(p: HermitianProjector, s: ComplexStateVector) -> float:
    """<s|P|s>, clamped into [0,1] within a 1e-12 band, else an error."""
    if p.dim != s.dim:
        raise ValidationError(f"projector dim {p.dim} does not match state dim {s.dim}")
    raw = complex(np.vdot(s.amplitudes, p.apply(s.amplitudes)))
    if abs(raw.imag) > BORN_CLAMP:
        raise ValidationError(f"expectation has imaginary part {raw.imag!r}")
    value = raw.real
    if value < -BORN_CLAMP or value > 1.0 + BORN_CLAMP:
        raise ValidationError(f"expectation {value!r} lies outside [0,1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def sequential_conditional(
    q: HermitianProjector,
    p: HermitianProjector,
    s: ComplexStateVector,
    tol: float = PROJECTOR_TOL,
) -> float:
    """Probability of q on the state left behind by a successful p test:
    ||Q P s||^2 / ||P s||^2."""
    if p.dim != q.dim or p.dim != s.dim:
        raise ValidationError("projector/state dimensions differ")
    ps = p.apply(s.amplitudes)
    weight = float(np.vdot(ps, ps).real)
    if weight <= tol:
        raise UndefinedConditionalError(
            f"cannot condition: the condition has probability {weight!r} <= {tol}"
        )
    qps = q.apply(ps)
    return min(float(np.vdot(qps, qps).real) / weight, 1.0)


def product_asymmetry(
    p: HermitianProjector, q: HermitianProjector, s: ComplexStateVector
) -> float:
    """||Q P s||^2 - ||P Q s||^2: zero whenever P and Q commute."""
    if p.dim != q.dim or p.dim != s.dim:
        raise ValidationError("projector/state dimensions differ")
    qps = q.apply(p.apply(s.amplitudes))
    pqs = p.apply(q.apply(s.amplitudes))
    return float(np.vdot(qps, qps).real) - float(np.vdot(pqs, pqs).real)


def commutator_norm(p: HermitianProjector, q: HermitianProjector) -> float:
    """Largest entry of |PQ - QP|; zero exactly for compatible tests."""
    if p.dim != q.dim:
        raise ValidationError("projector dimensions differ")
    if p.mask is not None and q.mask is not None:
        return 0.0  # diagonal masks commute exactly
    if p.mask is not None or q.mask is not None:
        # diag(m) M - M diag(m) has entries (m_i - m_j) M_ij: |M_ij| where
        # the mask differs between row and column, exact zeros elsewhere
        mask, dense = (p.mask, q.matrix) if p.mask is not None else (q.mask, p.matrix)
        return float(max(
            np.max(np.abs(dense[np.ix_(mask, ~mask)]), initial=0.0),
            np.max(np.abs(dense[np.ix_(~mask, mask)]), initial=0.0),
        ))
    pm, qm = p.matrix, q.matrix
    return float(np.max(np.abs(pm @ qm - qm @ pm)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
