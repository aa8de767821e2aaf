"""Triple-grid scan kernel.

The inequality searches all reduce to one shape of work: given three pair
matrices Jab, Jbc, Jac (joint probabilities precomputed per angle pair),
maximize

    v[i, j, k] = Jac[i, k] - (Jab[i, j] + Jbc[j, k])

over the full tuple grid. (The parenthesization is deliberate: IEEE
addition is commutative, so tuples whose left-hand terms swap roles under
a mirror symmetry of the configuration evaluate bit-identically, and the
lexicographic tie-break below stays meaningful.) Fine grids mean 1e7-1e8
tuples, the one genuinely hot loop in the package; everything else is
dense algebra in dimension at most 64.

The scan never materializes the whole (na, nb, nc) score cube. It walks
blocks of consecutive i-rows through one preallocated buffer of at most
_BLOCK_BYTES (or one row, if a row is larger), takes the first maximum of
each block with argmax, and merges blocks in ascending i with a strict
`>`. The result is therefore the first maximum of the dense cube in C
order: ties go to the lexicographically smallest (i, j, k), and every
value is the same float the dense expression would give.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Scratch for one block of the score cube; bounds the scan's memory at any
# grid size while keeping blocks large enough that the per-block numpy
# overhead stays negligible.
_BLOCK_BYTES = 32 * 2**20


def _scan_blocks(jab, jbc, jac):
    na, nb = jab.shape
    nc = jac.shape[1]
    rows = min(na, max(1, _BLOCK_BYTES // (8 * nb * nc)))
    buf = np.empty((rows, nb, nc), dtype=np.float64)
    best, arg = -np.inf, (0, 0, 0)
    for i0 in range(0, na, rows):
        i1 = min(i0 + rows, na)
        v = buf[: i1 - i0]
        np.add(jab[i0:i1, :, None], jbc[None, :, :], out=v)
        np.subtract(jac[i0:i1, None, :], v, out=v)
        flat = int(np.argmax(v))  # first occurrence within the block
        value = v.flat[flat]
        if value > best or np.isnan(value):
            i, rem = divmod(flat, nb * nc)
            best, arg = value, (i0 + i, *divmod(rem, nc))
            if np.isnan(value):  # argmax over the dense cube stops at its first NaN
                break
    return arg, float(best)


def scan_triple(jab, jbc, jac):
    """Maximize Jac[i,k] - (Jab[i,j] + Jbc[j,k]); returns ((i,j,k), value).

    Ties go to the lexicographically smallest tuple.
    """
    jab = np.ascontiguousarray(jab, dtype=np.float64)
    jbc = np.ascontiguousarray(jbc, dtype=np.float64)
    jac = np.ascontiguousarray(jac, dtype=np.float64)
    if jab.ndim != 2 or jbc.ndim != 2 or jac.ndim != 2:
        raise ValidationError("pair matrices must be 2-D")
    na, nb = jab.shape
    if jbc.shape != (nb, jac.shape[1]) or jac.shape[0] != na:
        raise ValidationError(
            f"inconsistent pair-matrix shapes {jab.shape}, {jbc.shape}, {jac.shape}"
        )
    if 0 in (na, nb, jac.shape[1]):
        raise ValidationError("empty grid axis")
    return _scan_blocks(jab, jbc, jac)
