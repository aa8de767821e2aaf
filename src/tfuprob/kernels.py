"""Triple-grid scan kernel.

The inequality searches all reduce to one shape of work: given three pair
matrices Jab, Jbc, Jac (joint probabilities precomputed per angle pair),
maximize

    v[i, j, k] = Jac[i, k] - (Jab[i, j] + Jbc[j, k])

over the full tuple grid. (The parenthesization is deliberate: IEEE
addition is commutative, so tuples whose left-hand terms swap roles under
a mirror symmetry of the configuration evaluate bit-identically, and the
lexicographic tie-break below stays meaningful.) A search grid holds up to
2048**3 tuples (wde.MAX_GRID_POINTS per axis), the one genuinely hot loop
in the package; everything else is dense algebra in dimension at most
quantum.MAX_DIM = 1024.

The scan never materializes the whole (na, nb, nc) score cube. A cube of
at most _SINGLE_BLOCK_BYTES is scored in one block. A larger one is cut
into square blocks of b i-rows by b j-rows over all k, with b = 8, or
larger when nc is short, so that a block stays about _TILE_BYTES: small
enough to stay in a core's L2 cache while np.add, np.subtract and argmax
pass over it. Each block is scored into one reused buffer, and argmax takes
its first maximum, the lexicographically smallest (i, j, k) of its best
score.

When all three sheets are finite, one pass first bounds every block (i-rows
I by j-rows J) by

    U = max over k of  max_I Jac[i, k] - (min_IxJ Jab[i, j] + min_J Jbc[j, k])

at a cost of nc per block, 1/b**2 of scoring it. The walk is best-first:
blocks are visited in descending U, equal bounds in C order (a stable
sort). The first block's best score is reached by some tuple, so the
maximum of the cube is at least that; each later block can only raise it.
The walk stops at the first block whose U is below the best value so far,
since every later U is lower still, and skips a block whose U equals the
best value when its first tuple (i0, j0, 0) comes after the best tuple:
the block could at most tie, and a tie goes to the earlier tuple. A scored
block replaces the best on a strictly greater value, or on an equal value
at a lexicographically smaller tuple. The result is therefore the first
maximum of the dense cube in C order, whatever order the blocks were
visited in: ties go to the lexicographically smallest (i, j, k), and every
value is the same float the dense expression would give.

Each stop and skip is exact, not a heuristic: IEEE-754 rounding is
monotone, so fl(b + c) never exceeds fl(b' + c') when b <= b' and c <= c',
and fl(a - s) never falls as a rises or s falls; every tuple of the block
therefore scores at most U, overflow included. With an infinity or NaN in
a sheet, inf - inf can make a NaN that no bound sees, so every block is
scored, in C order, and a NaN comes first as in a dense argmax: the result
is the lexicographically smallest NaN tuple, if there is one.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import ValidationError

# A score cube up to this size is scored in one block with no bound pass:
# on small grids the pass and the per-block overhead cost more than pruning
# saves.
_SINGLE_BLOCK_BYTES = 8 * 2**20
# A larger cube's blocks grow to about this size when nc is short, to stay in
# a core's L2 cache while np.add, np.subtract and argmax pass over them.
_TILE_BYTES = 64 * 2**10
# The bound pass costs at most about 1/_BOUND_SHARE of scoring every tuple:
# a block is at least sqrt(_BOUND_SHARE) i-rows by as many j-rows.
_BOUND_SHARE = 64


def _block_shape(na, nb, nc):
    """(i-rows, j-rows) of one block: the whole cube, or a square of side b."""
    if 8 * na * nb * nc <= _SINGLE_BLOCK_BYTES:
        return na, nb
    side = max(isqrt(_BOUND_SHARE), isqrt(_TILE_BYTES // (8 * nc)))
    return min(side, na), min(side, nb)


def _block_bounds(jab, jbc, jac, rows, cols):
    """Upper bound of the score over each block of `rows` i-rows by `cols` j-rows."""
    na, nb = jab.shape
    nc = jac.shape[1]
    i_starts, j_starts = np.arange(0, na, rows), np.arange(0, nb, cols)
    min_ab = np.minimum.reduceat(np.minimum.reduceat(jab, j_starts, axis=1), i_starts, axis=0)
    min_bc = np.minimum.reduceat(jbc, j_starts, axis=0)
    max_ac = np.maximum.reduceat(jac, i_starts, axis=0)
    bounds = np.empty(min_ab.shape)
    step = max(1, _TILE_BYTES // (8 * j_starts.size * nc))
    buf = np.empty((step, j_starts.size, nc))
    for b0 in range(0, i_starts.size, step):
        b1 = min(b0 + step, i_starts.size)
        v = buf[: b1 - b0]
        np.add(min_ab[b0:b1, :, None], min_bc[None, :, :], out=v)
        np.subtract(max_ac[b0:b1, None, :], v, out=v)
        np.max(v, axis=2, out=bounds[b0:b1])
    return bounds


def _score_block(jab, jbc, jac, buf, i0, i1, j0, j1):
    """Score tuples i0:i1 x j0:j1 x all k into buf; returns the filled view."""
    v = buf[: i1 - i0, : j1 - j0]
    np.add(jab[i0:i1, j0:j1, None], jbc[None, j0:j1, :], out=v)
    np.subtract(jac[i0:i1, None, :], v, out=v)
    return v


def _comes_first(value, at, best, arg):
    """Whether `value` at tuple `at` precedes `best` at `arg` in a dense argmax:
    a NaN before any number, then the greater value, then the smaller tuple."""
    if best != best:
        return value != value and at < arg
    return value != value or value > best or (value == best and at < arg)


def _scan_blocks(jab, jbc, jac):
    na, nb = jab.shape
    nc = jac.shape[1]
    rows, cols = _block_shape(na, nb, nc)
    n_j = -(-nb // cols)
    n_blocks = -(-na // rows) * n_j
    buf = np.empty((rows, cols, nc), dtype=np.float64)
    bounds = None
    if n_blocks > 1 and all(np.isfinite(s).all() for s in (jab, jbc, jac)):
        flat_bounds = _block_bounds(jab, jbc, jac, rows, cols).ravel()
        # descending bound; the stable sort keeps equal bounds in C order
        order = np.argsort(-flat_bounds, kind="stable").tolist()
        bounds = flat_bounds.tolist()
    else:
        order = range(n_blocks)
    # (na, 0, 0) follows every tuple, so the first block scored replaces it
    best, arg = -np.inf, (na, 0, 0)
    for block in order:
        block_i, block_j = divmod(block, n_j)
        i0, j0 = block_i * rows, block_j * cols
        if bounds is not None:
            bound = bounds[block]
            if bound < best:  # so is every later bound
                break
            if bound == best and (i0, j0, 0) > arg:  # at most a later tie
                continue
        i1, j1 = min(i0 + rows, na), min(j0 + cols, nb)
        v = _score_block(jab, jbc, jac, buf, i0, i1, j0, j1)
        flat = int(np.argmax(v))  # the block's first maximum, or first NaN
        value = float(v.flat[flat])
        i, rem = divmod(flat, (j1 - j0) * nc)
        j, k = divmod(rem, nc)
        at = (i0 + i, j0 + j, k)
        if _comes_first(value, at, best, arg):
            best, arg = value, at
    return arg, best


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
