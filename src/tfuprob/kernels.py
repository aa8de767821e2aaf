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
into tiles of about _TILE_BYTES, small enough to stay in a core's L2 cache
while np.add, np.subtract and argmax pass over it: one i-row by a chunk of
j-rows, a contiguous run of the cube in C order. The tiles are walked in
that order; each takes the first maximum of its run with argmax, and a
tile replaces the best so far only with a strictly greater value
(or with the first NaN, where a dense argmax would stop). The result is
therefore the first maximum of the dense cube in C order: ties go to the
lexicographically smallest (i, j, k), and every value is the same float
the dense expression would give.

Most tiles cannot beat the best tuple, and are skipped unscored. When all
three sheets are finite, one pass first bounds every block of tiles
(i-rows I by j-rows J) by

    U = max over k of  max_I Jac[i, k] - (min_IxJ Jab[i, j] + min_J Jbc[j, k])

The block of highest U is scored first; its best score F is reached by
some tuple, so the maximum of the cube is at least F. A block with U < F
holds no maximum: the walk takes the surviving blocks, U >= F, from
np.nonzero and visits only their tiles, still in C order. It also skips a
surviving tile whose U <= the best so far (it could at most tie, and a tie
goes to the earlier tuple). Each skip is exact, not a heuristic: IEEE-754
rounding is monotone, so fl(b + c) never exceeds fl(b' + c') when b <= b'
and c <= c', and fl(a - s) never falls as a rises or s falls; every tuple
of the block therefore scores at most U, overflow included. With an
infinity or NaN in a sheet, inf - inf can make a NaN that no bound sees,
so every tile is walked and none is skipped.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# A score cube up to this size is scored in one block with no bound pass:
# on small grids the pass and the per-tile overhead cost more than pruning
# saves.
_SINGLE_BLOCK_BYTES = 8 * 2**20
# Scratch for one tile of a larger cube, sized to stay in a core's L2 cache.
_TILE_BYTES = 64 * 2**10
# The bound pass costs at most about 1/_BOUND_SHARE of scoring every tuple.
_BOUND_SHARE = 64


def _tile_shape(na, nb, nc):
    """(i-rows, j-rows) of one tile: the whole cube, or one i-row by a chunk."""
    if 8 * na * nb * nc <= _SINGLE_BLOCK_BYTES:
        return na, nb
    return 1, min(nb, max(1, _TILE_BYTES // (8 * nc)))


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


def _score_tile(jab, jbc, jac, buf, i0, i1, j0, j1):
    """Score tuples i0:i1 x j0:j1 x all k into buf; returns the filled view."""
    v = buf[: i1 - i0, : j1 - j0]
    np.add(jab[i0:i1, j0:j1, None], jbc[None, j0:j1, :], out=v)
    np.subtract(jac[i0:i1, None, :], v, out=v)
    return v


def _tiles(na, nb, rows, cols, bounds, block_rows, floor):
    """(i0, j0, bound) of each tile the walk may score, in C order.

    Unbounded (bounds is None), every tile, with bound None. Bounded, only
    the tiles of blocks whose bound reaches the floor.
    """
    if bounds is None:
        for i0 in range(0, na, rows):
            for j0 in range(0, nb, cols):
                yield i0, j0, None
        return
    for block_i, survivors in enumerate(bounds >= floor):
        block_j = np.nonzero(survivors)[0]
        if block_j.size == 0:
            continue
        j0s = (block_j * cols).tolist()
        row_bounds = bounds[block_i, block_j].tolist()
        for i0 in range(block_i * block_rows, min((block_i + 1) * block_rows, na)):
            for j0, bound in zip(j0s, row_bounds):
                yield i0, j0, bound


def _scan_blocks(jab, jbc, jac):
    na, nb = jab.shape
    nc = jac.shape[1]
    rows, cols = _tile_shape(na, nb, nc)
    buf = np.empty((rows, cols, nc), dtype=np.float64)
    # a bound block spans enough one-row tiles that the bound pass stays
    # within its share of the scan
    block_rows = min(na, -(-_BOUND_SHARE // cols))
    bounds, floor = None, -np.inf
    if (rows, cols) != (na, nb) and all(np.isfinite(s).all() for s in (jab, jbc, jac)):
        bounds = _block_bounds(jab, jbc, jac, block_rows, cols)
        top_i, top_j = np.unravel_index(int(np.argmax(bounds)), bounds.shape)
        i0, j0 = int(top_i) * block_rows, int(top_j) * cols
        i_end, j1 = min(i0 + block_rows, na), min(j0 + cols, nb)
        floor = max(
            np.max(_score_tile(jab, jbc, jac, buf, i, i + 1, j0, j1))
            for i in range(i0, i_end)
        )
    best, arg = -np.inf, (0, 0, 0)
    for i0, j0, bound in _tiles(na, nb, rows, cols, bounds, block_rows, floor):
        if bound is not None and bound <= best:
            continue
        i1, j1 = min(i0 + rows, na), min(j0 + cols, nb)
        v = _score_tile(jab, jbc, jac, buf, i0, i1, j0, j1)
        flat = int(np.argmax(v))  # first occurrence within the tile
        value = v.flat[flat]
        if value > best or np.isnan(value):
            i, rem = divmod(flat, (j1 - j0) * nc)
            j, k = divmod(rem, nc)
            best, arg = value, (i0 + i, j0 + j, k)
            if np.isnan(value):  # argmax over the dense cube stops at its first NaN
                return arg, float(best)
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
