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
into square blocks of b i-rows by b j-rows, with b = 8, or larger when nc
is short, so that a block over all k stays about _TILE_BYTES: small enough
to stay in a core's L2 cache while np.add, np.subtract and argmax pass over
it. Each block is scored into one reused buffer, and argmax takes its first
maximum, the lexicographically smallest (i, j, k) of its best score.

Each block (i-rows I by j-rows J) has the per-k bound

    u[k] = max_I Jac[i, k] - (min_IxJ Jab[i, j] + min_J Jbc[j, k])

and the exact bound U = max over k of u[k], at a cost of nc per block,
1/b**2 of scoring it. The block extremes come from b strided row slices
reduced in place: the same values as np.minimum.reduceat gives (a minimum
rounds nothing), several times faster. Most blocks never need U. A coarse
bound V takes the same expression over chunks of b k-values, with each
chunk's largest max_I Jac and smallest min_J Jbc, at a cost of nc/b per
block. The block of largest V is scored first, over all k; its best score
is a floor, since some tuple reaches it. Only the blocks whose V reaches
the floor get U, gathered in chunks of about _TILE_BYTES: on a ridge many
blocks reach it, and gathering all of their k rows at once would hold tens
of MiB at the grid cap. From the same rows each of them gets its k-range
k0:k1, from the first k whose u[k] reaches the floor to one past the last.

The walk is best-first: those blocks are visited in descending U, equal
bounds in C order (a stable sort), and the block of largest V is not
scored again. A block is scored over its k-range only: every k outside it
has u[k] below the floor, and the floor is at most the result, so no tuple
there can reach the result or tie it. On a ridge that leaves most of each
block's k out (on the 1024-point singlet, 89% of the tuples of the blocks
walked). A range taken at the floor holds the range at the final best
value, since that value is at least the floor: a k that reaches the best
reaches the floor. Inside the range argmax still takes the first maximum
in C order.

Each block scored can only raise the best value. The walk stops at the
first block whose U is below the best value so far, since every later U
is lower still, and skips a block whose U equals the best value when its
first tuple (i0, j0, 0) comes after the best tuple: the block could at
most tie, and a tie goes to the earlier tuple. A scored block replaces the
best on a strictly greater value, or on an equal value at a
lexicographically smaller tuple. The tuple of the dense cube's first
maximum lies in a block whose U reaches it and at a k whose u[k] does, so
it is scored; the result is therefore that first maximum, whatever order
the blocks were visited in: ties go to the lexicographically smallest
(i, j, k), and every value is the same float the dense expression would
give.

Each bound, range, stop and skip is exact, not a heuristic: IEEE-754
rounding is monotone, so fl(b + c) never exceeds fl(b' + c') when b <= b'
and c <= c', and fl(a - s) never falls as a rises or s falls. A chunk's
maximum of Jac is at least that of each of its k, and its minimum of Jbc at
most, so V >= U for every block, and every tuple (i, j, k) of the block
scores at most u[k], overflow included: a block left out for V below the
floor, or a k left out for u[k] below it, holds no tuple that reaches it.

The sheets must be finite: scan_triple refuses a NaN or an infinity
before anything is scored. A finite sheet can still overflow a score or a
bound to +inf or -inf, which the argument above covers, but never to NaN:
the sum of two finite numbers is a number or an infinity, and Jac is
finite, while inf - inf would need an infinite Jac.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import ValidationError

# A score cube up to this size (64 points per axis) is scored in one block
# with no bound pass: on small grids the extremes, the bounds and the
# per-block overhead cost more than pruning saves (a 64-point singlet ridge
# scans 30% slower through them). Above it a walked block costs only its
# k-range, so a 96-point cube (7 MiB) scans 20-65% faster through the
# bounds than as one block; at 80 points a singlet ridge is about even, a
# random shared state 20% faster.
_SINGLE_BLOCK_BYTES = 2 * 2**20
# A larger cube's blocks grow to about this size when nc is short, to stay in
# a core's L2 cache while np.add, np.subtract and argmax pass over them; the
# bound passes work in chunks of about this size too.
_TILE_BYTES = 64 * 2**10
# The bound pass costs at most about 1/_BOUND_SHARE of scoring every tuple:
# a block is at least sqrt(_BOUND_SHARE) i-rows by as many j-rows.
_BOUND_SHARE = 64


def _block_side(na, nb, nc):
    """Side b of a block of b i-rows by b j-rows; a small cube is one block."""
    if 8 * na * nb * nc <= _SINGLE_BLOCK_BYTES:
        return max(na, nb)
    return max(isqrt(_BOUND_SHARE), isqrt(_TILE_BYTES // (8 * nc)))


def _strided_extremes(ufunc, x, side, axis):
    """ufunc.reduceat(x, range(0, n, side), axis) of a 2-D x, from `side`
    strided slices reduced in place: several times faster than reduceat,
    and equal to it, since a minimum or maximum rounds nothing."""
    lead = (slice(None),) * axis
    out = x[lead + (slice(0, None, side),)].copy()
    for r in range(1, min(side, x.shape[axis])):
        part = x[lead + (slice(r, None, side),)]
        head = out[lead + (slice(0, part.shape[axis]),)]
        ufunc(head, part, out=head)
    return out


def _block_extremes(jab, jbc, jac, side):
    """min of Jab over each block, of Jbc over each j-block at each k, and
    max of Jac over each i-block at each k."""
    min_ab = _strided_extremes(np.minimum, _strided_extremes(np.minimum, jab, side, 0), side, 1)
    min_bc = _strided_extremes(np.minimum, jbc, side, 0)
    max_ac = _strided_extremes(np.maximum, jac, side, 0)
    return min_ab, min_bc, max_ac


def _exact_bounds(min_ab, min_bc, max_ac, blocks, floor):
    """The bound U of each of `blocks` (flat indices into min_ab), and the
    range k0:k1 from the first to one past the last k whose per-k bound
    reaches `floor` (0:nc when none does), gathered in chunks of about
    _TILE_BYTES."""
    n_j = min_ab.shape[1]
    nc = max_ac.shape[1]
    bounds = np.empty(blocks.size)
    k0 = np.empty(blocks.size, dtype=np.intp)
    k1 = np.empty(blocks.size, dtype=np.intp)
    step = max(1, _TILE_BYTES // (8 * nc))
    buf = np.empty((min(step, blocks.size), nc))
    reach = np.empty(buf.shape, dtype=bool)
    flat_ab = min_ab.ravel()
    for c0 in range(0, blocks.size, step):
        chunk = blocks[c0 : c0 + step]
        c = slice(c0, c0 + chunk.size)
        block_i, block_j = np.divmod(chunk, n_j)
        v = buf[: chunk.size]
        np.take(min_bc, block_j, axis=0, out=v)
        np.add(flat_ab[chunk, None], v, out=v)
        np.subtract(max_ac[block_i], v, out=v)
        np.max(v, axis=1, out=bounds[c])
        r = reach[: chunk.size]
        np.greater_equal(v, floor, out=r)
        np.argmax(r, axis=1, out=k0[c])
        np.argmax(r[:, ::-1], axis=1, out=k1[c])
    np.subtract(nc, k1, out=k1)
    return bounds, k0, k1


def _coarse_bounds(min_ab, min_bc, max_ac, side):
    """The bound V of every block, over chunks of `side` k-values: at least
    U, at 1/side of its cost. The k-chunks lie along the middle axis, with
    the chunked min_bc transposed, so that the sums run along contiguous j
    and the maximum over chunks is taken row by row: 2-10% faster scans than
    with the chunks last, from 128 to 2048 points."""
    min_bc = _strided_extremes(np.minimum, min_bc, side, 1).T.copy()
    max_ac = _strided_extremes(np.maximum, max_ac, side, 1)
    n_i, n_j = min_ab.shape
    n_k = max_ac.shape[1]
    bounds = np.empty(min_ab.shape)
    step = max(1, _TILE_BYTES // (8 * n_j * n_k))
    buf = np.empty((min(step, n_i), n_k, n_j))
    for b0 in range(0, n_i, step):
        b1 = min(b0 + step, n_i)
        v = buf[: b1 - b0]
        np.add(min_ab[b0:b1, None, :], min_bc[None, :, :], out=v)
        np.subtract(max_ac[b0:b1, :, None], v, out=v)
        np.max(v, axis=1, out=bounds[b0:b1])
    return bounds


def _score_block(jab, jbc, jac, buf, i0, i1, j0, j1, k0, k1):
    """Score tuples i0:i1 x j0:j1 x k0:k1 into the head of the flat buf, in C
    order; returns that head."""
    n = (i1 - i0) * (j1 - j0) * (k1 - k0)
    v = buf[:n].reshape(i1 - i0, j1 - j0, k1 - k0)
    np.add(jab[i0:i1, j0:j1, None], jbc[None, j0:j1, k0:k1], out=v)
    np.subtract(jac[i0:i1, None, k0:k1], v, out=v)
    return buf[:n]


def _scan_blocks(jab, jbc, jac):
    na, nb = jab.shape
    nc = jac.shape[1]
    side = _block_side(na, nb, nc)
    rows, cols = min(side, na), min(side, nb)
    n_j = -(-nb // cols)
    buf = np.empty(rows * cols * nc, dtype=np.float64)

    def first_max(i0, i1, j0, j1, k0, k1):
        """The first maximum of tuples i0:i1 x j0:j1 x k0:k1, and its tuple."""
        v = _score_block(jab, jbc, jac, buf, i0, i1, j0, j1, k0, k1)
        flat = int(v.argmax())
        i, rem = divmod(flat, (j1 - j0) * (k1 - k0))
        j, k = divmod(rem, k1 - k0)
        return v.item(flat), (i0 + i, j0 + j, k0 + k)

    def block_max(block):
        """first_max of a block over all k."""
        i0, j0 = block // n_j * rows, block % n_j * cols
        return first_max(i0, min(i0 + rows, na), j0, min(j0 + cols, nb), 0, nc)

    if (rows, cols) == (na, nb):  # one block
        best, arg = block_max(0)
        return arg, best
    extremes = _block_extremes(jab, jbc, jac, side)
    coarse = _coarse_bounds(*extremes, side).ravel()
    top = int(np.argmax(coarse))
    best, arg = block_max(top)
    blocks = np.flatnonzero(coarse >= best)  # in C order; top among them
    bounds, k0, k1 = _exact_bounds(*extremes, blocks, best)
    del extremes, coarse  # the walk reads only the sheets; at the grid cap these hold 8 MiB
    # descending bound; the stable sort keeps equal bounds in C order
    order = np.argsort(-bounds, kind="stable")
    blocks = blocks[order]
    block_i, block_j = np.divmod(blocks, n_j)
    i0s = block_i * rows
    j0s = block_j * cols
    for block, bound, i0, i1, j0, j1, k0, k1 in zip(
        blocks.tolist(), bounds[order].tolist(), i0s.tolist(), np.minimum(i0s + rows, na).tolist(),
        j0s.tolist(), np.minimum(j0s + cols, nb).tolist(), k0[order].tolist(), k1[order].tolist(),
    ):
        if bound < best:  # so is every later bound
            break
        if block == top or (bound == best and (i0, j0, 0) > arg):
            continue  # scored already, or at most a later tie
        value, at = first_max(i0, i1, j0, j1, k0, k1)
        if value > best or (value == best and at < arg):
            best, arg = value, at
    return arg, best


def scan_triple(jab, jbc, jac):
    """Maximize Jac[i,k] - (Jab[i,j] + Jbc[j,k]); returns ((i,j,k), value).

    Ties go to the lexicographically smallest tuple. The sheets must be
    finite: a NaN or an infinity in one raises ValidationError.
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
    for name, sheet in (("Jab", jab), ("Jbc", jbc), ("Jac", jac)):
        if not np.isfinite(sheet).all():
            i, j = np.argwhere(~np.isfinite(sheet))[0].tolist()
            raise ValidationError(
                f"pair matrix {name} holds {float(sheet[i, j])} at ({i}, {j}); "
                "sheets must be finite"
            )
    return _scan_blocks(jab, jbc, jac)
