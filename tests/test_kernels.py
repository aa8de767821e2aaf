import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tfuprob import kernels
from tfuprob.errors import ValidationError
from tfuprob.kernels import scan_triple
from tfuprob.quantum import ComplexStateVector
from tfuprob.wde import ORDERINGS, _paired_pair_matrices, _shared_pair_matrices, singlet_state


def _brute_force(jab, jbc, jac):
    """Triple loop, nothing shared with the kernel."""
    best = -np.inf
    arg = None
    na, nb = jab.shape
    nc = jbc.shape[1]
    for i in range(na):
        for j in range(nb):
            for k in range(nc):
                v = jac[i, k] - (jab[i, j] + jbc[j, k])
                if v > best:
                    best = v
                    arg = (i, j, k)
    return arg, best


def _random_tables(rng, na, nb, nc):
    return (
        rng.uniform(size=(na, nb)),
        rng.uniform(size=(nb, nc)),
        rng.uniform(size=(na, nc)),
    )


def _dense_first(jab, jbc, jac):
    """The first maximum of the dense score cube in C order, as np.argmax
    finds it."""
    cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
    flat = int(np.argmax(cube))
    return tuple(int(x) for x in np.unravel_index(flat, cube.shape)), float(cube.flat[flat])


def _square_blocks(monkeypatch, side):
    """Blocks of `side` i-rows by `side` j-rows, bounded one by one."""
    monkeypatch.setattr(kernels, "_SINGLE_BLOCK_BYTES", 0)
    monkeypatch.setattr(kernels, "_TILE_BYTES", 0)
    monkeypatch.setattr(kernels, "_BOUND_SHARE", side * side)


def _block_side(monkeypatch, tile_side, share_side, nc):
    """Blocks as large as the side that keeps one at _TILE_BYTES for this
    nc (`tile_side`) or the side that keeps the bound pass within its share
    (`share_side`), whichever is larger; returns that side."""
    monkeypatch.setattr(kernels, "_SINGLE_BLOCK_BYTES", 0)
    monkeypatch.setattr(kernels, "_TILE_BYTES", tile_side * tile_side * 8 * nc)
    monkeypatch.setattr(kernels, "_BOUND_SHARE", share_side * share_side)
    return max(tile_side, share_side)


def _exact_block_bounds(jab, jbc, jac, side):
    """The per-k bound of every block of `side` i-rows by `side` j-rows."""
    extremes = kernels._block_extremes(jab, jbc, jac, side)
    blocks = np.arange(extremes[0].size)
    bounds, _, _ = kernels._exact_bounds(*extremes, blocks, -np.inf)
    return bounds.reshape(extremes[0].shape)


def _per_k_bounds(jab, jbc, jac, side):
    """max_ac[I, k] - (min_ab[I, J] + min_bc[J, k]) of every block (I, J) of
    `side` i-rows by `side` j-rows, shape (blocks in C order, nc), from
    reduceat."""
    na, nb = jab.shape
    rows_i, rows_j = np.arange(0, na, side), np.arange(0, nb, side)
    min_ab = np.minimum.reduceat(np.minimum.reduceat(jab, rows_i, axis=0), rows_j, axis=1)
    min_bc = np.minimum.reduceat(jbc, rows_j, axis=0)
    max_ac = np.maximum.reduceat(jac, rows_i, axis=0)
    per_k = max_ac[:, None, :] - (min_ab[:, :, None] + min_bc[None, :, :])
    return per_k.reshape(-1, jac.shape[1])


def _count_scored(monkeypatch):
    """The (i0, i1, j0, j1, k0, k1) of every block the walk scores, in the
    order scored."""
    scored = []
    score_block = kernels._score_block

    def counted(jab, jbc, jac, buf, *extent):
        scored.append(extent)
        return score_block(jab, jbc, jac, buf, *extent)

    monkeypatch.setattr(kernels, "_score_block", counted)
    return scored


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 5), (8, 8, 8), (17, 2, 9)])
def test_scan_matches_brute_force(shape):
    rng = np.random.default_rng(sum(shape))
    jab, jbc, jac = _random_tables(rng, *shape)
    want_arg, want_best = _brute_force(jab, jbc, jac)
    arg, best = scan_triple(jab, jbc, jac)
    assert arg == want_arg
    assert best == want_best  # bit-for-bit


@pytest.mark.parametrize("side", [1, 2, 3, 16])
def test_scan_across_blocks_matches_brute_force(monkeypatch, side):
    rng = np.random.default_rng(side)
    na, nb, nc = 17, 4, 6
    _square_blocks(monkeypatch, side)
    for _ in range(5):
        jab, jbc, jac = _random_tables(rng, na, nb, nc)
        assert scan_triple(jab, jbc, jac) == _brute_force(jab, jbc, jac)


def test_tie_across_block_boundary_goes_to_first_block(monkeypatch):
    na, nb, nc = 7, 3, 4
    _square_blocks(monkeypatch, 2)
    jab, jbc, jac = np.zeros((na, nb)), np.zeros((nb, nc)), np.zeros((na, nc))
    jac[1, 3] = jac[2, 0] = jac[6, 0] = 0.5  # block rows {0,1}, {2,3}, ..., {6}
    assert scan_triple(jab, jbc, jac) == ((1, 0, 3), 0.5)
    assert _brute_force(jab, jbc, jac) == ((1, 0, 3), 0.5)


def test_maximum_only_in_last_block(monkeypatch):
    rng = np.random.default_rng(5)
    na, nb, nc = 7, 3, 4
    _square_blocks(monkeypatch, 3)  # the last block row is the single row 6
    jab, jbc, jac = _random_tables(rng, na, nb, nc)
    jac[6, 2] = 10.0
    want = _brute_force(jab, jbc, jac)
    assert want[0][0] == 6
    assert scan_triple(jab, jbc, jac) == want


@pytest.mark.parametrize("nudge", [0.0, 2.0**-30])
@pytest.mark.parametrize("tile_side", [1, 2, 3])
@pytest.mark.parametrize("share_side", [1, 3])
def test_pruned_scan_matches_brute_force_on_ties(monkeypatch, nudge, tile_side, share_side):
    # sheets on a few levels tie exactly all over the cube, so blocks whose
    # bound equals the best so far are common; nudged levels make a later
    # block beat the best by a hair, which a pruning rule with any slack
    # would skip
    rng = np.random.default_rng(100 * tile_side + share_side)
    for _ in range(40):
        na, nb, nc = rng.integers(1, 9, size=3)
        _block_side(monkeypatch, tile_side, share_side, nc)
        jab, jbc, jac = (
            rng.integers(0, 3, size=shape) / 4.0 + rng.integers(0, 2, size=shape) * nudge
            for shape in ((na, nb), (nb, nc), (na, nc))
        )
        assert scan_triple(jab, jbc, jac) == _brute_force(jab, jbc, jac)


def test_later_tile_bounded_at_the_best_keeps_the_earlier_tie(monkeypatch):
    # blocks of two i-rows by two j-rows. Block ({0,1}, {2,3}) has the
    # highest bound (0.5, loose) and is scored first; its best, 0.25 at
    # (0, 2, 0), ties the first maximum (0, 0, 0) of the earlier block
    # ({0,1}, {0,1}), whose bound is exactly 0.25. That block must still be
    # scored, and its tie at a smaller tuple must win
    _square_blocks(monkeypatch, 2)
    scored = _count_scored(monkeypatch)
    jab = np.array([[0.25, 0.5, 0.25, 0.0], [0.25, 0.5, 0.25, 0.75]])
    jbc = np.array([[0.25, 0.5], [0.75, 0.75], [0.25, 0.0], [0.5, 0.5]])
    jac = np.array([[0.75, 0.25], [0.25, 0.0]])
    want = _brute_force(jab, jbc, jac)
    assert want == ((0, 0, 0), 0.25)
    assert _brute_force(jab[:, 2:], jbc[2:], jac) == ((0, 0, 0), 0.25)  # (0, 2, 0) overall
    assert _exact_block_bounds(jab, jbc, jac, 2).tolist() == [[0.25, 0.5]]
    assert scan_triple(jab, jbc, jac) == want
    assert [(i0, j0) for i0, _, j0, *_ in scored] == [(0, 2), (0, 0)]


def _ridge_sheets():
    """Pair sheets of the two protocols, whose maxima lie on ridges of
    near-equal (and, by symmetry, exactly equal) scores."""
    th = np.linspace(0.0, np.pi, 24)
    sheets = {"singlet": _paired_pair_matrices(th, th, th, singlet_state())}
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = ComplexStateVector(amps / np.linalg.norm(amps))
    for ordering in ORDERINGS:
        sheets[f"shared-{ordering}"] = _shared_pair_matrices(
            th, np.linspace(0.0, 2 * np.pi, 20), th[:18], state, 1, ordering)
    return sheets


RIDGE_SHEETS = _ridge_sheets()


@pytest.fixture(scope="module")
def ridge_maxima():
    return {name: _brute_force(*sheets) for name, sheets in RIDGE_SHEETS.items()}


@pytest.mark.parametrize("name", sorted(RIDGE_SHEETS))
@pytest.mark.parametrize("tile_side, share_side", [(1, 1), (2, 3), (5, 2)])
def test_walk_scores_no_tile_of_a_block_below_the_floor(monkeypatch, ridge_maxima, name,
                                                        tile_side, share_side):
    # the floor is the maximum of the cube: a block bounded below it cannot
    # hold the result, and the best-first walk must never score one
    jab, jbc, jac = RIDGE_SHEETS[name]
    (na, nb), nc = jab.shape, jac.shape[1]
    side = _block_side(monkeypatch, tile_side, share_side, nc)
    bounds = _exact_block_bounds(jab, jbc, jac, side)
    assert bounds.shape == (-(-na // side), -(-nb // side))
    coarse = kernels._coarse_bounds(*kernels._block_extremes(jab, jbc, jac, side), side)
    per_k = _per_k_bounds(jab, jbc, jac, side)
    scored = _count_scored(monkeypatch)
    gathered = []
    exact_bounds = kernels._exact_bounds

    def counted(min_ab, min_bc, max_ac, blocks, floor):
        gathered.append(blocks.size)
        return exact_bounds(min_ab, min_bc, max_ac, blocks, floor)

    monkeypatch.setattr(kernels, "_exact_bounds", counted)
    arg, floor = scan_triple(jab, jbc, jac)
    assert (arg, floor) == ridge_maxima[name]

    below = bounds < floor
    assert below.any()  # the ridge leaves some blocks to prune
    blocks = [(i0 // side, j0 // side) for i0, _, j0, *_ in scored]
    scored_bounds = [bounds[block] for block in blocks]
    assert not any(bound < floor for bound in scored_bounds)
    # best first: the block of highest coarse bound, then never a higher
    # exact bound
    assert np.unravel_index(int(np.argmax(coarse)), coarse.shape) == blocks[0]
    assert scored_bounds[1:] == sorted(scored_bounds[1:], reverse=True)
    assert len(set(blocks)) == len(blocks) < bounds.size
    # exact bounds only for the blocks whose coarse bound reaches the
    # top block's best
    assert len(gathered) == 1
    assert len(scored) <= gathered[0] < bounds.size
    # each block's k-range holds every k whose per-k bound reaches the
    # result, and on the ridge the ranges leave some k out
    for (block_i, block_j), (_, _, _, _, k0, k1) in zip(blocks, scored):
        reach = np.flatnonzero(per_k[block_i * bounds.shape[1] + block_j] >= floor)
        assert k0 <= reach[0] and reach[-1] < k1
    # the top block is scored over all k, since it sets the floor; with
    # blocks of one tuple per k it is the only one scored
    walk = scored[1:]
    assert scored[0][4:] == (0, nc) and bool(walk) == (side > 1)
    tuples = sum((i1 - i0) * (j1 - j0) * (k1 - k0) for i0, i1, j0, j1, k0, k1 in walk)
    whole = sum((i1 - i0) * (j1 - j0) * nc for i0, i1, j0, j1, _, _ in walk)
    assert tuples < whole or not walk


@pytest.mark.parametrize("shape", [(512, 8, 8), (8, 512, 8), (8, 8, 512)])
@pytest.mark.parametrize("side", [2, 5])
def test_tall_wide_and_deep_grids_match_dense_argmax(monkeypatch, shape, side):
    # one long axis: many blocks along i or j, or few blocks of long k runs
    _square_blocks(monkeypatch, side)
    th_a, th_b, th_c = (np.linspace(0.0, np.pi, n) for n in shape)
    singlet = _paired_pair_matrices(th_a, th_b, th_c, singlet_state())
    assert scan_triple(*singlet) == _dense_first(*singlet)
    rng = np.random.default_rng(side)
    na, nb, nc = shape
    levels = tuple(rng.integers(0, 3, size=s) / 4.0 for s in ((na, nb), (nb, nc), (na, nc)))
    assert scan_triple(*levels) == _dense_first(*levels)


@st.composite
def tie_heavy_sheets(draw):
    """Sheets of quarter-integers up to 24 points per axis: exact ties
    abound, within a block and across blocks."""
    na, nb, nc = (draw(st.integers(1, 24)) for _ in range(3))
    levels = st.integers(0, draw(st.integers(1, 4)))
    return tuple(draw(arrays(np.int8, shape, elements=levels)) / 4.0
                 for shape in ((na, nb), (nb, nc), (na, nc)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sheets=tie_heavy_sheets(), side=st.integers(1, 6))
def test_scan_is_the_dense_first_maximum_on_drawn_sheets(sheets, side):
    with pytest.MonkeyPatch.context() as mp:
        _square_blocks(mp, side)
        assert scan_triple(*sheets) == _dense_first(*sheets)  # value bit for bit


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sheets=tie_heavy_sheets(), side=st.integers(1, 6))
def test_coarse_bound_holds_the_exact_bound_and_the_exact_bound_every_score(sheets, side):
    # k-chunks of `side` values are ragged at the end of most drawn k axes
    jab, jbc, jac = sheets
    extremes = kernels._block_extremes(jab, jbc, jac, side)
    coarse = kernels._coarse_bounds(*extremes, side)
    exact = _exact_block_bounds(jab, jbc, jac, side)
    cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
    for (block_i, block_j), bound in np.ndenumerate(exact):
        block = cube[block_i * side:(block_i + 1) * side, block_j * side:(block_j + 1) * side]
        assert coarse[block_i, block_j] >= bound >= block.max()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sheets=tie_heavy_sheets(), side=st.integers(1, 6), data=st.data())
def test_k_range_runs_from_the_first_to_past_the_last_k_that_reaches_the_floor(sheets, side,
                                                                             data):
    # the floor is one of the per-k bounds, so on these quarter-integer
    # sheets some blocks reach it exactly, at either edge of their range
    jab, jbc, jac = sheets
    nc = jac.shape[1]
    per_k = _per_k_bounds(jab, jbc, jac, side)
    floor = data.draw(st.sampled_from(sorted(set(per_k.ravel().tolist()))))
    extremes = kernels._block_extremes(jab, jbc, jac, side)
    blocks = np.arange(per_k.shape[0])
    bounds, k0, k1 = kernels._exact_bounds(*extremes, blocks, floor)
    assert np.array_equal(bounds, per_k.max(axis=1))
    for block, row in enumerate(per_k):
        reach = np.flatnonzero(row >= floor)
        want = (reach[0], reach[-1] + 1) if reach.size else (0, nc)
        assert (k0[block], k1[block]) == want


@pytest.mark.parametrize("side, n", [(side, n) for side in (1, 2, 3, 8)
                                     for n in sorted({1, side - 1, side, side + 1, 3 * side + 5})
                                     if n >= 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_strided_extremes_equal_reduceat(side, n, axis):
    rng = np.random.default_rng(n * side)
    shape = (n, 7) if axis == 0 else (7, n)
    x = rng.integers(-3, 4, size=shape) / 2.0  # ties within a block
    starts = np.arange(0, n, side)
    for ufunc in (np.minimum, np.maximum):
        assert np.array_equal(kernels._strided_extremes(ufunc, x, side, axis),
                              ufunc.reduceat(x, starts, axis=axis))


def _scan_peak(sheets):
    tracemalloc.start()
    try:
        scan_triple(*sheets)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_is_bounded():
    th = np.linspace(0.0, np.pi, 384)
    sheets = _paired_pair_matrices(th, th, th, singlet_state())
    assert _scan_peak(sheets) <= 8 * 2**20  # the dense 384^3 cube alone is 432 MiB


def test_ridge_scan_gathers_its_bound_candidates_in_chunks():
    # on the singlet's ridge many blocks reach the best value; gathering
    # all of their k rows at once would hold ~55 MiB at 1024 points
    th = np.linspace(0.0, np.pi, 1024)
    sheets = _paired_pair_matrices(th, th, th, singlet_state())
    assert _scan_peak(sheets) <= 8 * 2**20


def test_singlet_scan_at_1024_points_scores_few_of_its_tuples(monkeypatch):
    # a count, not a time: the singlet's ridge keeps thousands of blocks at
    # the best value, and each is scored only over the k that can reach it
    th = np.linspace(0.0, np.pi, 1024)
    sheets = _paired_pair_matrices(th, th, th, singlet_state())
    scored = _count_scored(monkeypatch)
    scan_triple(*sheets)
    tuples = sum((i1 - i0) * (j1 - j0) * (k1 - k0) for i0, i1, j0, j1, k0, k1 in scored)
    assert tuples <= 0.05 * 1024**3


@pytest.mark.parametrize("n", [8, 200])
def test_scan_does_not_write_its_sheets(n):
    # a paired search on one grid hands the scan one read-only table as all
    # three sheets; the single-block path (n = 8) and the bound path
    # (n = 200) must only read their sheets
    rng = np.random.default_rng(n)
    sheets = [rng.uniform(size=(n, n)) for _ in range(3)]
    want = scan_triple(*sheets)
    for sheet in sheets:
        sheet.flags.writeable = False
    assert scan_triple(*sheets) == want


def test_ties_break_to_first_tuple():
    # constant sheets make every tuple tie exactly
    jab = np.zeros((3, 3))
    jbc = np.zeros((3, 4))
    jac = np.full((3, 4), 0.5)
    arg, best = scan_triple(jab, jbc, jac)
    assert arg == (0, 0, 0)
    assert best == 0.5


def test_mirror_tie_is_exact():
    # v(i,j,k) and v(k,j,i) on symmetric tables must evaluate to the same
    # float, so the lexicographic winner is meaningful
    th = np.array([0.0, np.pi / 4, np.pi / 2])
    o = 0.5 * np.sin((th[:, None] - th[None, :]) / 2) ** 2
    arg, best = scan_triple(o, o, o)
    v_mirror = o[arg[2], arg[0]] - (o[arg[2], arg[1]] + o[arg[1], arg[0]])
    assert best == v_mirror
    assert arg == (0, 1, 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data(), shape=st.tuples(*[st.integers(3, 12)] * 3),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), bounded=st.booleans())
def test_scan_refuses_a_sheet_that_is_not_finite(data, shape, bad, bounded):
    # the refusal comes before the single-block path and before the bounded
    # path, which blocks of two rows take for every drawn shape; it names
    # the drawn cell, which comes before the last cell of Jac, poisoned too
    na, nb, nc = shape
    sheets = _random_tables(np.random.default_rng(list(shape)), na, nb, nc)
    sheets[2][-1, -1] = bad
    sheet = data.draw(st.integers(0, 2))
    i, j = (data.draw(st.integers(0, n - 1)) for n in sheets[sheet].shape)
    sheets[sheet][i, j] = bad
    name = ("Jab", "Jbc", "Jac")[sheet]
    with pytest.MonkeyPatch.context() as mp:
        if bounded:
            _square_blocks(mp, 2)
        with pytest.raises(ValidationError, match=rf"{name} holds {bad} at \({i}, {j}\);"):
            scan_triple(*sheets)


def test_scan_reads_one_table_passed_as_every_sheet_once(monkeypatch):
    # the paired search on one grid passes its one read-only table as all
    # three sheets; the finite check reads it once and names it Jab
    read = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: read.append(x) or isfinite(x))

    def passes(sheet):
        return sum(x is sheet for x in read)

    t = np.random.default_rng(3).uniform(size=(5, 5))
    t.flags.writeable = False
    assert scan_triple(t, t, t) == _dense_first(t, t, t)
    assert passes(t) == 1
    t = t.copy()
    t[2, 3] = np.nan
    read.clear()
    with pytest.raises(ValidationError, match=r"Jab holds nan at \(2, 3\);"):
        scan_triple(t, t, t)
    assert passes(t) == 1
    u = np.where(np.isnan(t), 0.5, t)
    read.clear()
    with pytest.raises(ValidationError, match=r"Jbc holds nan at \(2, 3\);"):
        scan_triple(u, t, t)
    assert (passes(u), passes(t)) == (1, 1)


@pytest.mark.parametrize("bounded", [False, True])
def test_overflowing_scores_are_exact_and_warn_nothing(monkeypatch, bounded):
    # finite sheets near +-1e308 overflow scores and bounds to +-inf: the
    # result is still the dense first maximum, and numpy warns nothing
    if bounded:
        _square_blocks(monkeypatch, 2)
    b = np.full((3, 3), 1e308)
    rng = np.random.default_rng(17)
    cases = [(b, b, -b)] + [
        tuple(x * 1e308 for x in _random_tables(rng, 5, 6, 7)) for _ in range(5)
    ]
    for jab, jbc, jac in cases:
        with np.errstate(over="ignore"):
            want = _dense_first(jab, jbc, jac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_triple(jab, jbc, jac) == want
    assert scan_triple(b, b, -b) == ((0, 0, 0), -np.inf)


def test_scan_shape_validation():
    with pytest.raises(ValidationError, match="shape"):
        scan_triple(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((2, 5)))
    with pytest.raises(ValidationError, match="shape"):
        scan_triple(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros((2, 4)))
    with pytest.raises(ValidationError, match="2-D"):
        scan_triple(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)))


def test_scan_accepts_noncontiguous_input():
    rng = np.random.default_rng(13)
    big = rng.uniform(size=(10, 10))
    jab = big[::2, ::2]  # strided view
    jbc = rng.uniform(size=(5, 5))
    jac = rng.uniform(size=(5, 5))
    want = _brute_force(np.ascontiguousarray(jab), jbc, jac)
    assert scan_triple(jab, jbc, jac) == want
