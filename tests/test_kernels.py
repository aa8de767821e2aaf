import tracemalloc

import numpy as np
import pytest

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


def _j_rows_per_tile(monkeypatch, cols, nc, bound_rows):
    """Tiles of one i-row by `cols` j-rows, bounded in blocks of `bound_rows` i-rows."""
    monkeypatch.setattr(kernels, "_SINGLE_BLOCK_BYTES", 0)
    monkeypatch.setattr(kernels, "_TILE_BYTES", cols * 8 * nc)
    monkeypatch.setattr(kernels, "_BOUND_SHARE", bound_rows * cols)


def _rows_per_block(monkeypatch, rows, nb, nc):
    """Tiles of one i-row by every j-row, bounded in blocks of `rows` i-rows."""
    _j_rows_per_tile(monkeypatch, nb, nc, rows)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 5), (8, 8, 8), (17, 2, 9)])
def test_scan_matches_brute_force(shape):
    rng = np.random.default_rng(sum(shape))
    jab, jbc, jac = _random_tables(rng, *shape)
    want_arg, want_best = _brute_force(jab, jbc, jac)
    arg, best = scan_triple(jab, jbc, jac)
    assert arg == want_arg
    assert best == want_best  # bit-for-bit


@pytest.mark.parametrize("rows", [1, 2, 3, 16])
def test_scan_across_blocks_matches_brute_force(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    na, nb, nc = 17, 4, 6
    _rows_per_block(monkeypatch, rows, nb, nc)
    for _ in range(5):
        jab, jbc, jac = _random_tables(rng, na, nb, nc)
        assert scan_triple(jab, jbc, jac) == _brute_force(jab, jbc, jac)


def test_tie_across_block_boundary_goes_to_first_block(monkeypatch):
    na, nb, nc = 7, 3, 4
    _rows_per_block(monkeypatch, 2, nb, nc)
    jab, jbc, jac = np.zeros((na, nb)), np.zeros((nb, nc)), np.zeros((na, nc))
    jac[1, 3] = jac[2, 0] = jac[6, 0] = 0.5  # blocks {0,1}, {2,3}, ..., {6}
    assert scan_triple(jab, jbc, jac) == ((1, 0, 3), 0.5)
    assert _brute_force(jab, jbc, jac) == ((1, 0, 3), 0.5)


def test_maximum_only_in_last_block(monkeypatch):
    rng = np.random.default_rng(5)
    na, nb, nc = 7, 3, 4
    _rows_per_block(monkeypatch, 3, nb, nc)  # last block is the single row 6
    jab, jbc, jac = _random_tables(rng, na, nb, nc)
    jac[6, 2] = 10.0
    want = _brute_force(jab, jbc, jac)
    assert want[0][0] == 6
    assert scan_triple(jab, jbc, jac) == want


def test_first_nan_wins_like_dense_argmax(monkeypatch):
    # argmax over the dense cube stops at its first NaN; the blocked scan
    # must return that one, not an earlier finite maximum or a later NaN
    na, nb, nc = 6, 3, 4
    _rows_per_block(monkeypatch, 2, nb, nc)
    jab, jbc, jac = np.zeros((na, nb)), np.zeros((nb, nc)), np.zeros((na, nc))
    jac[0, 1] = 1.0
    jac[2, 2] = jac[5, 0] = np.nan
    cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
    assert np.unravel_index(int(np.argmax(cube)), cube.shape) == (2, 0, 2)
    arg, best = scan_triple(jab, jbc, jac)
    assert arg == (2, 0, 2)
    assert np.isnan(best)


@pytest.mark.parametrize("nudge", [0.0, 2.0**-30])
@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("bound_rows", [1, 3])
def test_pruned_scan_matches_brute_force_on_ties(monkeypatch, nudge, cols, bound_rows):
    # sheets on a few levels tie exactly all over the cube, so pruned tiles
    # whose bound equals the best so far are common; nudged levels make a
    # later tile beat the best by a hair, which a pruning rule with any
    # slack would skip
    rng = np.random.default_rng(100 * cols + bound_rows)
    for _ in range(40):
        na, nb, nc = rng.integers(1, 9, size=3)
        _j_rows_per_tile(monkeypatch, cols, nc, bound_rows)
        jab, jbc, jac = (
            rng.integers(0, 3, size=shape) / 4.0 + rng.integers(0, 2, size=shape) * nudge
            for shape in ((na, nb), (nb, nc), (na, nc))
        )
        assert scan_triple(jab, jbc, jac) == _brute_force(jab, jbc, jac)


def test_later_tile_bounded_at_the_best_keeps_the_earlier_tie(monkeypatch):
    # tiles of one i-row by two j-rows, bounded one by one. Tile (1, {2,3})
    # has the highest bound (0.75, loose) but scores at most 0.5, which the
    # earlier tiles (0, {0,1}) and (0, {2,3}) reach exactly; the first
    # 0.5, at (0, 0, 0), must win
    _j_rows_per_tile(monkeypatch, 2, 2, 1)
    jab = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.25]])
    jbc = np.array([[0.0, 0.0], [0.0, 0.0], [0.25, 0.0], [0.0, 0.0]])
    jac = np.array([[0.5, 0.0], [0.75, 0.0]])
    want = _brute_force(jab, jbc, jac)
    assert want == ((0, 0, 0), 0.5)
    assert kernels._block_bounds(jab, jbc, jac, 1, 2).tolist() == [[0.5, 0.5], [0.25, 0.75]]
    assert scan_triple(jab, jbc, jac) == want


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_inf_before_nan_matches_dense_argmax(monkeypatch, cols):
    # +inf scores come first, then inf - inf makes a NaN: no tile may be
    # skipped for a bound at or below +inf, or the NaN would be missed
    na, nb, nc = 5, 4, 3
    _j_rows_per_tile(monkeypatch, cols, nc, 1)
    jab, jbc, jac = np.zeros((na, nb)), np.zeros((nb, nc)), np.zeros((na, nc))
    jac[0, 1] = np.inf
    jac[3, 2] = np.inf
    jab[3, 1] = np.inf
    with np.errstate(invalid="ignore"):
        cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
        arg, best = scan_triple(jab, jbc, jac)
    want = np.unravel_index(int(np.argmax(cube)), cube.shape)
    assert want == (3, 1, 2)
    assert arg == want
    assert np.isnan(best)


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
@pytest.mark.parametrize("cols, bound_rows", [(1, 1), (2, 3), (5, 2)])
def test_walk_scores_no_tile_of_a_block_below_the_floor(monkeypatch, ridge_maxima, name, cols,
                                                        bound_rows):
    jab, jbc, jac = RIDGE_SHEETS[name]
    (na, nb), nc = jab.shape, jac.shape[1]
    _j_rows_per_tile(monkeypatch, cols, nc, bound_rows)
    scored = []
    score_tile = kernels._score_tile

    def counted(jab, jbc, jac, buf, i0, i1, j0, j1):
        scored.append((i0, j0))
        return score_tile(jab, jbc, jac, buf, i0, i1, j0, j1)

    monkeypatch.setattr(kernels, "_score_tile", counted)
    assert scan_triple(jab, jbc, jac) == ridge_maxima[name]

    # the floor: the best score of the block of highest bound
    bounds = kernels._block_bounds(jab, jbc, jac, bound_rows, cols)
    top_i, top_j = np.unravel_index(int(np.argmax(bounds)), bounds.shape)
    rows = slice(top_i * bound_rows, (top_i + 1) * bound_rows)
    js = slice(top_j * cols, (top_j + 1) * cols)
    floor = np.max(jac[rows, None, :] - (jab[rows, js, None] + jbc[None, js, :]))
    below = bounds < floor
    assert below.any()  # the ridge leaves some blocks to prune
    assert not any(below[i0 // bound_rows, j0 // cols] for i0, j0 in scored)
    assert len(scored) < na * -(-nb // cols)


def test_scan_memory_is_bounded():
    th = np.linspace(0.0, np.pi, 384)
    sheets = _paired_pair_matrices(th, th, th, singlet_state())
    tracemalloc.start()
    try:
        scan_triple(*sheets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # the dense 384^3 cube alone is 432 MiB


def test_ties_break_to_first_tuple():
    # constant sheets make every tuple tie exactly
    jab = np.zeros((3, 3))
    jbc = np.zeros((3, 4))
    jac = np.full((3, 4), 0.5)
    arg, best = scan_triple(jab, jbc, jac)
    assert arg == (0, 0, 0)
    assert best == 0.5
    # all scores -inf: nothing beats the first tuple
    assert scan_triple(jab, jbc, np.full((3, 4), -np.inf)) == ((0, 0, 0), -np.inf)


def test_mirror_tie_is_exact():
    # v(i,j,k) and v(k,j,i) on symmetric tables must evaluate to the same
    # float, so the lexicographic winner is meaningful
    th = np.array([0.0, np.pi / 4, np.pi / 2])
    o = 0.5 * np.sin((th[:, None] - th[None, :]) / 2) ** 2
    arg, best = scan_triple(o, o, o)
    v_mirror = o[arg[2], arg[0]] - (o[arg[2], arg[1]] + o[arg[1], arg[0]])
    assert best == v_mirror
    assert arg == (0, 1, 2)


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
