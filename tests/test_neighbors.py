"""The two neighbour-search backends against each other and against brute
force, and nearest-neighbour distances against brute force: the same pairs
and distances, bit for bit, ties at the radius included."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delayrecon import neighbors
from delayrecon.neighbors import (
    _by_pair,
    _grid_within,
    _norm,
    _tree_pairs,
    _within,
    close_pairs,
    median,
    nn_distance,
)
from delayrecon.topology import nn_spacing


@st.composite
def clouds(draw, min_size=1, k=None):
    """(points, r): a random or lattice cloud in 1, 2, 3, 6, 8 or 13
    dimensions with some rows repeated; on a lattice, r is a lattice
    distance, so pairs sit exactly at r.  Lattice sums are exact in any
    order, so only random clouds show the order of a sum of 8 or more
    squares."""
    if k is None:
        k = draw(st.sampled_from([1, 2, 3, 6, 8, 13]))
    n = draw(st.integers(min_size, 40))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.1, 0.25, 1.0]))
        ints = draw(hnp.arrays(np.int64, (n, k), elements=st.integers(-3, 3)))
        pts = ints * step
        r = step * draw(st.sampled_from([0.0, 1.0, math.sqrt(2.0), 2.0]))
    else:
        pts = draw(hnp.arrays(float, (n, k), elements=st.floats(-1.0, 1.0)))
        r = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return np.concatenate([pts, pts[repeats]]), r


def brute_pairs(a, b, r):
    """Every (i, j) with the NumPy distance at most r, in (i, j) order."""
    d = a[:, None, :] - b[None, :, :]
    dist = np.sqrt(np.add.reduce(d * d, axis=2))
    i, j = np.nonzero(dist <= r)
    return i, j, dist[i, j]


def brute_nn(pts):
    """Each point's smallest NumPy distance to another point, taken over
    blocks of rows so that large clouds stay small in memory."""
    best = np.empty(len(pts))
    for s in range(0, len(pts), 256):
        _, _, dist = brute_pairs(pts[s:s + 256], pts, np.inf)
        dist = dist.reshape(-1, len(pts))
        dist[np.arange(len(dist)), np.arange(s, s + len(dist))] = np.inf
        best[s:s + 256] = dist.min(axis=1)
    return best


def grid(a, b, r):
    return _by_pair(*(np.concatenate(c) for c in zip(*_grid_within(a, b, r))))


def tree(a, b, r):
    return _by_pair(*(np.concatenate(c) for c in zip(*_tree_pairs(a, b, r))))


def assert_same(x, y):
    for u, v in zip(x, y):
        assert np.array_equal(u, v)
        assert u.dtype.kind == v.dtype.kind


@settings(deadline=None)
@given(clouds(), st.data())
def test_cross_pairs_agree(cloud, data):
    a, r = cloud
    b, _ = data.draw(clouds(k=a.shape[1]))
    on_grid = grid(a, b, r)
    assert_same(on_grid, tree(a, b, r))
    assert_same(on_grid, brute_pairs(a, b, r))
    # The routed query, which on the grid buckets the larger cloud.
    assert_same(on_grid, close_pairs(a, b, r))


@settings(deadline=None)
@given(clouds())
def test_self_pairs_agree(cloud):
    pts, r = cloud
    on_grid = grid(pts, None, r)
    assert_same(on_grid, tree(pts, None, r))
    i, j, dist = brute_pairs(pts, pts, r)
    assert_same(on_grid, (i[i < j], j[i < j], dist[i < j]))


@settings(deadline=None)
@given(clouds(min_size=2))
def test_nn_distance_agrees(cloud):
    pts, _ = cloud
    assert np.array_equal(nn_distance(pts, len(pts)), brute_nn(pts))


@given(hnp.arrays(float, st.integers(1, 30),
                  elements=st.floats(allow_infinity=True, allow_nan=True)))
def test_median_is_numpy_median(x):
    # -inf and inf in the middle give NaN; two huge middle values overflow.
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = median(x), np.median(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got) or np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("k", range(1, 14))
def test_within_is_the_norm_bit_for_bit(k):
    # Summing squares axis by axis is `np.add.reduce`'s order below 8 axes
    # only; from 8 it sums pairwise.  Random floats round differently in the
    # two orders, and the candidates span a chunk boundary.
    rng = np.random.default_rng(k)
    a, b = rng.uniform(-1, 1, (300, k)), rng.uniform(-1, 1, (200, k))
    n = neighbors._CHUNK + 1000
    i, j = rng.integers(0, 300, n), rng.integers(0, 200, n)
    _, _, dist = _within(a, b, i, j, np.inf)
    assert dist.tobytes() == _norm(a[i], b[j]).tobytes()


def test_lattice_ties_are_kept_by_both():
    # 6 x 6 lattice of step 0.1 at r = 0.1 * sqrt(2): every pair the NumPy
    # norm puts at or below r, the diagonal neighbours whose computed
    # distance rounds to r among them, on either backend.
    axis = np.arange(6) * 0.1
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    r = 0.1 * math.sqrt(2.0)
    on_grid = grid(pts, None, r)
    assert_same(on_grid, tree(pts, None, r))
    i, j, dist = brute_pairs(pts, pts, r)
    assert len(on_grid[0]) == np.count_nonzero(i < j)


def test_tiny_radius_far_from_the_origin():
    # Cell indices stay exact, and a pair exactly r apart is found, when
    # coordinates are 1e9 times the radius.
    pts = np.array([[1e3, 5.0], [1e3 + 2.0 ** -20, 5.0], [1e3, 5.0 + 1e-3]])
    r = 2.0 ** -20
    assert_same(grid(pts, None, r), tree(pts, None, r))
    assert grid(pts, None, r)[0].tolist() == [0]


def test_many_axes_bucket_on_three():
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 2, (60, 64)).astype(float)
    assert_same(grid(pts, None, 4.0), tree(pts, None, 4.0))
    assert np.array_equal(nn_distance(pts, len(pts)), brute_nn(pts))


def test_backend_follows_the_axis_count(monkeypatch):
    calls = []
    monkeypatch.setattr(neighbors, "_grid_within",
                        lambda *args: calls.append("grid") or _grid_within(*args))
    monkeypatch.setattr(neighbors, "_tree_pairs",
                        lambda *args: calls.append("tree") or _tree_pairs(*args))
    # Points with at most three axes go to the grid and more to the tree,
    # whatever the size: 2 000 copies of one point are 2e6 pairs in one cell.
    close_pairs(np.zeros((10, 2)), np.ones((10, 2)), 0.1)
    close_pairs(np.zeros((2000, 3)), r=0.0)
    close_pairs(np.zeros((1, 4)), np.ones((1, 4)), 0.1)
    close_pairs(np.zeros((2000, 4)), r=0.0)
    assert calls == ["grid", "grid", "tree", "tree"]


def test_cell_keys_past_the_limit_bucket_on_fewer_axes(monkeypatch):
    # Two points 0.1 apart every 0.6 along the diagonal: at r = 0.5 their
    # cell keys take (cells on x) x (cells on y) x (cells on z) values, 3.2e7
    # here.  Keys reaching `_KEY_LIMIT` would wrap in int64 and lose pairs,
    # as 2.2e6 such points past 2**61 did (1 623 of 2 200 found); that grid
    # buckets on the first two axes instead, and at the limit itself on all
    # three.  Either way it finds every pair, and the tree is not asked.
    t = np.arange(300) * 0.6
    pts = np.concatenate([np.stack([t, t, t], axis=1), np.stack([t + 0.1, t, t], axis=1)])
    side = 0.5 * (1.0 + 1e-9) + np.abs(pts).max() * 2.0 ** -50 + 1e-150
    radix = math.prod(len(np.unique(np.floor(x / side))) for x in pts.T)
    i, j, dist = brute_pairs(pts, pts, 0.5)
    want = i[i < j], j[i < j], dist[i < j]
    calls = []
    monkeypatch.setattr(neighbors, "_tree_pairs",
                        lambda *args: calls.append("tree") or _tree_pairs(*args))
    # A self-query's rows: the centre and forward offsets of 3 or 2 axes.
    for limit, rows in ((radix, 14), (radix - 1, 5)):
        monkeypatch.setattr(neighbors, "_KEY_LIMIT", limit)
        assert_same(close_pairs(pts, r=0.5), want)
        assert len(list(neighbors._grid(pts, None, 0.5)[2])) == rows
    assert calls == [] and len(want[0]) == 300


def test_sample_resolution_loads_scipy_past_three_axes_only():
    """A uniform 2e4 x 3 cloud, whose pairs at four spacings once went to
    the KD-tree, stays on the grid and loads no scipy.spatial; a cloud on
    four axes goes to the tree and loads it."""
    script = (
        "import sys, numpy as np\n"
        "from delayrecon.topology import sample_resolution\n"
        "sample_resolution(np.random.default_rng(0).uniform(0, 1, (20000, 3)))\n"
        "three = 'scipy.spatial' in sys.modules\n"
        "sample_resolution(np.random.default_rng(0).uniform(0, 1, (2000, 4)))\n"
        "print(three, 'scipy.spatial' in sys.modules)\n")
    src = str(Path(neighbors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_empty_and_single_inputs():
    empty = np.empty((0, 2))
    for result in (close_pairs(empty, np.ones((3, 2)), 1.0),
                   close_pairs(np.ones((3, 2)), empty, 1.0),
                   close_pairs(empty, r=1.0)):
        assert [len(x) for x in result] == [0, 0, 0]
    assert nn_distance(np.ones((1, 2)), 1).tolist() == [math.inf]
    assert nn_distance(empty, 0).shape == (0,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_duplicates_have_zero_nn_distance(k):
    pts = np.concatenate([np.eye(3)[:, :k], np.eye(3)[:1, :k]])
    dist = nn_distance(pts, 1)
    assert dist[0] == dist[-1] == 0.0


@pytest.mark.parametrize("k", [3, 4])
def test_nn_distance_is_exact_on_either_backend(k):
    # Every round goes to the grid (3 axes) or every round to the KD-tree.
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.uniform(0, 1, (500, k)),
                          rng.normal(0.5, 1e-5, (50, k))])
    pts = np.concatenate([pts, pts[:7]])
    assert np.array_equal(nn_distance(pts, len(pts)), brute_nn(pts))


def test_nn_distance_on_repeats_and_tight_clusters():
    # Thousands of copies of one point, and two clusters far narrower than
    # their distance apart: both start the rounds at their own scale.
    rng = np.random.default_rng(1)
    copies = np.concatenate([np.full((3000, 2), 0.3), rng.uniform(0, 1, (200, 2))])
    clusters = np.concatenate([rng.normal(0, 1e-4, (1500, 2)),
                               rng.normal(1, 1e-4, (1500, 2))])
    for pts in (copies, clusters):
        assert np.array_equal(nn_distance(pts, len(pts)), brute_nn(pts))


@st.composite
def clustered(draw):
    """A cloud on 1-4 axes: points around up to three centres at a spread
    of 1, 1e-3 or 1e-9 of their distance apart, with some rows repeated."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 50))
    offsets = draw(hnp.arrays(float, (n, k), elements=st.floats(-1.0, 1.0)))
    centres = draw(hnp.arrays(float, (3, k), elements=st.floats(-10.0, 10.0)))
    which = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    pts = centres[which] + draw(st.sampled_from([1.0, 1e-3, 1e-9])) * offsets
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=8))
    return np.concatenate([pts, pts[repeats]])


@settings(deadline=None, max_examples=150)
@given(clustered(), st.data())
def test_nn_distance_resolves_what_is_needed(pts, data):
    # 1-3 axes send every round to the grid, 4 to the KD-tree.
    need = data.draw(st.integers(1, len(pts)))
    got = nn_distance(pts, need)
    spacing = nn_spacing(pts)
    want = brute_nn(pts)
    resolved = np.isfinite(got)
    assert np.count_nonzero(resolved) >= need
    assert got[resolved].tobytes() == want[resolved].tobytes()
    # Every unresolved point is farther from the rest than any resolved one,
    # so the `need` smallest distances are exact.
    assert want[~resolved].min(initial=np.inf) > got[resolved].max()
    assert np.float64(spacing).tobytes() == np.median(want).tobytes()


@settings(deadline=None)
@given(clouds())
def test_self_query_grid_is_the_cross_query_grid(cloud):
    # A self-query takes b's cell order from the query sort and builds the
    # centre and forward rows only; a copy of the points is bucketed anew,
    # with all 3**k rows, and the self-query's rows are its last rows.
    pts, r = cloud
    own = neighbors._grid(pts, None, r)
    copy = neighbors._grid(pts, pts.copy(), r)
    assert own[1] is own[0]
    for x, y in zip(own[:2], copy[:2]):
        assert np.array_equal(x, y)
    rows, own_rows, copy_rows = 3 ** min(pts.shape[1], 3), list(own[2]), list(copy[2])
    assert len(copy_rows) == rows and len(own_rows) == rows - rows // 2
    for x, y in zip(own_rows, copy_rows[rows // 2:]):
        assert all(np.array_equal(u, v) for u, v in zip(x, y))


@settings(deadline=None, max_examples=80)
@given(clustered(), st.integers(20, 80), st.data())
def test_small_blocks_give_the_same_answers(pts, dense, data):
    # With `_CHUNK` at 64, every offset of a grid query splits into many
    # blocks; a dense cell of `dense` points near the first one gives single
    # query points more candidates than a block holds.
    from scipy import sparse

    from delayrecon.topology import linkage_components

    rng = np.random.default_rng(dense)
    pts = np.concatenate([pts, pts[:1] + 1e-6 * rng.uniform(-1, 1, (dense, pts.shape[1]))])
    r = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.3, 3.0]))
    other = pts[::-3] + data.draw(st.sampled_from([0.0, 1e-7]))
    sizes = []

    def spy(a, b, i, j, r):
        # A block holds at most `_CHUNK` candidates, or one query point's.
        if len(i) > neighbors._CHUNK:
            sizes.append(any(np.all((i == x) | (j == x)) for x in (i[0], j[0])))
        return _within(a, b, i, j, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neighbors, "_CHUNK", 64)
        mp.setattr(neighbors, "_within", spy)
        got_self, got_cross = close_pairs(pts, r=r), close_pairs(pts, other, r)
        got_nn, got_labels = nn_distance(pts, len(pts)), linkage_components(pts, r)
    i, j, dist = brute_pairs(pts, pts, r)
    assert_same(got_self, (i[i < j], j[i < j], dist[i < j]))
    assert_same(got_cross, brute_pairs(pts, other, r))
    assert np.array_equal(got_nn, brute_nn(pts))
    graph = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(len(pts),) * 2)
    assert np.array_equal(got_labels, sparse.csgraph.connected_components(graph)[1])
    if pts.shape[1] <= 3:
        assert all(sizes)
