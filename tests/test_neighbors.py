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
    _grid_pairs,
    _grid_within,
    _tree_pairs,
    close_pairs,
    nn_distance,
)


@st.composite
def clouds(draw, min_size=1, k=None):
    """(points, r): a random or lattice cloud in 1, 2, 3 or 6 dimensions with
    some rows repeated; on a lattice, r is a lattice distance, so pairs sit
    exactly at r."""
    if k is None:
        k = draw(st.sampled_from([1, 2, 3, 6]))
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
    return _by_pair(*_grid_pairs(a, b, r))


def tree(a, b, r):
    return _by_pair(*_tree_pairs(a, b, r))


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
    assert np.array_equal(nn_distance(pts), brute_nn(pts))


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
    assert np.array_equal(nn_distance(pts), brute_nn(pts))


def test_backend_follows_grid_work(monkeypatch):
    calls = []
    monkeypatch.setattr(neighbors, "_grid_within",
                        lambda *args: calls.append("grid") or _grid_within(*args))
    monkeypatch.setattr(neighbors, "_tree_pairs",
                        lambda *args: calls.append("tree") or _tree_pairs(*args))
    # Work is the candidates the grid examines, not the points times 3**k:
    # points far apart cost one candidate each, while points sharing one
    # cell cost n**2; points with more than three axes always go to the tree.
    close_pairs(np.zeros((10, 2)), np.ones((10, 2)), 0.1)
    close_pairs(np.arange(60_000.0).reshape(-1, 3), r=0.0)
    n = math.isqrt(neighbors.GRID_LIMIT) + 1
    close_pairs(np.zeros((n, 2)), r=0.0)
    close_pairs(np.zeros((10, 4)), r=0.1)
    assert calls == ["grid", "grid", "tree", "tree"]


def test_candidate_count_before_building():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(0, 1, (300, 3)), rng.uniform(0, 1, (500, 3))
    for q, p in ((a, b), (a, None)):
        counted = neighbors._candidates(neighbors._grid(q, p, 0.1))
        # Every candidate: each query point against all of b in the 27
        # cells around its own.
        p = q if p is None else p
        big = max(np.abs(q).max(), np.abs(p).max())
        side = 0.1 * (1.0 + 1e-9) + big * 2.0 ** -50 + 1e-150
        cq, cp = np.floor(q / side), np.floor(p / side)
        assert counted == np.count_nonzero(np.abs(cq[:, None] - cp[None]).max(axis=2) <= 1)


def test_sample_resolution_on_a_large_uniform_cloud_uses_the_tree():
    """A uniform 2e4 x 3 cloud is the kind whose pairs at four spacings are
    too many for the grid, so its linkage query goes to the KD-tree and
    scipy.spatial is loaded; a smaller one stays on the grid."""
    script = (
        "import sys, numpy as np\n"
        "from delayrecon.topology import sample_resolution\n"
        "sample_resolution(np.random.default_rng(0).uniform(0, 1, (2000, 3)))\n"
        "small = 'scipy.spatial' in sys.modules\n"
        "sample_resolution(np.random.default_rng(0).uniform(0, 1, (20000, 3)))\n"
        "print(small, 'scipy.spatial' in sys.modules)\n")
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
    assert nn_distance(np.ones((1, 2))).tolist() == [math.inf]
    assert nn_distance(empty).shape == (0,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_duplicates_have_zero_nn_distance(k):
    pts = np.concatenate([np.eye(3)[:, :k], np.eye(3)[:1, :k]])
    dist = nn_distance(pts)
    assert dist[0] == dist[-1] == 0.0


@pytest.mark.parametrize("limit", [0, math.inf])
def test_nn_distance_is_exact_on_either_backend(monkeypatch, limit):
    # Every round goes to the KD-tree (limit 0) or every round to the grid.
    monkeypatch.setattr(neighbors, "GRID_LIMIT", limit)
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.uniform(0, 1, (500, 3)),
                          rng.normal(0.5, 1e-5, (50, 3))])
    pts = np.concatenate([pts, pts[:7]])
    assert np.array_equal(nn_distance(pts), brute_nn(pts))


def test_nn_distance_on_repeats_and_tight_clusters():
    # Thousands of copies of one point, and two clusters far narrower than
    # their distance apart: both start the rounds at their own scale.
    rng = np.random.default_rng(1)
    copies = np.concatenate([np.full((3000, 2), 0.3), rng.uniform(0, 1, (200, 2))])
    clusters = np.concatenate([rng.normal(0, 1e-4, (1500, 2)),
                               rng.normal(1, 1e-4, (1500, 2))])
    for pts in (copies, clusters):
        assert np.array_equal(nn_distance(pts), brute_nn(pts))
