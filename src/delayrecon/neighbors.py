"""Fixed-radius and nearest-neighbour queries on point clouds.

Every neighbour query of the package goes through this module, so there is
one distance formula, ``sqrt`` of the summed squared coordinate differences
in NumPy, and one tie rule: a pair is close when that distance is ``<= r``.

Two backends give bitwise-identical results.  Small queries bucket points
on a NumPy grid; large ones use ``scipy.spatial.cKDTree``, imported only
there, as a candidate filter at a slightly larger radius.  The choice rests
on the work a grid query does: the candidate pairs it examines, counted
from its cells' occupancy before any is built, against `GRID_LIMIT`.  So
the shape of a cloud counts, not only its size: 2·10⁴ Lorenz states at four
spacings give 1.1·10⁶ candidates, 2·10⁴ uniform points in a cube 4.8·10⁶.
A nearest-neighbour query is routed by the pair query at four times the
median nearest-neighbour distance of its cloud.  The grid buckets on at most the first three axes,
which bounds nothing when those axes take few values (a 64-digit odometer
has 8 cells), so points with more axes go to the tree.
"""

from __future__ import annotations

import itertools

import numpy as np

# Candidate pairs a grid query may examine; above, a KD-tree, including the
# 0.41-0.53 s it takes to import scipy.spatial (2-vCPU x86 VM), is faster.
# Just below where the slowest clouds measured make a grid `nn_distance`
# plus `close_pairs` at four spacings cost that import more than a KD-tree
# does: uniform 2-D points at about 4e6 candidates (1.2e5 points), uniform
# 3-D points at 4.8e6-6.8e6 (2e4-2.75e4 points).
GRID_LIMIT = 3_500_000
# Candidates whose coordinate differences `_within` takes at once.
_CHUNK = 1 << 16
_EMPTY = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)


def _norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _within(a, b, i, j, r):
    """The candidates (i, j) within ``r`` of each other, with distances.
    The coordinate differences are taken in chunks, so their copies stay
    bounded however many candidates there are."""
    dist = np.empty(len(i))
    for s in range(0, len(i), _CHUNK):
        dist[s:s + _CHUNK] = _norm(a[i[s:s + _CHUNK]], b[j[s:s + _CHUNK]])
    keep = dist <= r
    return i[keep], j[keep], dist[keep]


def _by_pair(i, j, dist):
    """The pairs sorted by (i, j)."""
    order = np.argsort(i * (j.max(initial=0) + 1) + j)
    return i[order], j[order], dist[order]


def _grid(a, b, r):
    """The buckets of a grid query: ``b`` (``a`` itself when None) in cells
    of side at least ``r`` on its first three axes, so every close pair lies
    in neighbouring cells.  Returns ``(qorder, border, qcount, first,
    n_in)``: the query points sorted by cell, ``b`` sorted by cell, the
    number of query points in each occupied query cell, and for each of the
    ``3**k`` neighbour offsets (rows) and each occupied query cell (columns)
    the position in ``border`` of that neighbour cell's first point and its
    number of points."""
    pts = a if b is None else b
    k = min(a.shape[1], 3)
    # The slack over r outweighs the rounding of coordinate / side, so a
    # close pair is never two cells apart, and keeps cell indices below 2**50;
    # the floor covers differences whose squares underflow to 0.
    big = max(np.abs(a[:, :k]).max(), np.abs(pts[:, :k]).max())
    side = r * (1.0 + 1e-9) + big * 2.0 ** -50 + 1e-150
    ca = np.floor(a[:, :k] / side).astype(np.int64)
    cb = np.floor(pts[:, :k] / side).astype(np.int64)
    # Cell key: the per-axis ranks of b's cell indices in mixed radix, below
    # len(b)**3 < 2**61 here; a neighbour cell absent on some axis gets a
    # negative key, and three absent axes still sum above int64's minimum.
    qorder = np.lexsort(ca.T[::-1])
    cq = ca[qorder]
    head = np.concatenate([[True], np.any(cq[1:] != cq[:-1], axis=1)])
    cq = cq[head]
    qcount = np.diff(np.append(np.flatnonzero(head), len(a)))
    key_b = np.zeros(len(pts), dtype=np.int64)
    key_q = np.zeros((3,) * k + (len(cq),), dtype=np.int64)
    radix = 1
    for ax in range(k - 1, -1, -1):
        vals, rank = np.unique(cb[:, ax], return_inverse=True)
        key_b += rank.ravel() * radix
        q = cq[:, ax] + np.arange(-1, 2)[:, None]
        pos = np.minimum(np.searchsorted(vals, q), len(vals) - 1)
        part = np.where(vals[pos] == q, pos * radix, -(2 ** 61))
        key_q += part.reshape((1,) * ax + (3,) + (1,) * (k - 1 - ax) + (len(cq),))
        radix *= len(vals)
    border = np.argsort(key_b, kind="stable")
    cells, start, count = np.unique(key_b[border], return_index=True,
                                    return_counts=True)
    key_q = key_q.reshape(-1, len(cq))
    slot = np.minimum(np.searchsorted(cells, key_q), len(cells) - 1)
    return qorder, border, qcount, start[slot], np.where(cells[slot] == key_q,
                                                         count[slot], 0)


def _candidates(grid) -> int:
    """The number of candidate pairs a grid query examines, counted from
    the cell occupancy before any is built."""
    return int((grid[4] @ grid[2]).sum())


def _grid_within(a, b, r, grid=None):
    """The unsorted pairs of `close_pairs` from the buckets of `_grid`."""
    pts = a if b is None else b
    qorder, border, qcount, first, hits = _grid(a, b, r) if grid is None else grid
    # One neighbour offset at a time, which bounds the candidates in memory.
    parts = []
    for start, n_in in zip(first, hits):
        start, n_in = np.repeat(start, qcount), np.repeat(n_in, qcount)
        i = np.repeat(qorder, n_in)
        j = border[np.repeat(start - np.cumsum(n_in) + n_in, n_in) + np.arange(len(i))]
        if b is None:
            i, j = i[i < j], j[i < j]
        parts.append(_within(a, pts, i, j, r))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _grid_pairs(a, b, r, limit=np.inf):
    """`close_pairs` on the grid, bucketing the larger cloud; None when the
    grid would examine more than ``limit`` candidates."""
    swap = b is not None and len(a) > len(b)
    q, p = (b, a) if swap else (a, b)
    grid = _grid(q, p, r)
    if _candidates(grid) > limit:
        return None
    i, j, dist = _grid_within(q, p, r, grid)
    return _by_pair(j, i, dist) if swap else _by_pair(i, j, dist)


def _tree_pairs(a, b, r):
    """`close_pairs` from cKDTree candidates at ``r * (1 + 1e-9)``."""
    from scipy.spatial import cKDTree

    reach = r * (1.0 + 1e-9)
    if b is None:
        i, j = cKDTree(a).query_pairs(reach, output_type="ndarray").T
        return _by_pair(*_within(a, a, i, j, r))
    near = cKDTree(a).sparse_distance_matrix(cKDTree(b), reach,
                                             output_type="ndarray")
    return _by_pair(*_within(a, b, near["i"], near["j"], r))


def close_pairs(a, b=None, r: float = 0.0):
    """``(i, j, dist)`` for every pair with ``|a[i] - b[j]| <= r``, sorted
    by ``(i, j)``.  Without ``b`` the pairs are those of ``a`` with itself,
    ``i < j`` only.  ``a`` and ``b`` are (n, k) arrays."""
    a = np.asarray(a, dtype=float)
    b = None if b is None else np.asarray(b, dtype=float)
    if len(a) == 0 or (b is not None and len(b) == 0):
        return _EMPTY
    if a.shape[1] <= 3:
        pairs = _grid_pairs(a, b, r, GRID_LIMIT)
        if pairs is not None:
            return pairs
    return _tree_pairs(a, b, r)


def _grid_nn(pts, limit=np.inf):
    """`nn_distance` from grid queries at a radius doubled for the points
    with no other point within it yet.  A repeated point is at 0 and only
    one copy enters the grid.  The first radius is half the spacing of n
    points spread evenly over an extent of (median gap) x (gaps) along the
    first axis, so a dense cluster starts at its own scale; gaps below
    2**-40 of the extent are coordinates shared up to rounding.

    Once more than half the points are resolved, their median distance is
    known.  If points remain and a grid `close_pairs` of the cloud at four
    times that distance would examine more than ``limit`` candidates, the
    search stops and returns None: a cloud that dense at its own scale
    belongs on the KD-tree, whose scipy.spatial import its pair queries need
    anyway."""
    order = np.lexsort(pts.T[::-1])
    same = np.all(pts[order[1:]] == pts[order[:-1]], axis=1)
    repeated = np.zeros(len(pts), dtype=bool)
    repeated[order[1:][same]] = repeated[order[:-1][same]] = True
    reps = order[np.concatenate([[True], ~same])]
    best = np.where(repeated, 0.0, np.inf)
    todo = np.flatnonzero(~repeated)
    k = min(pts.shape[1], 3)
    span = float(np.ptp(pts[:, :k], axis=0).max())
    gaps = np.diff(np.sort(pts[reps, 0]))
    gaps = gaps[gaps > span * 2.0 ** -40]
    extent = float(np.median(gaps)) * len(gaps) if len(gaps) else span
    r = extent / (2.0 * len(reps) ** (1.0 / k)) or 1.0
    half = len(pts) // 2
    while todo.size and r < np.inf:
        if limit < np.inf and len(todo) < len(pts) - half:
            spacing = np.partition(best, half)[half]
            if _candidates(_grid(pts, None, 4.0 * spacing)) > limit:
                return None
            limit = np.inf
        i, j, dist = _grid_within(pts[todo], pts[reps], r)
        other = todo[i] != reps[j]
        np.minimum.at(best, todo[i[other]], dist[other])
        todo = todo[best[todo] > r]
        r *= 2.0
    return best


def _tree_nn(pts):
    """`nn_distance` from cKDTree.  Up to 7 axes it sums the squares in
    NumPy's order, so its distances are `_norm`'s; beyond, the nearest
    point is taken among those within ``1 + 1e-9`` times its distance."""
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    nearest = tree.query(pts, k=2)[0][:, 1]
    if pts.shape[1] <= 7:
        return nearest
    near = tree.query_ball_point(pts, nearest * (1.0 + 1e-9), return_sorted=False)
    j = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64)
    i = np.repeat(np.arange(len(pts)), [len(c) for c in near])
    dist = _norm(pts[i], pts[j])
    best = np.full(len(pts), np.inf)
    np.minimum.at(best, i[i != j], dist[i != j])
    return best


def nn_distance(pts) -> np.ndarray:
    """Distance from each point of an (n, k) array to its nearest other
    point: 0 for a duplicated point, inf when n < 2."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 2:
        return np.full(len(pts), np.inf)
    if pts.shape[1] <= 3:
        best = _grid_nn(pts, GRID_LIMIT)
        if best is not None:
            return best
    return _tree_nn(pts)
