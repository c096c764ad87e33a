"""Fixed-radius and nearest-neighbour queries on point clouds.

Every neighbour query of the package goes through this module, so there is
one distance formula, ``sqrt`` of the summed squared coordinate differences
in NumPy, and one tie rule: a pair is close when that distance is ``<= r``.
`np.add.reduce` adds a row's squares in axis order below 8 axes and
pairwise from 8, so `_within` sums them axis by axis below 8 axes only.

Two backends give bitwise-identical results.  Points with at most three
axes are bucketed on a NumPy grid; points with more go to
``scipy.spatial.cKDTree``, imported only there, as a candidate filter at a
slightly larger radius.  That axis count is the one backend rule: the grid
buckets on at most the first three axes, which bounds nothing when those
axes take few values (a 64-digit odometer has 8 cells).  A
nearest-neighbour query is rounds of that same pair query at a doubling
radius, so it makes no backend choice of its own: one self-query of the
distinct points, then cross queries of the points left, until as many
points are resolved as the caller needs.  `distinct` finds the distinct
points for it and for `topology.linkage_components`, so no query pairs
copies of one point.  A query hands its pairs over in chunks, one per
neighbour offset on the grid and one from the tree: `nn_distance` and
`linkage_components` fold each chunk in as it comes, and only
`close_pairs` joins them.  A grid builds its cell tables one offset at a
time.  A grid self-query builds and walks only the centre offset and the
forward half of the others, each pair once, and takes its cell order from
the query sort.  A grid whose mixed-radix cell keys would reach
`_KEY_LIMIT` buckets on fewer leading axes.
The greedy merge of near-duplicate rows, `first_found`, makes no pair query
at all: a sort on the first axis and a sweep over the rows it cannot rule
out, with the same distance formula and tie rule.  `median`, which
`nn_distance` and `topology.nn_spacing` take, imports no ``numpy.ma``.
"""

from __future__ import annotations

import numpy as np

# Candidates whose coordinate differences `_within` takes at once: 2**14
# keeps their copies near 0.25 MB, under a grid chunk's own index arrays.
_CHUNK = 1 << 14
# Grid cell keys are mixed-radix numbers below this; an axis whose neighbour
# cell is absent adds its negative, and three such still sum above int64's
# minimum.  A grid whose keys would reach it buckets on fewer axes.
_KEY_LIMIT = 2 ** 61
_EMPTY = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)


def _norm(a: np.ndarray, b: np.ndarray, wrap=None) -> np.ndarray:
    d = a - b if wrap is None else wrap(a - b)
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _within(a, b, i, j, r):
    """The candidates (i, j) within ``r`` of each other, with distances.
    The coordinate differences are taken in chunks, so their copies stay
    bounded however many candidates there are."""
    dist = np.empty(len(i))
    for s in range(0, len(i), _CHUNK):
        ii, jj, out = i[s:s + _CHUNK], j[s:s + _CHUNK], dist[s:s + _CHUNK]
        if a.shape[1] >= 8:
            # `np.add.reduce` sums 8 or more terms pairwise, not in axis order.
            out[:] = _norm(a[ii], b[jj])
            continue
        out[:] = 0.0
        for ax in range(a.shape[1]):
            d = a[:, ax][ii]
            d -= b[:, ax][jj]
            d *= d
            out += d
        np.sqrt(out, out=out)
    keep = dist <= r
    return i[keep], j[keep], dist[keep]


def _by_pair(i, j, dist):
    """The pairs sorted by (i, j)."""
    order = np.argsort(i * (j.max(initial=0) + 1) + j)
    return i[order], j[order], dist[order]


def _grid(a, b, r, k=3):
    """The buckets of a grid query: ``b`` (``a`` itself when None) in cells
    of side at least ``r`` on its first ``k`` axes, so every close pair lies
    in neighbouring cells.  Returns ``(qorder, border, qcount, first,
    n_in)``: the query points sorted by cell, ``b`` sorted by cell, the
    number of query points in each occupied query cell, and for each
    neighbour offset (rows) and each occupied query cell (columns) the
    position in ``border`` of that neighbour cell's first point and its
    number of points.  The rows are the ``3**k`` offsets of a cross query,
    or the centre offset and those after it in a self-query, in
    `np.ndindex` order.  When b's cell keys would reach `_KEY_LIMIT`, the
    buckets are those on one axis fewer."""
    pts = a if b is None else b
    k = min(a.shape[1], k)
    # The slack over r outweighs the rounding of coordinate / side, so a
    # close pair is never two cells apart, and keeps cell indices below 2**50;
    # the floor covers differences whose squares underflow to 0.
    big = max(np.abs(a[:, :k]).max(), np.abs(pts[:, :k]).max())
    side = r * (1.0 + 1e-9) + big * 2.0 ** -50 + 1e-150
    ca = np.floor(a[:, :k] / side).astype(np.int64)
    cb = ca if b is None else np.floor(pts[:, :k] / side).astype(np.int64)
    qorder = np.lexsort(ca.T[::-1])
    cq = ca[qorder]
    head = np.concatenate([[True], np.any(cq[1:] != cq[:-1], axis=1)])
    cq = cq[head]
    qcount = np.diff(np.append(np.flatnonzero(head), len(a)))
    # Cell key: the per-axis ranks of b's cell indices in mixed radix; a
    # neighbour cell absent on some axis gets a negative key.
    key_b, parts, radix = np.zeros(len(pts), dtype=np.int64), [], 1
    for ax in range(k - 1, -1, -1):
        vals, rank = np.unique(cb[:, ax], return_inverse=True)
        key_b += rank.ravel() * radix
        q = cq[:, ax] + np.arange(-1, 2)[:, None]
        pos = np.minimum(np.searchsorted(vals, q), len(vals) - 1)
        parts.insert(0, np.where(vals[pos] == q, pos * radix, -_KEY_LIMIT))
        radix *= len(vals)
    del ca, cb, vals, rank, q, pos
    if radix > _KEY_LIMIT:
        return _grid(a, b, r, k - 1)
    # The keys rise with the lexicographic cell order, so in a self-query
    # the query sort is already b's.
    border = qorder if b is None else np.argsort(key_b, kind="stable")
    keys = key_b[border]
    start = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    cells, count = keys[start], np.diff(np.append(start, len(pts)))
    # One offset's keys at a time, in the order of the axes' offsets
    # (-1, 0, 1) with the first axis slowest.
    shifts = list(np.ndindex((3,) * k))[3 ** k // 2 if b is None else 0:]
    first, n_in = np.empty((2, len(shifts), len(cq)), dtype=np.int64)
    for o, shift in enumerate(shifts):
        key = sum(part[s] for part, s in zip(parts, shift))
        slot = np.minimum(np.searchsorted(cells, key), len(cells) - 1)
        first[o] = start[slot]
        n_in[o] = np.where(cells[slot] == key, count[slot], 0)
    return qorder, border, qcount, first, n_in


def _offset_pairs(grid, o, self_query):
    """The candidate pairs (i, j) of row ``o`` of a grid's tables.  A
    self-query's row 0 is the centre offset, whose pairs are taken once
    (i < j); its later rows are the mirror images of the offsets before
    the centre, taken as (min, max) pairs."""
    qorder, border, qcount, first, hits = grid
    start, n_in = np.repeat(first[o], qcount), np.repeat(hits[o], qcount)
    i = np.repeat(qorder, n_in)
    j = np.repeat(start - np.cumsum(n_in) + n_in, n_in)
    j += np.arange(len(i))
    j = border[j]
    if self_query and o == 0:
        return i[i < j], j[i < j]
    return (np.minimum(i, j), np.maximum(i, j, out=j)) if self_query else (i, j)


def _grid_within(a, b, r):
    """The unsorted pairs of `close_pairs` from the buckets of `_grid`, one
    chunk per neighbour offset, which bounds the candidates in memory."""
    grid = _grid(a, b, r)
    pts = a if b is None else b
    return (_within(a, pts, *_offset_pairs(grid, o, b is None), r)
            for o in range(len(grid[3])))


def _tree_pairs(a, b, r):
    """The unsorted pairs of `close_pairs` from cKDTree candidates at
    ``r * (1 + 1e-9)``."""
    from scipy.spatial import cKDTree

    reach = r * (1.0 + 1e-9)
    if b is None:
        i, j = cKDTree(a).query_pairs(reach, output_type="ndarray").T
        return _within(a, a, i, j, r)
    near = cKDTree(a).sparse_distance_matrix(cKDTree(b), reach,
                                             output_type="ndarray")
    return _within(a, b, near["i"], near["j"], r)


def _pairs(a, b, r):
    """The pairs of `close_pairs`, unsorted, as an iterator of chunks: one
    per neighbour offset on the grid, one from the tree.  This is the one
    grid-or-tree choice: points with at most three axes go to the grid,
    bucketing the larger cloud, and points with more to the tree."""
    if len(a) == 0 or (b is not None and len(b) == 0):
        return []
    if a.shape[1] > 3:
        # An iterator, not a list, so a caller can let the chunk go once folded.
        return map(_tree_pairs, [a], [b], [r])
    swap = b is not None and len(a) > len(b)
    chunks = _grid_within(b, a, r) if swap else _grid_within(a, b, r)
    return ((j, i, dist) for i, j, dist in chunks) if swap else chunks


def close_pairs(a, b=None, r: float = 0.0):
    """``(i, j, dist)`` for every pair with ``|a[i] - b[j]| <= r``, sorted
    by ``(i, j)``.  Without ``b`` the pairs are those of ``a`` with itself,
    ``i < j`` only.  ``a`` and ``b`` are (n, k) arrays."""
    a = np.asarray(a, dtype=float)
    b = None if b is None else np.asarray(b, dtype=float)
    # Each column's parts go once it is joined, which bounds the peak memory.
    cols = list(zip(_EMPTY, *_pairs(a, b, r)))
    return _by_pair(*(np.concatenate(cols.pop(0)) for _ in range(3)))


def median(x) -> float:
    """Median of a nonempty 1-D array: the mean of its sorted one or two
    middle values, bit for bit `np.median`, or NaN when it holds a NaN.  It
    skips the ``numpy.ma`` import that `np.median` makes on first use."""
    x = np.sort(x)
    middle = x[(len(x) - 1) // 2:len(x) // 2 + 1]
    return float("nan") if np.isnan(x[-1]) else float(np.mean(middle))


def distinct(pts) -> tuple[np.ndarray, np.ndarray]:
    """``(reps, copy_of)`` for an (n, k) array: the index of the first copy
    of each distinct row, in lexicographic row order, and for each row the
    index of its first copy.  One sort on the first axis orders the rows
    when no two share a first coordinate, as on a sampled orbit; otherwise
    a lexicographic sort does."""
    order = np.argsort(pts[:, 0])
    if np.any(pts[order[1:], 0] == pts[order[:-1], 0]):
        order = np.lexsort(pts.T[::-1])
    head = np.append(True, np.any(pts[order[1:]] != pts[order[:-1]], axis=1))[:len(pts)]
    copy_of = np.empty(len(pts), dtype=np.int64)
    copy_of[order] = order[head][np.cumsum(head) - 1]
    return order[head], copy_of


def nn_distance(pts, need: int) -> np.ndarray:
    """Distance from each point of an (n, k) array to its nearest other
    point, or inf where it is left unresolved: 0 for a duplicated point,
    inf for every point when n < 2.  At least ``need`` points are resolved,
    and each is nearer its neighbour than any unresolved point is, so the
    ``need`` smallest entries are exact.

    Rounds of the pair query at a radius doubled each round, until at least
    ``need`` points have another point within the radius.  The first round
    pairs the distinct points among themselves, each pair once, and updates
    both ends; a later one queries the points still unresolved against one
    copy of each distinct point.  The first radius is half the spacing of n
    points spread evenly over an extent of (median gap) x (gaps) along the
    first axis, so a dense cluster starts at its own scale; gaps below
    2**-40 of the extent are coordinates shared up to rounding."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 2:
        return np.full(len(pts), np.inf)
    reps, copy_of = distinct(pts)
    best = np.where(np.bincount(copy_of)[copy_of] > 1, 0.0, np.inf)
    k = min(pts.shape[1], 3)
    span = float(np.ptp(pts[:, :k], axis=0).max())
    gaps = np.diff(np.sort(pts[reps, 0]))
    gaps = gaps[gaps > span * 2.0 ** -40]
    extent = median(gaps) * len(gaps) if len(gaps) else span
    r = extent / (2.0 * len(reps) ** (1.0 / k)) or 1.0
    if r < np.inf:
        # Each chunk of pairs is folded in as it comes, unsorted and unjoined.
        for i, j, dist in _pairs(pts[reps], None, r):
            np.minimum.at(best, reps[np.append(i, j)], np.append(dist, dist))
    todo = np.flatnonzero(best > r)
    while todo.size > len(pts) - need and 2.0 * r < np.inf:
        r *= 2.0
        for i, j, dist in _pairs(pts[todo], pts[reps], r):
            other = todo[i] != reps[j]
            np.minimum.at(best, todo[i[other]], dist[other])
        todo = todo[best[todo] > r]
    return best


def first_found(pts, r: float, labels=None, wrap=None) -> np.ndarray:
    """Greedy merge in row order: for each row of the (n, k) array ``pts``,
    the index of the row it merges into, its own index when it is kept.  A
    row merges into the first earlier kept row within ``r`` of it that has
    the same label (every row has one label when ``labels`` is None).  With
    ``wrap``, distances are of ``wrap`` of the displacement, as
    `System.wrap_displacement` gives it on a torus.

    After one sort on the first axis, a row whose sorted neighbours on both
    sides, the wrap-around gap included, are more than ``r`` away merges
    with nothing.  The other rows go through a sweep, one step per kept
    row: the first undecided row is kept, and the later undecided rows
    within ``r`` of it with its label merge into it.  Every earlier kept
    row has already taken its neighbours, so each merged row goes to its
    earliest kept neighbour, as the greedy rule asks."""
    pts = np.asarray(pts, dtype=float)
    into = np.arange(len(pts))
    if len(pts) == 0:
        return into
    key = pts[:, 0] if wrap is None else wrap(pts[:, 0])
    order = np.argsort(key, kind="stable")
    step = np.diff(key[order], append=key[order[0]])
    gap = np.abs(step if wrap is None else wrap(step))
    # The slack outweighs the rounding of the gaps, of the norm and of a wrap
    # (an error of order 2**-53 even for small coordinates).
    reach = r * (1.0 + 1e-9) + (1.0 + np.abs(pts[:, 0]).max()) * 2.0 ** -40
    sweep = np.ones(len(pts), dtype=bool)
    sweep[order[(gap > reach) & (np.roll(gap, 1) > reach)]] = False
    rest = np.flatnonzero(sweep)
    while rest.size:
        q, rest = rest[0], rest[1:]
        hit = _norm(pts[rest], pts[q], wrap) <= r
        if labels is not None:
            hit &= labels[rest] == labels[q]
        into[rest[hit]] = q
        rest = rest[~hit]
    return into
