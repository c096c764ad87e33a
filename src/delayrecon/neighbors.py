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
copies of one point.  Their self-queries read the points through the
distinct rows' indices, with no copy of the distinct points (the tree
takes one), and hand back pairs as indices of the points.  A query hands
its pairs over in blocks, which `nn_distance` and `linkage_components`
fold in as they come and only `close_pairs` joins: blocks of a grid
offset's query points, at most max(`_CHUNK`, one point's) candidates, or
of 128 rows for the tree.  A grid self-query walks only the centre offset
and the forward half of the others, each pair once.  A grid's neighbour
keys come from one small table per axis, over the distinct cell
coordinates on that axis, so no table of a key part per query cell is
held.
The greedy merge of near-duplicate rows, `first_found`, makes no pair query
at all: a sort on the first axis and a sweep over the rows it cannot rule
out, with the same distance formula and tie rule.  `median`, which
`nn_distance` and `topology.nn_spacing` take, imports no ``numpy.ma``.
"""

from __future__ import annotations

import numpy as np

# Candidates in a grid block, and those `_within` takes at once: 2**14
# keeps their index arrays and copies near 0.25 MB, whatever the cloud.
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


def _buckets(x, side, k, reps=None):
    """The rows ``reps`` of ``x`` (all when None) in cells of side ``side``
    on its first ``k`` axes, one axis at a time: ``(order, cells, start,
    count, vals, radix)``, the stable cell sort as row indices of ``x``,
    the occupied cells' rising keys with their first positions in it and
    sizes, each axis's distinct cell indices, and the key count.  A key is
    the mixed-radix number of a cell's ranks in ``vals``, so keys rise with
    the lexicographic cell order."""
    key, vals, radix = 0, [], 1
    for ax in range(k - 1, -1, -1):
        cell = np.floor((x[:, ax] if reps is None else x[:, ax][reps]) / side).astype(np.int64)
        v, rank = np.unique(cell, return_inverse=True)
        key = rank * radix + key
        vals.insert(0, v)
        radix *= len(v)
    key = key[order := np.argsort(key, kind="stable")]
    start = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    order = order if reps is None else reps[order]
    return order, key[start], start, np.diff(np.append(start, len(key))), vals, radix


def _grid(a, b, r, k=3, reps=None):
    """The buckets of a grid query: ``b``, or the rows ``reps`` of ``a``
    (all when None) when ``b`` is None, in cells of side at least ``r`` on
    its first ``k`` axes, so every close pair lies in neighbouring cells.
    Returns ``(qorder, border, rows)``: the query points and ``b`` sorted by
    cell, as row indices, and an iterator that builds each neighbour
    offset's row in turn: per query point in ``qorder``, the position in
    ``border`` of its neighbour cell's first point and that cell's size.
    The offsets are the ``3**k`` of a cross query, or the centre and later
    ones in a self-query, in `np.ndindex` order.  Keys that would reach
    `_KEY_LIMIT` make it bucket on one axis fewer."""
    pts = a if b is None else b
    k = min(a.shape[1], k)
    # The slack over r outweighs the rounding of coordinate / side, so a
    # close pair is never two cells apart, and keeps cell indices below 2**50;
    # the floor covers differences whose squares underflow to 0.
    big = max(np.abs(a[:, :k]).max(), np.abs(pts[:, :k]).max())
    side = r * (1.0 + 1e-9) + big * 2.0 ** -50 + 1e-150
    border, cells, start, count, vals, radix = bucket = _buckets(pts, side, k, reps)
    qorder, qcells, _, qcount, qvals, qradix = bucket if b is None else _buckets(a, side, k)
    if max(radix, qradix) > _KEY_LIMIT:
        return _grid(a, b, r, k - 1, reps)
    # Per axis, a neighbour cell's key part for the offsets (-1, 0, 1), one
    # column per distinct query cell coordinate there; a row reads it through
    # each query cell's rank, a digit of its key, so no per-cell table is
    # held.  A neighbour cell absent on some axis gets a negative key.
    tables = []
    for v, qv in zip(vals, qvals):
        radix, qradix = radix // len(v), qradix // len(qv)
        q = qv + np.arange(-1, 2)[:, None]
        pos = np.minimum(np.searchsorted(v, q), len(v) - 1)
        tables.append((np.where(v[pos] == q, pos * radix, -_KEY_LIMIT), qradix))

    def row(shift):
        key = sum(table[s][qcells // qr % table.shape[1]] for (table, qr), s in zip(tables, shift))
        slot = np.minimum(np.searchsorted(cells, key), len(cells) - 1)
        n_in = np.where(cells[slot] == key, count[slot], 0)
        return start[slot].repeat(qcount), n_in.repeat(qcount)

    shifts = list(np.ndindex((3,) * k))[3 ** k // 2 if b is None else 0:]
    return qorder, border, map(row, shifts)


def _offset_pairs(qorder, border, first, n_in):
    """The candidate pairs (i, j) of one offset's row, in blocks of query
    points: a block ends before the point that would take it past `_CHUNK`
    candidates, and holds at least one point."""
    ends, lo = np.cumsum(n_in), 0
    while lo < len(ends):
        done = ends[lo] - n_in[lo]
        hi = max(int(np.searchsorted(ends, done + _CHUNK, "right")), lo + 1)
        j = np.repeat(first[lo:hi] - ends[lo:hi] + n_in[lo:hi], n_in[lo:hi])
        j += np.arange(done, ends[hi - 1])
        yield np.repeat(qorder[lo:hi], n_in[lo:hi]), border[j]
        lo = hi


def _grid_within(a, b, r, reps=None):
    """The unsorted pairs of `close_pairs` from `_grid`, one chunk per
    block.  A self-query takes the centre offset's pairs once (i < j), and
    the later offsets, mirrors of the earlier ones, as (min, max) pairs."""
    qorder, border, rows = _grid(a, b, r, reps=reps)
    pts = a if b is None else b
    for o, row in enumerate(rows):
        for i, j in _offset_pairs(qorder, border, *row):
            if b is None:
                i, j = (i[i < j], j[i < j]) if o == 0 else (np.minimum(i, j), np.maximum(i, j))
            yield _within(a, pts, i, j, r)


def _tree_pairs(a, b, r):
    """The unsorted pairs of `close_pairs` from cKDTree candidates at
    ``r * (1 + 1e-9)``: one tree of ``b`` (or ``a``, keeping i < j), which
    each block of 128 rows of ``a`` queries.  64-256 rows ran fastest on a
    dense odometer."""
    from scipy.spatial import cKDTree

    pts = a if b is None else b
    tree, reach = cKDTree(pts), r * (1.0 + 1e-9)
    for lo in range(0, len(a), 128):
        near = cKDTree(a[lo:lo + 128]).sparse_distance_matrix(tree, reach, output_type="ndarray")
        i, j = near["i"] + lo, near["j"]
        yield _within(a, pts, i[i < j], j[i < j], r) if b is None else _within(a, pts, i, j, r)


def _pairs(a, b, r, reps=None):
    """The pairs of `close_pairs`, unsorted, as an iterator of chunks; with
    ``reps``, those of the self-query of ``a[reps]``, as row indices of
    ``a``.  This is the one grid-or-tree choice: points with at most three
    axes go to the grid, bucketing the larger cloud, and points with more
    to the tree."""
    if len(a) == 0 or (b is not None and len(b) == 0):
        return []
    if a.shape[1] > 3:
        tree = _tree_pairs(a if reps is None else a[reps], b, r)
        return tree if reps is None else ((reps[i], reps[j], d) for i, j, d in tree)
    swap = b is not None and len(a) > len(b)
    chunks = _grid_within(b, a, r) if swap else _grid_within(a, b, r, reps)
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
        for i, j, dist in _pairs(pts, None, r, reps):
            np.minimum.at(best, np.append(i, j), np.append(dist, dist))
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
