"""Cover orders, covering- and box-dimension estimators, and the
periodic-set dimension check behind the delay-count selection.

The covering-dimension estimate is an explicit heuristic: minimizing the
order over all refinements is uncomputable from samples, so each scale's
mesh cover is refined constructively (resolution-aware component
splitting, else a Kuhn-triangulation star cover whose order is at most the
ambient grid dimension) and the achieved order is reported with a
``heuristic`` flag.

A cover is its ``(sample, element)`` index pairs: one pair for each sample
an element contains, the sample-membership matrix in coordinate form.  The
order of a cover is one ``bincount`` of its sample indices.  A mesh cover
puts each sample in one cell, so an element of a refinement is a (star,
cell) or (component, cell) pair, keyed by one ``unique``.  Nothing here
imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .neighbors import _pairs, distinct, median, nn_distance
from .systems import System, find_periodic

__all__ = [
    "DimensionEstimate",
    "UncoveredSampleError",
    "cover_order",
    "refine_order",
    "covering_dimension_estimate",
    "box_counting",
    "hypothesis_check",
    "mesh_cover",
    "nn_spacing",
    "sample_resolution",
    "linkage_components",
]


class UncoveredSampleError(ValueError):
    """A reference sample lies outside every cover element."""


def _pts(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _grid_index(pts: np.ndarray, origin, scale: float) -> np.ndarray:
    """Cell of each point on the grid of side ``scale`` anchored at
    ``origin``.  The nudge guards against samples sitting exactly on cell
    boundaries, where float rounding would split one occupied cell into
    two.  A scale that puts more than 2**52 cells between ``origin`` and a
    point, where float cell coordinates stop being exact, is an error."""
    cells = (pts - np.asarray(origin)) / scale
    if np.abs(cells).max(initial=0.0) > 2 ** 52:
        raise ValueError(f"scale {scale:g} puts more than 2**52 grid cells across the samples")
    return np.floor(cells + 1e-9).astype(np.int64)


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Ids 0..k-1 of the k distinct rows of an int array, in lexicographic
    row order.  Columns are folded into one mixed-radix key, ranked once;
    where the next column would take the key past 2**62, the key and that
    column are ranked first, each below the number of rows."""
    key, span = np.zeros(rows.shape[0], dtype=np.int64), 1
    for col in rows.T:
        lo, width = int(col.min()), int(np.ptp(col)) + 1
        if span * width > 2 ** 62:
            key, col, lo = _ranks(key), _ranks(col), 0
            span, width = int(key.max()) + 1, int(col.max()) + 1
        key = key * width + (col - lo)
        span *= width
    return _ranks(key)


def _ranks(x: np.ndarray) -> np.ndarray:
    """Dense ranks 0..k-1 of the k distinct values of an int array, the
    inverse of `np.unique`, through two temporaries of its size."""
    order = np.argsort(x)
    x = x[order]
    np.cumsum(x[1:] != x[:-1], out=x[1:])
    x[:1] = 0
    ranks = np.empty_like(x)
    ranks[order] = x
    return ranks


def cover_order(cover, n_samples: int) -> int:
    """-1 + the most elements containing one sample, for a cover of
    ``n_samples`` samples given as ``(sample, element)`` index pairs."""
    counts = np.bincount(cover[0], minlength=n_samples)
    if len(counts) != n_samples or not counts.all():
        raise UncoveredSampleError(
            "a cover needs one row per sample, each in some element")
    return int(counts.max()) - 1


# --- sampling-resolution helpers -----------------------------------------

def nn_spacing(samples) -> float:
    """Median nearest-neighbor distance of the sample set."""
    pts = _pts(samples)
    return median(nn_distance(pts, len(pts) // 2 + 1)) if len(pts) > 1 else 0.0


def _resolution_gap(spacing: float) -> float:
    """The sampling resolution, four sample spacings: the smallest gap
    `refine_order` splits at and the smallest scale a detected periodic set
    is box-counted at."""
    return max(4.0 * spacing, 1e-12)


def linkage_components(samples, threshold: float) -> np.ndarray:
    """Single-linkage component labels at the given distance threshold,
    numbered in the order of each component's smallest sample index.

    Hook and shortcut on the close pairs of the distinct samples, one chunk
    of pairs at a time as the query hands them over: every root of an edge
    whose ends have different roots points at the smaller root, then the
    pointers are followed until each sample points at its root, until no
    edge of the chunk joins two roots.  Later hooks only lower roots, so an
    earlier chunk's edges still agree.  A root is the smallest index of its
    component, whatever the order of the edges, and a repeated sample takes
    the label of its first copy."""
    pts = _pts(samples)
    reps, copy_of = distinct(pts)
    root = np.arange(pts.shape[0])
    # A chunk's own arrays go as soon as its ends are mapped to samples.
    ends = map(lambda c: (reps[c[0]], reps[c[1]]), _pairs(pts[reps], None, threshold))
    for i, j in ends:
        while not np.array_equal(root[i], root[j]):
            np.minimum.at(root, np.maximum(root[i], root[j]), np.minimum(root[i], root[j]))
            while not np.array_equal(root, root[root]):
                root = root[root]
    return np.unique(root[copy_of], return_inverse=True)[1]


def sample_resolution(samples) -> tuple[float, np.ndarray]:
    """The scale-free inputs of the covering estimate for one sample set: its
    `nn_spacing`, and its `linkage_components` at four times that spacing,
    the labels `refine_order` takes."""
    spacing = nn_spacing(samples)
    return spacing, linkage_components(samples, _resolution_gap(spacing))


def mesh_cover(samples, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-open mesh boxes of side ``scale`` occupied by at least one sample,
    as a one-hot cover: each sample with the id of its box, ids in
    lexicographic cell order.

    The grid is anchored at the sample bounding-box corner for
    reproducibility.
    """
    pts = _pts(samples)
    return np.arange(len(pts)), _row_ids(_grid_index(pts, pts.min(axis=0), scale))


# --- order-minimizing refinement -----------------------------------------

def kuhn_vertex_keys(pts: np.ndarray, scale: float, origin: np.ndarray) -> np.ndarray:
    """Vertices of the Kuhn simplex containing each point, as an
    ``(n, dim+1, dim)`` int array.

    The unit-cube grid at ``scale`` is triangulated by sorting fractional
    coordinates: vertex k is the cell corner plus one unit step along each
    of the k axes with the largest fractional parts.  Ties keep axis order
    (a stable sort), so membership is a pure function of the coordinates.
    """
    u = (pts - origin) / scale
    base = np.floor(u).astype(int)
    axes = np.argsort(-(u - base), axis=1, kind="stable")
    n, dim = base.shape
    steps = np.zeros((n, dim + 1, dim), dtype=int)
    steps[np.arange(n)[:, None], np.arange(1, dim + 1), axes] = 1
    np.cumsum(steps, axis=1, out=steps)
    steps += base[:, None, :]
    return steps


def _overlaps(ea, eb):
    """The distinct pairs ``(ea[i], eb[i])`` of two element ids given per
    entry, sorted, and the number of entries with each."""
    radix = eb.max(initial=0) + 1
    keys, counts = np.unique(ea * radix + eb, return_counts=True)
    return keys // radix, keys % radix, counts


def _kuhn_attempt(pts: np.ndarray, cell: np.ndarray, star_scale: float):
    """Kuhn-star refinement of the mesh partition ``cell`` (each sample's
    cell id): lattice-triangulation vertex stars meet at most dim+1 at a
    point, and each star is cut into one piece per cell it meets."""
    n, dim = pts.shape
    stars = _row_ids(kuhn_vertex_keys(pts, star_scale, pts.min(axis=0)).reshape(-1, dim))
    stars = stars.reshape(n, dim + 1)
    # Drop stars whose samples lie in another star's (coverage is kept,
    # multiplicity can only drop); of equal stars the lowest id stays.  The
    # pairs of stars one sample lies in join the star cover with itself; a
    # sample's vertices, so its star ids, rise with the vertex index, so
    # each pair (a, b) comes once, with a < b.
    sizes = np.bincount(stars.ravel())
    p, q = np.triu_indices(dim + 1, 1)
    a, b, shared = _overlaps(stars[:, p], stars[:, q])
    keep = np.ones(len(sizes), dtype=bool)
    keep[a[(shared == sizes[a]) & (sizes[b] > sizes[a])]] = False
    keep[b[shared == sizes[b]]] = False
    sample, star = np.repeat(np.arange(n), dim + 1), stars.ravel()
    sample, star = sample[keep[star]], star[keep[star]]
    # An element is a (star, cell) pair, ranked in lexicographic order.
    return sample, _ranks(star * (cell.max() + 1) + cell[sample])


def refine_order(samples, scale: float,
                 labels) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """Search for a low-order refinement of the samples' `mesh_cover` at
    ``scale``.

    ``labels`` are the samples' `linkage_components` from
    `sample_resolution`, which does not depend on the scale, so a caller
    refining one sample set at several scales computes them once.
    Components of the sample set that are disconnected at four sample
    spacings, padded by half that distance, are isolated into disjoint
    elements (order 0) whenever each lies in one mesh cell; otherwise
    connected regions are covered by Kuhn-triangulation stars of side
    ``scale / (4 sqrt(dim))``, cut by the cells.  A sample lies in at most
    dim+1 stars and in one cell, so that order is at most dim.  Splitting
    below the sampling resolution is never attempted: gaps that small are
    indistinguishable from finite-sample artifacts.  Returns ``(cover,
    order)``: the refinement's ``(sample, element)`` index pairs, element
    ids 0..m-1, and its order.
    """
    pts = _pts(samples)
    n, dim = pts.shape
    if len(labels) != n:
        raise ValueError("labels need one row per sample")
    labels = np.asarray(labels, dtype=np.int64)
    cell = mesh_cover(pts, scale)[1]
    if len(_overlaps(labels, cell)[0]) == np.count_nonzero(np.bincount(labels)):
        # Each component meets one cell, and components are more than four
        # spacings apart and padded by two: order 0.
        return (np.arange(n), labels), 0
    cover = _kuhn_attempt(pts, cell, scale / (4.0 * math.sqrt(dim)))
    return cover, cover_order(cover, n)


# --- dimension estimates --------------------------------------------------

@dataclass
class DimensionEstimate:
    """A dimension estimate; its fields are the keys of its JSON form."""

    value: float
    scales: list[float]
    counts: list[int]
    residual: float | None
    method: str
    heuristic: bool = False
    notes: list[str] = field(default_factory=list)


def covering_dimension_estimate(samples, scales) -> DimensionEstimate:
    """Heuristic upper bound on the Lebesgue covering dimension of the
    sampled space: for each scale, build a mesh cover and minimize the
    order of a refinement; report the max over scales."""
    pts = _pts(samples)
    scales = [float(s) for s in scales]
    if len(scales) < 2 or any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("need at least two scales in descending order")
    if not scales[-1] > 0.0:
        raise ValueError("covering scales must be positive")
    # Scales below the sampling resolution go before the linkage is paid for.
    spacing = nn_spacing(pts)
    used, notes = [], []
    for s in scales:
        if s < 8.0 * spacing:
            notes.append(f"scale {s:g} below sampling resolution; dropped")
        else:
            used.append(s)
    if not used:
        raise ValueError("all scales below sampling resolution")
    labels = linkage_components(pts, _resolution_gap(spacing))
    orders = [refine_order(pts, s, labels)[1] for s in used]
    return DimensionEstimate(value=int(max(orders)), scales=used, counts=orders, residual=0.0,
                             method="covering-heuristic", heuristic=True, notes=notes)


def _box_counts(pts: np.ndarray, scales) -> list[int]:
    """Occupied cells of the grid anchored at the bounding-box corner, per
    scale."""
    anchor = pts.min(axis=0)
    extent = pts.max(axis=0) - anchor
    counts = []
    for s in scales:
        idx = _grid_index(pts, anchor, s)
        # Points on the outer bounding-box face fold into the last cell.
        ncells = np.maximum(1, np.ceil(extent / s - 1e-9)).astype(np.int64)
        counts.append(int(_row_ids(np.clip(idx, 0, ncells - 1)).max()) + 1)
    return counts


def _fit_slope(scales, counts) -> tuple[float, float | None]:
    """Least-squares slope of log counts against log(1/scale), and its
    residual; ``(0.0, None)`` when every count is equal, a degenerate fit
    with no residual (JSON null)."""
    if len(set(counts)) == 1:
        return 0.0, None
    # The closed-form line: `np.polyfit` would load LAPACK's least squares.
    x = np.log(1.0 / np.asarray(scales, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    return slope, float(np.sum((dy - slope * dx) ** 2))


def box_counting(samples, scales) -> DimensionEstimate:
    """Grid-occupancy box-counting dimension: least-squares slope of
    log N(eps) against log(1/eps) over the given scales."""
    pts = _pts(samples)
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("box counting needs at least 3 scales")
    if not min(scales) > 0.0:
        raise ValueError("box-counting scales must be positive")
    if max(scales) / min(scales) < 10 ** 1.5:
        raise ValueError("box-counting scales should span at least 1.5 decades")
    counts = _box_counts(pts, scales)
    slope, residual = _fit_slope(scales, counts)
    notes = (["degenerate fit: all occupancy counts equal"]
             if residual is None else [])
    return DimensionEstimate(value=slope, scales=scales, counts=counts,
                             residual=residual, method="box-counting", notes=notes)


# --- periodic-set dimension check ----------------------------------------

def _detected_set_dimension(points: np.ndarray, n_seeds: int) -> float:
    """Dimension of a detected periodic set: -1 if empty, 0 if it looks
    finite at the sampling scale, else a rounded-down box-counting slope."""
    if points.shape[0] == 0:
        return -1
    if points.shape[0] <= max(50, n_seeds // 4):
        return 0
    diam = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    if diam == 0.0:
        return 0
    spacing = nn_spacing(points)
    scales = []
    s = diam / 2.0
    while s >= _resolution_gap(spacing) and len(scales) < 8:
        scales.append(s)
        s /= 2.0
    if len(scales) < 3:
        return 0
    slope, _ = _fit_slope(scales, _box_counts(points, scales))
    # Round to the nearest integer: coarse-scale boundary cells bias the
    # occupancy slope slightly below the true dimension (N ~ L/s + 1).
    return max(0, math.floor(slope + 0.5))


@dataclass
class HypothesisReport:
    """The periodic-set check; its fields are the keys of its JSON form."""

    ok: bool
    per_n: list[dict]
    low_confidence: bool


# Seed states `grid_seeds` may place.  A k-axis box gets at least 2 per axis,
# so 2**k, and `find_periodic` probes (seeds x k, k) rows for its Newton
# Jacobian.  At this cap a 16-digit odometer's hypothesis check (d = 1)
# takes 3.0 s and 635 MB peak RSS (2-vCPU x86 VM); the default 6 digits, 729
# seeds, take 0.24 s.  Every further axis doubles the grid at least, and 30
# digits would ask for 30 axes of 2**30 floats, 8.6 GB each.
MAX_GRID_SEEDS = 2 ** 16


def seed_grid_side(sys: System, n_seeds: int) -> int:
    """Seed states per axis of `grid_seeds`: ``round(n_seeds ** (1/k))`` and
    at least 2; a grid of more than `MAX_GRID_SEEDS` states is an error."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    k = sys.ambient_dim
    # Past 2**k * MAX_GRID_SEEDS the root rounds to over twice the cap's, so
    # the integer, which may not fit a float, is compared before the root.
    if n_seeds > 2 ** k * MAX_GRID_SEEDS:
        raise ValueError(f"n_seeds above 2**{k} * MAX_GRID_SEEDS asks for a seed grid "
                         f"of more than MAX_GRID_SEEDS = {MAX_GRID_SEEDS} states")
    per_axis = max(2, int(round(n_seeds ** (1.0 / k))))
    if per_axis ** k > MAX_GRID_SEEDS:
        raise ValueError(f"seed grid of {per_axis}**{k} states (at least 2 per "
                         f"axis) exceeds MAX_GRID_SEEDS = {MAX_GRID_SEEDS}")
    return per_axis


def grid_seeds(sys: System, n_seeds: int) -> np.ndarray:
    """Deterministic grid of seed states spanning the domain box interior,
    `seed_grid_side` states per axis."""
    per_axis = seed_grid_side(sys, n_seeds)
    axes = [np.linspace(lo + 0.017 * (hi - lo), hi - 0.013 * (hi - lo), per_axis)
            for lo, hi in sys.domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def hypothesis_check(sys: System, d: int, n_seeds: int = 400,
                     tol: float = 1e-9) -> HypothesisReport:
    """Check the periodic-set smallness condition for a 2d+1 delay count:
    the detected set of points with minimal period <= n must have dimension
    below n/2 for every n up to 2d.  One `find_periodic` pass up to 2d,
    filtered by minimal period, gives the detected set for every n; the
    seeds are the `grid_seeds` of the domain box."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    seeds = grid_seeds(sys, n_seeds)
    found = find_periodic(sys, n_max=2 * d, tol=tol, seeds=seeds) if d else []
    per_n = []
    ok = True
    for n in range(1, 2 * d + 1):
        points = np.array([x for x, q in found if q <= n],
                          dtype=float).reshape(-1, sys.ambient_dim)
        dim = _detected_set_dimension(points, seeds.shape[0])
        passed = dim < n / 2.0
        per_n.append({
            "n": n,
            "detected_count": len(points),
            "detected_dim": dim,
            "bound": n / 2.0,
            "ok": bool(passed),
        })
        ok = ok and passed
    return HypothesisReport(ok=ok, per_n=per_n,
                            low_confidence=seeds.shape[0] < 100)
