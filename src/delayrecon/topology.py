"""Cover orders, covering- and box-dimension estimators, and the
periodic-set dimension check behind the delay-count selection.

The covering-dimension estimate is an explicit heuristic: minimizing the
order over all refinements is uncomputable from samples, so each scale is
handled by two constructive attempts (resolution-aware component
splitting, and a Kuhn-triangulation star cover whose order equals the
ambient grid dimension) and the best achieved order is reported with a
``heuristic`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .systems import System, find_periodic

__all__ = [
    "Ball",
    "AxisBox",
    "Blob",
    "KuhnStar",
    "Cover",
    "DimensionEstimate",
    "UncoveredSampleError",
    "cover_order",
    "refine_order",
    "covering_dimension_estimate",
    "box_counting",
    "hypothesis_check",
    "mesh_cover",
    "nn_spacing",
    "linkage_components",
]


class UncoveredSampleError(ValueError):
    """A reference sample lies outside every cover element."""


def _pts(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


# --- cover elements -------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.linalg.norm(pts - c, axis=1) <= self.radius


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned box; half-open on request so mesh boxes partition."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    half_open: bool = False

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        upper = np.all(pts < hi, axis=1) if self.half_open else np.all(pts <= hi, axis=1)
        return np.all(pts >= lo, axis=1) & upper


@dataclass(frozen=True)
class MeshCell:
    """One half-open cell of a uniform grid; membership uses the same
    nudged floor as the grid construction, so boundary samples are
    assigned consistently."""

    cell: tuple[int, ...]
    origin: tuple[float, ...]
    scale: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        idx = np.floor((pts - np.asarray(self.origin)) / self.scale + 1e-9)
        return np.all(idx == np.asarray(self.cell), axis=1)


@dataclass(frozen=True)
class Blob:
    """Union of small balls around a point set; one cover element."""

    points: tuple[tuple[float, ...], ...]
    pad: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        anchor = np.asarray(self.points)
        tree = cKDTree(anchor)
        dist, _ = tree.query(pts, k=1)
        return dist <= self.pad


def kuhn_vertex_keys(pts: np.ndarray, scale: float, origin: np.ndarray) -> list[list[tuple]]:
    """Vertices of the Kuhn simplex containing each point.

    The unit-cube grid at ``scale`` is triangulated by sorting fractional
    coordinates; each point gets exactly dim+1 lattice vertices.  Ties are
    broken deterministically, so membership is a pure function of the
    coordinates.
    """
    u = (pts - origin) / scale
    base = np.floor(u).astype(int)
    frac = u - base
    keys: list[list[tuple]] = []
    for i in range(pts.shape[0]):
        order = np.argsort(-frac[i], kind="stable")
        v = base[i].copy()
        chain = [tuple(v)]
        for ax in order:
            v = v.copy()
            v[ax] += 1
            chain.append(tuple(v))
        keys.append(chain)
    return keys


@dataclass(frozen=True)
class KuhnStar:
    """Open star of one lattice vertex of the Kuhn triangulation."""

    vertex: tuple[int, ...]
    scale: float
    origin: tuple[float, ...]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        keys = kuhn_vertex_keys(pts, self.scale, np.asarray(self.origin))
        return np.array([self.vertex in chain for chain in keys])


@dataclass(frozen=True)
class Intersection:
    a: object
    b: object

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.a.contains(pts) & self.b.contains(pts)


@dataclass(frozen=True)
class Cover:
    """A finite family of elements with a characteristic scale."""

    elements: tuple
    scale: float

    def membership(self, samples) -> np.ndarray:
        """(n_samples, n_elements) boolean membership matrix."""
        pts = _pts(samples)
        if not self.elements:
            raise UncoveredSampleError("empty cover")
        cols = [el.contains(pts) for el in self.elements]
        return np.stack(cols, axis=1)

    def validate(self, samples) -> None:
        mask = self.membership(samples)
        if not np.all(mask.any(axis=1)):
            raise UncoveredSampleError("some samples are uncovered")
        if not np.all(mask.any(axis=0)):
            raise ValueError("some cover elements contain no sample")


def cover_order(cover: Cover, samples) -> int:
    """-1 + max over samples of the number of elements containing the sample."""
    mask = cover.membership(samples)
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise UncoveredSampleError("some samples are uncovered")
    return int(counts.max()) - 1


# --- sampling-resolution helpers -----------------------------------------

def nn_spacing(samples) -> float:
    """Median nearest-neighbor distance of the sample set."""
    pts = _pts(samples)
    if pts.shape[0] < 2:
        return 0.0
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=2)
    return float(np.median(dist[:, 1]))


def linkage_components(samples, threshold: float) -> np.ndarray:
    """Single-linkage component labels at the given distance threshold."""
    pts = _pts(samples)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=threshold, output_type="ndarray")
    graph = sparse.coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = sparse.csgraph.connected_components(graph, directed=False)
    return labels


def mesh_cover(samples, scale: float, anchor=None) -> Cover:
    """Half-open mesh boxes of side ``scale`` occupied by at least one sample.

    The grid is anchored at the sample bounding-box corner (or an explicit
    anchor) for reproducibility.
    """
    pts = _pts(samples)
    origin = pts.min(axis=0) if anchor is None else np.asarray(anchor, dtype=float)
    idx = np.floor((pts - origin) / scale + 1e-9).astype(int)
    cells = np.unique(idx, axis=0)
    elements = tuple(
        MeshCell(cell=tuple(int(c) for c in cell), origin=tuple(origin),
                 scale=scale)
        for cell in cells
    )
    return Cover(elements=elements, scale=scale)


# --- order-minimizing refinement -----------------------------------------

def _split_attempt(cover: Cover, pts: np.ndarray, threshold: float):
    """Component-splitting refinement: resolution components become blobs.

    Returns (Cover, order) or None when some component spans several parent
    elements (the split would not be a refinement at this scale).
    """
    labels = linkage_components(pts, threshold)
    parent_mask = cover.membership(pts)
    if not np.all(parent_mask.any(axis=1)):
        raise UncoveredSampleError("cover does not cover the samples")
    pad = threshold / 2.0
    elements = []
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        inside = parent_mask[idx].all(axis=0)
        if not inside.any():
            return None
        elements.append(Blob(points=tuple(map(tuple, pts[idx])), pad=pad))
    # Components are separated by more than the linkage threshold, so blob
    # membership at pad = threshold/2 is exclusive; verify all the same.
    tree = cKDTree(pts)
    cross = tree.query_pairs(r=pad, output_type="ndarray")
    order = 0
    if len(cross) and np.any(labels[cross[:, 0]] != labels[cross[:, 1]]):
        out = Cover(elements=tuple(elements), scale=cover.scale)
        return out, cover_order(out, pts)
    return Cover(elements=tuple(elements), scale=cover.scale), order


def _prune_members(members: dict[tuple, list[int]]) -> dict[tuple, list[int]]:
    """Drop star elements whose sample membership is contained in another
    element's (coverage is preserved, multiplicity can only drop)."""
    sets = {v: frozenset(idx) for v, idx in members.items()}
    keep: dict[tuple, list[int]] = {}
    seen: set[frozenset] = set()
    items = sorted(sets.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for v, s in items:
        if s in seen or any(s < other for other in seen):
            continue
        seen.add(s)
        keep[v] = members[v]
    return keep


def _kuhn_attempt(cover: Cover, pts: np.ndarray, star_scale: float):
    """Kuhn-star refinement: lattice-triangulation vertex stars meet at most
    dim+1 at a point; stars straddling parent elements are intersected with
    them."""
    origin = pts.min(axis=0)
    keys = kuhn_vertex_keys(pts, star_scale, origin)
    members: dict[tuple, list[int]] = {}
    for i, chain in enumerate(keys):
        for v in chain:
            members.setdefault(v, []).append(i)
    members = _prune_members(members)
    parent_mask = cover.membership(pts)
    if not np.all(parent_mask.any(axis=1)):
        raise UncoveredSampleError("cover does not cover the samples")
    counts = np.zeros(pts.shape[0], dtype=int)
    elements = []
    for v, idx in members.items():
        idx = np.asarray(idx)
        whole = parent_mask[idx].all(axis=0)
        star = KuhnStar(vertex=v, scale=star_scale, origin=tuple(origin))
        if whole.any():
            counts[idx] += 1
            elements.append(star)
        else:
            for j in range(parent_mask.shape[1]):
                sub = idx[parent_mask[idx, j]]
                if sub.size:
                    counts[sub] += 1
                    elements.append(Intersection(star, cover.elements[j]))
    order = int(counts.max()) - 1
    return Cover(elements=tuple(elements), scale=cover.scale), order


def refine_order(cover: Cover, samples, budget: int = 4,
                 resolution_factor: float = 4.0) -> tuple[Cover, int]:
    """Search for a low-order refinement of ``cover`` on the samples.

    Components of the sample set that are disconnected at several times the
    nearest-neighbor spacing are isolated into disjoint blobs (order 0)
    whenever each fits inside a parent element; otherwise connected regions
    are covered by Kuhn-triangulation stars, which meet at most dim+1 at a
    point.  Splitting below the sampling resolution is never attempted:
    gaps that small are indistinguishable from finite-sample artifacts.
    The best cover found within ``budget`` attempts is returned with its
    order.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pts = _pts(samples)
    spacing = nn_spacing(pts)
    g0 = max(resolution_factor * spacing, 1e-12)
    best: tuple[Cover, int] | None = None

    res = _split_attempt(cover, pts, g0)
    if res is not None:
        best = res
        if best[1] == 0:
            return best

    dim = pts.shape[1]
    for attempt in range(max(1, budget - 1)):
        star_scale = cover.scale / (4.0 * math.sqrt(dim) * (1 + attempt))
        if star_scale < g0 / 2.0 and attempt > 0:
            break
        res = _kuhn_attempt(cover, pts, star_scale)
        if best is None or res[1] < best[1]:
            best = res
        if best[1] <= dim:
            break
    return best


# --- dimension estimates --------------------------------------------------

@dataclass
class DimensionEstimate:
    value: float
    scales_used: list[float]
    counts: list[int]
    fit_residual: float
    method: str
    heuristic: bool = False
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "scales": list(self.scales_used),
            "counts": list(self.counts),
            "residual": self.fit_residual,
            "heuristic": self.heuristic,
            "notes": list(self.notes),
        }


def covering_dimension_estimate(samples, scales, budget: int = 4) -> DimensionEstimate:
    """Heuristic upper bound on the Lebesgue covering dimension of the
    sampled space: for each scale, build a mesh cover and minimize the
    order of a refinement; report the max over scales."""
    pts = _pts(samples)
    scales = [float(s) for s in scales]
    if len(scales) < 2 or any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("need at least two scales in descending order")
    spacing = nn_spacing(pts)
    orders = []
    used = []
    notes = []
    for s in scales:
        if s < 8.0 * spacing:
            notes.append(f"scale {s:g} below sampling resolution; dropped")
            continue
        parent = mesh_cover(pts, s)
        _, order = refine_order(parent, pts, budget=budget)
        orders.append(order)
        used.append(s)
    if not orders:
        raise ValueError("all scales below sampling resolution")
    value = max(orders)
    return DimensionEstimate(
        value=int(value),
        scales_used=used,
        counts=orders,
        fit_residual=0.0,
        method="covering-heuristic",
        heuristic=True,
        notes=notes,
    )


def _box_counts(pts: np.ndarray, scales, anchor: np.ndarray) -> list[int]:
    extent = pts.max(axis=0) - anchor
    counts = []
    for s in scales:
        # Nudge guards against samples sitting exactly on cell boundaries,
        # where float rounding would split one occupied cell into two;
        # points on the outer bounding-box face fold into the last cell.
        ncells = np.maximum(1, np.ceil(extent / s - 1e-9)).astype(np.int64)
        idx = np.floor((pts - anchor) / s + 1e-9).astype(np.int64)
        idx = np.clip(idx, 0, ncells - 1)
        counts.append(int(np.unique(idx, axis=0).shape[0]))
    return counts


def _fit_slope(scales, counts) -> tuple[float, float]:
    x = np.log(1.0 / np.asarray(scales, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return float(coef[0]), residual


def box_counting(samples, scales, anchor=None) -> DimensionEstimate:
    """Grid-occupancy box-counting dimension: least-squares slope of
    log N(eps) against log(1/eps) over the given scales."""
    pts = _pts(samples)
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("box counting needs at least 3 scales")
    if max(scales) / min(scales) < 10 ** 1.5:
        raise ValueError("box-counting scales should span at least 1.5 decades")
    if anchor is None:
        anchor = pts.min(axis=0)
    anchor = np.asarray(anchor, dtype=float)
    counts = _box_counts(pts, scales, anchor)
    if len(set(counts)) == 1:
        return DimensionEstimate(
            value=0.0, scales_used=scales, counts=counts,
            fit_residual=float("inf"), method="box-counting",
            notes=["degenerate fit: all occupancy counts equal"],
        )
    slope, residual = _fit_slope(scales, counts)
    return DimensionEstimate(
        value=slope, scales_used=scales, counts=counts,
        fit_residual=residual, method="box-counting",
    )


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
    while s >= max(4.0 * spacing, 1e-12) and len(scales) < 8:
        scales.append(s)
        s /= 2.0
    if len(scales) < 3:
        return 0
    counts = _box_counts(points, scales, points.min(axis=0))
    if len(set(counts)) == 1:
        return 0
    slope, _ = _fit_slope(scales, counts)
    # Round to the nearest integer: coarse-scale boundary cells bias the
    # occupancy slope slightly below the true dimension (N ~ L/s + 1).
    return max(0, math.floor(slope + 0.5))


@dataclass
class HypothesisReport:
    ok: bool
    per_n: list[dict]
    low_confidence: bool

    def to_dict(self) -> dict:
        return {"ok": self.ok, "per_n": self.per_n,
                "low_confidence": self.low_confidence}


def grid_seeds(sys: System, n_seeds: int) -> np.ndarray:
    """Deterministic grid of seed states spanning the domain box interior."""
    box = sys.domain
    k = sys.ambient_dim
    per_axis = max(2, int(round(n_seeds ** (1.0 / k))))
    axes = [np.linspace(lo + 0.017 * (hi - lo), hi - 0.013 * (hi - lo), per_axis)
            for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def hypothesis_check(sys: System, d: int, n_seeds: int = 400,
                     tol: float = 1e-9, seeds=None) -> HypothesisReport:
    """Check the periodic-set smallness condition for a 2d+1 delay count:
    the detected set of points with minimal period <= n must have dimension
    below n/2 for every n up to 2d.  One `find_periodic` pass up to 2d,
    filtered by minimal period, gives the detected set for every n."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if seeds is None:
        seeds = grid_seeds(sys, n_seeds)
    seeds = np.asarray(seeds, dtype=float)
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
