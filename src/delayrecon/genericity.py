"""Pair-separation margins and perturbations that restore injectivity.

A finite, delta-separated set of off-diagonal state pairs stands in for a
compact set bounded away from the diagonal.  The margin of an observable
on such a pair set is the min over pairs of the max per-delay-coordinate
gap; a positive margin certifies that the delay map separates every pair,
with quantitative slack that is stable under small sup-norm perturbations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Constant,
    Observable,
    PiecewiseAnchor,
    SumObservable,
    TrigPolynomial,
    sup_distance,
)
from .delay import observe, orbits, write_csv
from .systems import System, detect_period
from .topology import mesh_cover, refine_order, sample_resolution

__all__ = [
    "PairSet",
    "CompatibilityReport",
    "PerturbationError",
    "sample_pairs",
    "compatibility_margin",
    "openness_radius",
    "perturb_to_compatible",
    "genericity_monte_carlo",
]

MARGIN_TOL = 1e-6  # below this, separation is indistinguishable from noise


class PerturbationError(RuntimeError):
    """The perturbation construction could not be completed; the message
    names the offending pairs or the period class whose cover-order bound
    failed."""


@dataclass(frozen=True)
class PairSet:
    """Finite surrogate for a compact off-diagonal pair set.

    Every pair is separated by at least ``delta``; each pair carries a
    class tag: C1 (both aperiodic), C2 (both periodic), C3 (mixed).
    """

    xs: np.ndarray  # (n, k)
    ys: np.ndarray  # (n, k)
    delta: float
    tags: tuple[str, ...]
    complete: bool = True  # False when fewer pairs than requested exist

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.atleast_2d(np.asarray(self.ys, dtype=float))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.shape != ys.shape:
            raise ValueError("pair sides must have matching shapes")
        if len(self.tags) != xs.shape[0]:
            raise ValueError("one class tag per pair required")
        if any(t not in ("C1", "C2", "C3") for t in self.tags):
            raise ValueError("tags must be C1, C2 or C3")
        if self.delta <= 0.0:
            raise ValueError("separation delta must be positive")
        sep = np.linalg.norm(xs - ys, axis=1)
        if np.any(sep < self.delta - 1e-12):
            raise ValueError("some pair is closer than the declared delta")

    def __len__(self):
        return self.xs.shape[0]

    def subset(self, idx) -> "PairSet":
        idx = np.asarray(idx)
        return PairSet(self.xs[idx], self.ys[idx], self.delta,
                       tuple(self.tags[i] for i in idx), self.complete)

    def write_csv(self, path) -> None:
        k = self.xs.shape[1]
        header = [f"x{j}" for j in range(k)] + [f"y{j}" for j in range(k)] + ["tag"]
        write_csv(path, header, np.hstack([self.xs, self.ys]), self.tags)

    @classmethod
    def read_csv(cls, path, delta: float) -> "PairSet":
        rows = []
        tags = []
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            k = sum(1 for name in header if name.startswith("x"))
            for line in fh:
                parts = line.strip().split(",")
                rows.append([float(v) for v in parts[:2 * k]])
                tags.append(parts[2 * k])
        arr = np.asarray(rows)
        return cls(arr[:, :k], arr[:, k:], delta, tuple(tags))


@dataclass
class CompatibilityReport:
    """Margin of an observable's delay map on a pair set."""

    margin: float
    argmin_index: int
    per_pair: np.ndarray  # (n,) max-coordinate gap per pair
    m: int
    tolerance: float = MARGIN_TOL

    @property
    def compatible(self) -> bool:
        return self.margin > self.tolerance

    def to_dict(self) -> dict:
        return {
            "margin": self.margin,
            "argmin_pair": self.argmin_index,
            "m": self.m,
            "tolerance": self.tolerance,
            "compatible": self.compatible,
        }


def sample_pairs(samples, delta: float, count: int, sys: System | None = None,
                 periodic_points=None, seed: int = 0,
                 period_tol: float = 1e-6, max_tries: int = 200,
                 min_index_gap: int = 0) -> PairSet:
    """Uniformly sample delta-separated pairs from a point cloud.

    Pairs are tagged C1/C2/C3 by matching members against the supplied
    periodic points (from `find_periodic`) at ``period_tol``.  Deterministic
    for a fixed seed.  If ``count`` pairs cannot be realized the result is
    shorter and flagged incomplete.

    When the samples are consecutive trajectory states, members drawn at
    nearby indices share forward orbit points exactly; ``min_index_gap``
    rejects draws within that index distance of any already-used index so
    short orbit segments of distinct members stay disjoint.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two samples to form pairs")
    rng = np.random.default_rng(seed)
    ptree = None
    if periodic_points is not None and len(periodic_points):
        from scipy.spatial import cKDTree

        ptree = cKDTree(np.atleast_2d(np.asarray(
            [p for p, _ in periodic_points], dtype=float)))

    def is_periodic(x) -> bool:
        if ptree is None:
            return False
        dist, _ = ptree.query(x)
        return bool(dist <= period_tol)

    xs, ys, tags = [], [], []
    blocked = np.zeros(n, dtype=bool)  # within min_index_gap of a used index
    for _ in range(max_tries * count):
        if len(xs) >= count:
            break
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        if np.linalg.norm(pts[i] - pts[j]) < delta:
            continue
        if min_index_gap > 0:
            if abs(int(i) - int(j)) <= min_index_gap:
                continue
            if blocked[i] or blocked[j]:
                continue
            for u in (i, j):
                blocked[max(0, u - min_index_gap):u + min_index_gap + 1] = True
        xs.append(pts[i])
        ys.append(pts[j])
        px, py = is_periodic(pts[i]), is_periodic(pts[j])
        tags.append("C2" if px and py else ("C1" if not px and not py else "C3"))
    if not xs:
        raise ValueError(f"no pair at separation {delta} could be sampled")
    return PairSet(np.asarray(xs), np.asarray(ys), delta, tuple(tags),
                   complete=len(xs) >= count)


def _pair_gaps(h: Observable, pair_orbits: np.ndarray) -> np.ndarray:
    """Max over the delay coordinates of |h(T^t x) - h(T^t y)|, per pair,
    from the `orbits` of the stacked members ``xs; ys`` (rows i and n + i
    are the two sides of pair i)."""
    vx, vy = np.split(observe(h, pair_orbits), 2)
    return np.max(np.abs(vx - vy), axis=1)


def compatibility_margin(h: Observable, sys: System, K: PairSet, m: int,
                         tolerance: float = MARGIN_TOL) -> CompatibilityReport:
    """Min over pairs of the max over the m delay coordinates of
    |h(T^n x) - h(T^n y)|."""
    per_pair = _pair_gaps(h, orbits(sys, np.concatenate([K.xs, K.ys]), m))
    argmin = int(np.argmin(per_pair))
    return CompatibilityReport(margin=float(per_pair[argmin]),
                               argmin_index=argmin, per_pair=per_pair, m=m,
                               tolerance=tolerance)


def openness_radius(report: CompatibilityReport) -> float:
    """Sup-norm radius within which every perturbation stays compatible.

    Any g with sup-distance below margin/3 of the measured observable has
    margin at least margin/3 on the same pairs, by the triangle inequality.
    """
    if report.margin <= 0.0:
        raise ValueError("openness radius requires a positive margin")
    return report.margin / 3.0


# --- perturbation construction -------------------------------------------

def _dedup_members(pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy dedup: returns (unique points, index of each input point).

    In input order, each point joins the earliest representative within
    ``tol`` or becomes a new one.  A KD-tree supplies the candidates, at a
    slightly larger radius so that the exact norm test decides ties.
    """
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    is_rep = np.zeros(n, dtype=bool)
    assign = np.empty(n, dtype=int)
    n_reps = 0
    near = cKDTree(pts).query_ball_point(pts, tol * (1.0 + 1e-9),
                                         return_sorted=True)
    for i, cands in enumerate(near):
        for c in cands:
            if c < i and is_rep[c] and np.linalg.norm(pts[i] - pts[c]) <= tol:
                assign[i] = assign[c]
                break
        else:
            assign[i] = n_reps
            n_reps += 1
            is_rep[i] = True
    return pts[is_rep], assign


def _check_cover_bound(class_pts: np.ndarray, t: int, n_label: int,
                       delta: float) -> None:
    """Desk-scale analogue of the cover-order requirement ord < (t+1)/2 for
    the period class: the class sample must admit a refinement of small
    enough order at the working scale, the larger of ``delta`` and eight
    sample spacings (eight ``delta`` when the spacing is 0)."""
    if class_pts.shape[0] < 2:
        return
    spacing, labels = sample_resolution(class_pts)
    scale = max(delta, 8.0 * (spacing or delta))
    _, order = refine_order(mesh_cover(class_pts, scale), scale, class_pts, spacing,
                            labels)
    if not order < (t + 1) / 2.0:
        raise PerturbationError(
            f"cover-order bound fails for period class n={n_label}: achieved "
            f"order {order} >= {(t + 1) / 2.0:g} (periodic-set dimension too large)"
        )


def perturb_to_compatible(h_base: Observable, eps: float, K: PairSet,
                          sys: System, d: int, seed: int = 0,
                          tol: float = MARGIN_TOL,
                          period_tol: float = 1e-9,
                          class_samples: dict[int, np.ndarray] | None = None,
                          max_rounds: int = 60) -> SumObservable:
    """Construct f within eps of ``h_base`` whose (2d+1)-delay map separates
    every pair of K.

    Each distinct pair member becomes an anchor; its forward orbit segment
    (full for aperiodic members, one cycle for periodic ones) carries target
    delay values drawn within eps/2 of the base observable's values, redrawn
    until every pair's target vectors differ by a workable gap, with the
    periodic side compared through its periodic extension.  The targets are
    realized exactly at the orbit points by a compactly supported
    partition-of-unity bump added to the base.  The result is re-verified
    before being returned: its margin, its sup-distance from ``h_base`` at
    the orbit points and pair members, and the certified bound
    ``bump.max_deviation()`` on that sup-distance over the whole space.

    ``class_samples`` optionally maps a period (0 for the aperiodic class)
    to a sampled neighborhood of that class, on which the cover-order
    smallness requirement is checked; without it the anchors are finitely
    many separated points, which always admit a disjoint cover.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    from scipy.spatial import cKDTree

    m = 2 * d + 1
    members = np.concatenate([K.xs, K.ys], axis=0)
    reps, assign = _dedup_members(members, period_tol)

    # Orbit segment length per anchor: one cycle for periodic members.
    periods = detect_period(sys, reps, 2 * d if d > 0 else 1, period_tol)
    t_of = np.array([min(p - 1, 2 * d) if p is not None else 2 * d
                     for p in periods])

    # Cover-order smallness check per class.  The anchors themselves are
    # finitely many separated points and always admit a disjoint cover, so
    # the refinement heuristic only runs on classes for which the caller
    # supplied a sampled neighborhood of the underlying periodic set.
    if class_samples:
        by_class: dict[int, list[np.ndarray]] = {}
        for q, p in zip(reps, periods):
            by_class.setdefault(0 if p is None else p, []).append(q)
        for label, sample in sorted(class_samples.items()):
            pts = np.atleast_2d(np.asarray(sample, dtype=float))
            if label in by_class:
                pts = np.concatenate([np.asarray(by_class[label]), pts], axis=0)
            t = 2 * d if label == 0 else min(label - 1, 2 * d)
            _check_cover_bound(pts, t, label if label else 2 * d + 1, K.delta)

    # Orbit points of all anchors from one batched orbit, anchor-major, with
    # cross-anchor disjointness at the working tolerance.
    segments = orbits(sys, reps, int(t_of.max()) + 1)
    in_segment = np.arange(segments.shape[1])[None, :] <= t_of[:, None]
    orbit_pts = segments[in_segment]
    orbit_owner = [tuple(o) for o in np.argwhere(in_segment).tolist()]
    tree = cKDTree(orbit_pts)
    close = tree.query_pairs(r=max(period_tol, 1e-12), output_type="ndarray")
    conflicts = [(orbit_owner[i], orbit_owner[j]) for i, j in close
                 if orbit_owner[i][0] != orbit_owner[j][0]]
    if conflicts:
        raise PerturbationError(
            "orbit segments of distinct pair members are not disjoint at the "
            f"working tolerance: {conflicts[:5]}"
        )

    # Bump radius: keep supports disjoint and the base's variation small.
    dists, _ = tree.query(orbit_pts, k=2)
    min_sep = float(dists[:, 1].min()) if orbit_pts.shape[0] > 1 else 1.0
    radius = min_sep / 3.0
    L = h_base.lipschitz()
    if L > 0.0:
        radius = min(radius, 0.05 * eps / L)
    if radius <= 0.0:
        raise PerturbationError("degenerate bump radius; orbit points coincide")

    base_along = h_base.evaluate(orbit_pts)
    # Row a holds the positions in base_along of anchor a's delay values,
    # extended periodically to length m as in `periodic_extension`.
    first = np.cumsum(t_of + 1) - (t_of + 1)
    ext = first[:, None] + np.arange(m)[None, :] % (t_of[:, None] + 1)

    gp_margin = min(1e-3, 0.1 * eps)
    amp = 0.45 * eps
    rng = np.random.default_rng(seed)
    x_anchor, y_anchor = np.split(assign, 2)
    if np.any(x_anchor == y_anchor):
        raise PerturbationError(
            "a pair's members coincide at the working tolerance")
    probe = np.concatenate([orbit_pts, members])

    for _ in range(max_rounds):
        targets = np.clip(base_along + rng.uniform(-amp, amp, size=base_along.size),
                          0.0, 1.0)
        gaps = np.abs(targets[ext[x_anchor]] - targets[ext[y_anchor]]).max(axis=1)
        if not np.all(gaps >= gp_margin):
            continue
        bump = PiecewiseAnchor(points=orbit_pts, values=0.5 + targets - base_along,
                               radius=radius, base=0.5)
        f = SumObservable(base=h_base, bump=bump, offset=0.5)

        # Mandatory self-verification on the actual observable: the margin,
        # the sampled sup-distance, and the certified bound on it.
        report = compatibility_margin(f, sys, K, m, tolerance=tol)
        dist = sup_distance(f, h_base, probe)
        if report.margin > tol and dist < eps and bump.max_deviation() < eps:
            return f
    raise PerturbationError(
        f"general-position retries exhausted after {max_rounds} rounds")


# --- empirical density ----------------------------------------------------

def random_trig_bump(rng: np.random.Generator, ambient_dim: int,
                     bump_scale: float, n_terms: int = 4,
                     max_freq: int = 3) -> TrigPolynomial:
    """Random trigonometric bump with sup-norm at most ``bump_scale``,
    centered at 1/2 so it acts as a signed perturbation under SumObservable
    with offset 1/2."""
    terms = []
    for _ in range(n_terms):
        coef = float(rng.normal())
        freq = int(rng.integers(1, max_freq + 1))
        axis = int(rng.integers(0, ambient_dim))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        terms.append((coef, freq, axis, phase))
    return TrigPolynomial(terms=tuple(terms), amplitude=min(bump_scale, 0.5))


def genericity_monte_carlo(sys: System, K: PairSet, m: int, trials: int,
                           bump_scale: float, seed: int = 0,
                           base: Observable | None = None,
                           tol: float = MARGIN_TOL) -> float:
    """Fraction of random bump perturbations of the base observable whose
    delay map separates every pair of K at the working tolerance."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if base is None:
        base = Constant(0.5)
    # The orbits do not depend on the observable: compute them once.
    pair_orbits = orbits(sys, np.concatenate([K.xs, K.ys]), m)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        bump = random_trig_bump(rng, sys.ambient_dim, bump_scale)
        g = SumObservable(base=base, bump=bump, offset=0.5)
        if _pair_gaps(g, pair_orbits).min() > tol:
            hits += 1
    return hits / trials
