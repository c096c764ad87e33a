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
from .delay import delay_vectors, orbits, write_csv
from .neighbors import close_pairs, first_found, nn_distance
from .systems import System, detect_period
from .topology import refine_order, sample_resolution

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
BUMP_MAX_FREQ = 3  # highest term frequency of a `random_trig_bump`


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

    def write_csv(self, path) -> None:
        k = self.xs.shape[1]
        header = [f"x{j}" for j in range(k)] + [f"y{j}" for j in range(k)] + ["tag"]
        write_csv(path, header, np.hstack([self.xs, self.ys]), self.tags)

    @classmethod
    def read_csv(cls, path, delta: float) -> "PairSet":
        """The pairs of a file written by `write_csv`: x and y columns, then
        the tag, read as `delay.read_delay_csv` reads its rows."""
        rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str, ndmin=2)
        xy = np.split(rows[:, :-1].astype(float), 2, axis=1)
        return cls(*xy, delta, tuple(rows[:, -1].tolist()))


@dataclass
class CompatibilityReport:
    """Margin of an observable's delay map on a pair set."""

    margin: float
    argmin_index: int
    per_pair: np.ndarray  # (n,) max-coordinate gap per pair
    m: int

    @property
    def compatible(self) -> bool:
        return self.margin > MARGIN_TOL

    def to_dict(self) -> dict:
        return {
            "margin": self.margin,
            "argmin_pair": self.argmin_index,
            "m": self.m,
            "tolerance": MARGIN_TOL,
            "compatible": self.compatible,
        }


def sample_pairs(samples, delta: float, count: int, sys: System | None = None,
                 periodic_points=None, seed: int = 0,
                 min_index_gap: int = 0) -> PairSet:
    """Uniformly sample delta-separated pairs from a point cloud.

    Pairs are tagged C1/C2/C3 by matching members against the supplied
    periodic points (from `find_periodic`) within 1e-6.  Deterministic for
    a fixed seed.  If ``count`` pairs cannot be realized in 200 draws per
    pair, the result is shorter and flagged incomplete.  ``sys`` is not
    used.

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
    xs, ys = [], []
    blocked = np.zeros(n, dtype=bool)  # within min_index_gap of a used index
    for _ in range(200 * count):
        if len(xs) >= count:
            break
        i, j = rng.integers(0, n, size=2)
        if i == j or np.linalg.norm(pts[i] - pts[j]) < delta:
            continue
        if min_index_gap > 0:
            if abs(int(i) - int(j)) <= min_index_gap or blocked[i] or blocked[j]:
                continue
            for u in (i, j):
                blocked[max(0, u - min_index_gap):u + min_index_gap + 1] = True
        xs.append(pts[i])
        ys.append(pts[j])
    if not xs:
        raise ValueError(f"no pair at separation {delta} could be sampled")
    xs, ys = np.asarray(xs), np.asarray(ys)
    periodic = np.zeros(2 * len(xs), dtype=bool)
    if periodic_points is not None and len(periodic_points):
        near, _, _ = close_pairs(np.concatenate([xs, ys]), np.atleast_2d(
            np.asarray([p for p, _ in periodic_points], dtype=float)), 1e-6)
        periodic[near] = True
    px, py = np.split(periodic, 2)
    tags = np.where(px & py, "C2", np.where(px | py, "C3", "C1"))
    return PairSet(xs, ys, delta, tuple(tags.tolist()), complete=len(xs) >= count)


def compatibility_margin(h: Observable, sys: System, K: PairSet,
                         m: int) -> CompatibilityReport:
    """Min over pairs of the max over the m delay coordinates of
    |h(T^n x) - h(T^n y)|."""
    vx, vy = np.split(delay_vectors(h, sys, np.concatenate([K.xs, K.ys]), m), 2)
    per_pair = np.max(np.abs(vx - vy), axis=1)
    argmin = int(np.argmin(per_pair))
    return CompatibilityReport(margin=float(per_pair[argmin]),
                               argmin_index=argmin, per_pair=per_pair, m=m)


def openness_radius(report: CompatibilityReport) -> float:
    """Sup-norm radius within which every perturbation stays compatible.

    Any g with sup-distance below margin/3 of the measured observable has
    margin at least margin/3 on the same pairs, by the triangle inequality.
    """
    if report.margin <= 0.0:
        raise ValueError("openness radius requires a positive margin")
    return report.margin / 3.0


# --- perturbation construction -------------------------------------------

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
    _, order = refine_order(class_pts, scale, labels)
    if not order < (t + 1) / 2.0:
        raise PerturbationError(
            f"cover-order bound fails for period class n={n_label}: achieved "
            f"order {order} >= {(t + 1) / 2.0:g} (periodic-set dimension too large)"
        )


def perturb_to_compatible(h_base: Observable, eps: float, K: PairSet,
                          sys: System, d: int, seed: int = 0,
                          class_samples: dict[int, np.ndarray] | None = None
                          ) -> tuple[SumObservable, CompatibilityReport]:
    """Construct f within eps of ``h_base`` whose (2d+1)-delay map separates
    every pair of K; returns f and the margin report that verified it.

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
    m = 2 * d + 1
    period_tol = 1e-9  # members, periods and orbit points closer than this coincide
    members = np.concatenate([K.xs, K.ys], axis=0)
    into = first_found(members, period_tol)
    reps = members[into == np.arange(len(into))]
    assign = np.unique(into, return_inverse=True)[1]

    # Orbit segment length per anchor: one cycle for periodic members.
    periods = detect_period(sys, reps, 2 * d if d > 0 else 1, period_tol)
    t_of = np.where(periods > 0, np.minimum(periods - 1, 2 * d), 2 * d)

    # Cover-order smallness check per class.  The anchors themselves are
    # finitely many separated points and always admit a disjoint cover, so
    # the refinement heuristic only runs on classes for which the caller
    # supplied a sampled neighborhood of the underlying periodic set.
    if class_samples:
        for label, sample in sorted(class_samples.items()):
            pts = np.atleast_2d(np.asarray(sample, dtype=float))
            pts = np.concatenate([reps[periods == label], pts], axis=0)
            t = 2 * d if label == 0 else min(label - 1, 2 * d)
            _check_cover_bound(pts, t, label if label else 2 * d + 1, K.delta)

    # Orbit points of all anchors from one batched orbit, anchor-major, with
    # cross-anchor disjointness at the working tolerance.
    segments = orbits(sys, reps, int(t_of.max()) + 1)
    in_segment = np.arange(segments.shape[1])[None, :] <= t_of[:, None]
    orbit_pts = segments[in_segment]
    orbit_owner = [tuple(o) for o in np.argwhere(in_segment).tolist()]
    close = close_pairs(orbit_pts, r=period_tol)[:2]
    conflicts = [(orbit_owner[i], orbit_owner[j]) for i, j in zip(*close)
                 if orbit_owner[i][0] != orbit_owner[j][0]]
    if conflicts:
        raise PerturbationError(
            "orbit segments of distinct pair members are not disjoint at the "
            f"working tolerance: {conflicts[:5]}"
        )

    # Bump radius: keep supports disjoint and the base's variation small.
    min_sep = float(nn_distance(orbit_pts).min()) if orbit_pts.shape[0] > 1 else 1.0
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

    for _ in range(60):
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
        report = compatibility_margin(f, sys, K, m)
        dist = sup_distance(f, h_base, probe)
        if report.compatible and dist < eps and bump.max_deviation() < eps:
            return f, report
    raise PerturbationError(
        "general-position retries exhausted after 60 rounds")


# --- empirical density ----------------------------------------------------

def random_trig_bump(rng: np.random.Generator, ambient_dim: int,
                     bump_scale: float) -> TrigPolynomial:
    """Random trigonometric bump of four terms with frequencies up to
    `BUMP_MAX_FREQ` and sup-norm at most ``bump_scale``, centered at 1/2 so
    it acts as a signed perturbation under SumObservable with offset 1/2."""
    terms = []
    for _ in range(4):
        coef = float(rng.normal())
        freq = int(rng.integers(1, BUMP_MAX_FREQ + 1))
        axis = int(rng.integers(0, ambient_dim))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        terms.append((coef, freq, axis, phase))
    return TrigPolynomial(terms=tuple(terms), amplitude=min(bump_scale, 0.5))


def _trial_gaps(sys: System, K: PairSet, m: int, trials: int, bump_scale: float,
                seed: int, base: Observable) -> np.ndarray:
    """Per trial, the margin on K of the base plus one `random_trig_bump`,
    as `compatibility_margin` of ``SumObservable(base, bump, offset=0.5)``
    would give it, with the bumps drawn in turn from ``seed``.

    A bump term c cos(2 pi f x_a + phi) is c cos(phi) C[f, a] - c sin(phi)
    S[f, a], where C and S are cos and sin of 2 pi f x_a.  C, S and the
    base are evaluated once on the pair orbits' states, so a trial is one
    product of its term weights with that basis, then the clamp.  The
    angle addition rounds differently from `TrigPolynomial._values`: the
    gaps agree with it to about 1e-16, not bitwise.
    """
    states = orbits(sys, np.concatenate([K.xs, K.ys]), m).reshape(-1, sys.ambient_dim)
    angles = 2.0 * math.pi * np.arange(1, BUMP_MAX_FREQ + 1)[:, None, None] * states.T
    basis = np.stack([np.cos(angles), np.sin(angles)]).reshape(-1, states.shape[0])
    base_vals = base.evaluate(states)
    rng = np.random.default_rng(seed)
    gaps = np.empty(trials)
    for t in range(trials):
        bump = random_trig_bump(rng, sys.ambient_dim, bump_scale)
        weights = np.zeros((2, BUMP_MAX_FREQ, sys.ambient_dim))
        for coef, freq, axis, phase in bump.terms:
            weights[:, freq - 1, axis] += (coef * math.cos(phase),
                                           -coef * math.sin(phase))
        # A zero coefficient mass leaves zero weights: the constant bump 1/2.
        scale = bump.amplitude / (bump._mass() or 1.0)
        vals = np.clip(base_vals + scale * (weights.ravel() @ basis), 0.0, 1.0)
        vx, vy = vals.reshape(2, len(K), m)
        gaps[t] = np.abs(vx - vy).max(axis=1).min()
    return gaps


def genericity_monte_carlo(sys: System, K: PairSet, m: int, trials: int,
                           bump_scale: float, seed: int = 0,
                           base: Observable | None = None) -> float:
    """Fraction of random bump perturbations of the base observable whose
    delay map separates every pair of K by more than `MARGIN_TOL`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gaps = _trial_gaps(sys, K, m, trials, bump_scale, seed,
                       Constant(0.5) if base is None else base)
    return np.count_nonzero(gaps > MARGIN_TOL) / trials
