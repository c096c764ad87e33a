"""Pair-separation margins and perturbations that restore injectivity.

A finite, delta-separated set of off-diagonal state pairs stands in for a
compact set bounded away from the diagonal.  The margin of an observable
on such a pair set is the min over pairs of the max per-delay-coordinate
gap; a positive margin certifies that the delay map separates every pair,
with quantitative slack that is stable under small sup-norm perturbations.

The theorem's periodic-set hypothesis is checked once, by
`topology.hypothesis_check`, not here.
"""

from __future__ import annotations

import math
import random
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
from .delay import delay_vectors, orbits, read_delay_csv, write_csv
from .neighbors import close_pairs, first_found, nn_distance
from .systems import System, detect_period

__all__ = [
    "PairSet",
    "CompatibilityReport",
    "PerturbationError",
    "IndexGapError",
    "sample_pairs",
    "compatibility_margin",
    "perturb_to_compatible",
    "genericity_monte_carlo",
]

MARGIN_TOL = 1e-6  # below this, separation is indistinguishable from noise
BUMP_MAX_FREQ = 3  # highest term frequency of a `random_trig_bump`


class PerturbationError(RuntimeError):
    """The perturbation construction could not be completed; the message
    says which step failed."""


class IndexGapError(ValueError):
    """No pair could be sampled because no draw passed the index tests."""


@dataclass(frozen=True)
class PairSet:
    """Finite surrogate for a compact off-diagonal pair set.

    Every pair is separated by at least ``delta``.  `perturb_to_compatible`
    classifies each member itself with `detect_period`.
    """

    xs: np.ndarray  # (n, k)
    ys: np.ndarray  # (n, k)
    delta: float
    complete: bool = True  # False when fewer pairs than requested exist

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.atleast_2d(np.asarray(self.ys, dtype=float))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.shape != ys.shape:
            raise ValueError("pair sides must have matching shapes")
        if self.delta <= 0.0:
            raise ValueError("separation delta must be positive")
        sep = np.linalg.norm(xs - ys, axis=1)
        if np.any(sep < self.delta - 1e-12):
            raise ValueError("some pair is closer than the declared delta")

    def __len__(self):
        return self.xs.shape[0]

    def write_csv(self, path) -> None:
        k = self.xs.shape[1]
        header = [f"x{j}" for j in range(k)] + [f"y{j}" for j in range(k)]
        write_csv(path, header, np.hstack([self.xs, self.ys]))

    @classmethod
    def read_csv(cls, path, delta: float) -> "PairSet":
        """The pairs of a file written by `write_csv`: the x columns, then
        the y columns."""
        return cls(*np.split(read_delay_csv(path), 2, axis=1), delta)


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
                 seed: int = 0, min_index_gap: int = 0) -> PairSet:
    """Uniformly sample delta-separated pairs from a point cloud.

    Each draw takes two indices ``int(u * n)`` from successive
    ``random.Random(seed).random()`` values u, the one stream Python keeps
    the same across versions, so a seed gives the same pairs everywhere.
    If ``count`` pairs cannot be realized in 200 draws per pair, the result
    is shorter and flagged incomplete; with no pair at all it raises a
    `ValueError`, an `IndexGapError` when no draw passed the index tests.
    ``sys`` is not used.

    When the samples are consecutive trajectory states, members drawn at
    nearby indices share forward orbit points exactly; ``min_index_gap``
    rejects draws within that index distance of any already-used index so
    short orbit segments of distinct members stay disjoint.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two samples to form pairs")
    draw = random.Random(seed).random
    gap = min_index_gap
    xs, ys, spread = [], [], False
    blocked = bytearray(n)  # nonzero within gap of a used index
    for _ in range(200 * count):
        if len(xs) >= count:
            break
        i, j = int(draw() * n), int(draw() * n)
        # The index tests first: near saturation almost every draw fails one.
        if abs(i - j) <= gap or blocked[i] or blocked[j]:
            continue
        spread = True
        if math.dist(pts[i], pts[j]) < delta:
            continue
        if gap > 0:
            for u in (i, j):
                lo, hi = max(0, u - gap), min(n, u + gap + 1)
                blocked[lo:hi] = b"\x01" * (hi - lo)
        xs.append(i)
        ys.append(j)
    if not xs:
        cause = f"at separation {delta}" if spread else f"of indices more than {gap} apart"
        raise (ValueError if spread else IndexGapError)(f"no pair {cause} could be sampled")
    return PairSet(pts[xs], pts[ys], delta, complete=len(xs) >= count)


def compatibility_margin(h: Observable, sys: System, K: PairSet,
                         m: int) -> CompatibilityReport:
    """Min over pairs of the max over the m delay coordinates of
    |h(T^n x) - h(T^n y)|."""
    vx, vy = np.split(delay_vectors(h, sys, np.concatenate([K.xs, K.ys]), m), 2)
    per_pair = np.max(np.abs(vx - vy), axis=1)
    argmin = int(np.argmin(per_pair))
    return CompatibilityReport(margin=float(per_pair[argmin]),
                               argmin_index=argmin, per_pair=per_pair, m=m)


# --- perturbation construction -------------------------------------------

def perturb_to_compatible(h_base: Observable, eps: float, K: PairSet,
                          sys: System, d: int, seed: int = 0
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
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    m = 2 * d + 1
    tol = 1e-9  # members, periods and orbit points closer than this coincide
    members = np.concatenate([K.xs, K.ys], axis=0)
    into = first_found(members, tol)
    reps = members[into == np.arange(len(into))]
    assign = np.unique(into, return_inverse=True)[1]

    # Orbit segment length per anchor: one cycle for periodic members.
    periods = detect_period(sys, reps, 2 * d if d > 0 else 1, tol)
    t_of = np.where(periods > 0, np.minimum(periods - 1, 2 * d), 2 * d)

    # Orbit points of all anchors from one batched orbit, anchor-major, with
    # cross-anchor disjointness at the working tolerance.
    segments = orbits(sys, reps, int(t_of.max()) + 1)
    in_segment = np.arange(segments.shape[1])[None, :] <= t_of[:, None]
    orbit_pts = segments[in_segment]
    orbit_owner = [tuple(o) for o in np.argwhere(in_segment).tolist()]
    close = close_pairs(orbit_pts, r=tol)[:2]
    conflicts = [(orbit_owner[i], orbit_owner[j]) for i, j in zip(*close)
                 if orbit_owner[i][0] != orbit_owner[j][0]]
    if conflicts:
        raise PerturbationError(
            "orbit segments of distinct pair members are not disjoint at the "
            f"working tolerance: {conflicts[:5]}"
        )

    # Bump radius: keep supports disjoint and the base's variation small.
    min_sep = float(nn_distance(orbit_pts, 1).min()) if orbit_pts.shape[0] > 1 else 1.0
    radius = min_sep / 3.0
    L = h_base.lipschitz()
    if L > 0.0:
        radius = min(radius, 0.05 * eps / L)
    if radius <= 0.0:
        raise PerturbationError("degenerate bump radius; orbit points coincide")

    base_along = h_base.evaluate(orbit_pts)
    # Row a holds the positions in base_along of anchor a's delay values,
    # extended periodically to length m: entry k is orbit point k mod (t + 1).
    first = np.cumsum(t_of + 1) - (t_of + 1)
    ext = first[:, None] + np.arange(m)[None, :] % (t_of[:, None] + 1)

    gp_margin = min(1e-3, 0.1 * eps)
    amp = 0.45 * eps
    rng = random.Random(seed)
    x_anchor, y_anchor = np.split(assign, 2)
    if np.any(x_anchor == y_anchor):
        raise PerturbationError(
            "a pair's members coincide at the working tolerance")
    probe = np.concatenate([orbit_pts, members])

    for _ in range(60):
        offsets = [rng.uniform(-amp, amp) for _ in range(base_along.size)]
        targets = np.clip(base_along + offsets, 0.0, 1.0)
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
    # Made first, so `numpy.random` is imported before the basis arrays
    # exist: made after them, the bench's genericity run peaks 0.14 MB higher.
    rng = np.random.default_rng(seed)
    states = orbits(sys, np.concatenate([K.xs, K.ys]), m).reshape(-1, sys.ambient_dim)
    angles = 2.0 * math.pi * np.arange(1, BUMP_MAX_FREQ + 1)[:, None, None] * states.T
    basis = np.stack([np.cos(angles), np.sin(angles)]).reshape(-1, states.shape[0])
    base_vals = base.evaluate(states)
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
