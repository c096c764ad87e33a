"""Observables on sampled phase spaces.

An observable is a continuous map from the ambient state space into [0, 1].
All built-in variants are Lipschitz with a constant computable from their
parameters, and every variant round-trips through a JSON dict with a
``variant`` discriminator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neighbors import close_pairs
from .systems import Registered

__all__ = [
    "Observable",
    "Constant",
    "Coordinate",
    "TrigPolynomial",
    "PiecewiseAnchor",
    "SumObservable",
    "sup_distance",
    "observable_from_dict",
]


def _as_points(x) -> np.ndarray:
    """Coerce a single state or an (n, k) batch to a 2-D float array."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"expected state vector(s), got array of ndim {pts.ndim}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("state coordinates must be finite")
    return pts


def _check_dim(pts: np.ndarray, k: int) -> None:
    """Raise unless the states have at least the ``k`` axes an observable reads."""
    if pts.shape[1] < k:
        raise ValueError(f"observable needs ambient dimension >= {k}, got {pts.shape[1]}")


class Observable(Registered, tag_key="variant"):
    """Base class; subclasses implement `_values` on (n, k) batches."""

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x) -> np.ndarray:
        """Evaluate on one state (1-D input) or a batch (2-D input)."""
        return self._values(_as_points(x))

    def __call__(self, x) -> float:
        pts = _as_points(x)
        if pts.shape[0] != 1:
            raise ValueError("use evaluate() for batches")
        return float(self._values(pts)[0])

    def lipschitz(self) -> float:
        """Upper bound on the Lipschitz constant w.r.t. the Euclidean metric."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Observable, name="constant"):
    """h(x) = value."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("constant observable value must lie in [0, 1]")

    def _values(self, pts):
        return np.full(pts.shape[0], self.value)

    def lipschitz(self):
        return 0.0


@dataclass(frozen=True)
class Coordinate(Observable, name="coordinate"):
    """Affine rescale of one coordinate from [lo, hi] onto [0, 1]."""

    index: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.index < 0 or self.hi <= self.lo:
            raise ValueError("coordinate observable needs index >= 0 and hi > lo")

    def _values(self, pts):
        _check_dim(pts, self.index + 1)
        vals = (pts[:, self.index] - self.lo) / (self.hi - self.lo)
        return np.clip(vals, 0.0, 1.0)

    def lipschitz(self):
        return 1.0 / (self.hi - self.lo)


@dataclass(frozen=True)
class TrigPolynomial(Observable, name="trig"):
    """Trigonometric polynomial rescaled into [1/2 - A, 1/2 + A] with A <= 1/2.

    Each term is (coefficient, frequency, axis, phase) contributing
    coefficient * cos(2*pi*frequency*x[axis] + phase).  The raw sum is
    normalized by the total absolute coefficient mass and scaled by
    ``amplitude`` so the range stays inside [0, 1].
    """

    terms: tuple[tuple[float, float, int, float], ...]
    amplitude: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= 0.5:
            raise ValueError("amplitude must lie in [0, 0.5]")
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        if any(int(t[2]) < 0 for t in self.terms):
            raise ValueError("trig term axes must be >= 0")

    def _mass(self) -> float:
        return sum(abs(t[0]) for t in self.terms)

    def _values(self, pts):
        _check_dim(pts, max((int(t[2]) + 1 for t in self.terms), default=0))
        mass = self._mass()
        if mass == 0.0 or self.amplitude == 0.0:
            return np.full(pts.shape[0], 0.5)
        raw = np.zeros(pts.shape[0])
        with np.errstate(all="ignore"):  # an overflowing term is caught below
            for coef, freq, axis, phase in self.terms:
                raw += coef * np.cos(2.0 * math.pi * freq * pts[:, int(axis)] + phase)
            vals = 0.5 + self.amplitude * raw / mass
        if not np.all(np.isfinite(vals)):
            raise ValueError("trig observable overflows on these states")
        return vals

    def lipschitz(self):
        mass = self._mass()
        if mass == 0.0 or self.amplitude == 0.0:
            return 0.0
        deriv = sum(abs(t[0]) * 2.0 * math.pi * abs(t[1]) for t in self.terms)
        return self.amplitude * deriv / mass


@dataclass(frozen=True)
class PiecewiseAnchor(Observable, name="anchors"):
    """Partition-of-unity blend of anchor values over a constant background.

    Each anchor (q_i, v_i) contributes a tent bump w_i(x) = max(0, 1 - |x-q_i|/r).
    Where the total bump weight W exceeds 1 the value is the renormalized
    weighted mean of anchor values; as W falls to 0 the value blends
    continuously back to ``base``:

        h(x) = (sum_i w_i v_i + max(0, 1 - W) * base) / (W + max(0, 1 - W))

    The denominator is always >= 1, so h is a convex combination of anchor
    values and the base, hence stays in [0, 1].

    Evaluation uses the tents' compact support: `neighbors.close_pairs`
    finds the (state, anchor) pairs within ``radius``, the only distances
    computed.  Time is near-linear in n + a + pairs and memory O(n + a +
    pairs) for n states, a anchors and the number of pairs inside the
    supports; nothing is kept between calls.
    """

    points: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    radius: float
    base: float = 0.5

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.points) != len(self.values):
            raise ValueError("anchor points and values must have equal length")
        if self.radius <= 0.0:
            raise ValueError("blending radius must be positive")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("anchor values must lie in [0, 1]")
        if not 0.0 <= self.base <= 1.0:
            raise ValueError("base value must lie in [0, 1]")

    def _values(self, pts):
        if not self.points:
            return np.full(pts.shape[0], self.base)
        q = np.asarray(self.points)  # (a, k)
        if pts.shape[1] != q.shape[1]:
            raise ValueError(
                f"anchor dimension {q.shape[1]} != state dimension {pts.shape[1]}"
            )
        i, j, dist = close_pairs(pts, q, self.radius)
        w = 1.0 - dist / self.radius
        n = pts.shape[0]
        total = np.bincount(i, weights=w, minlength=n)
        bg = np.maximum(0.0, 1.0 - total)
        num = np.bincount(i, weights=w * np.asarray(self.values)[j],
                          minlength=n) + bg * self.base
        den = total + bg
        return num / den

    def max_deviation(self) -> float:
        """max_i |v_i - base|, a bound on |h(x) - base| everywhere.

        h - base = sum_i w_i (v_i - base) / max(W, 1) and W <= max(W, 1).
        Added to another observable through `SumObservable` with
        ``offset == base``, it therefore moves that observable by at most this
        much at every point; clipping to [0, 1] only shortens the move.
        """
        if not self.values:
            return 0.0
        return float(np.max(np.abs(np.asarray(self.values) - self.base)))

    def lipschitz(self):
        """2 k D / r, or D / r when no tents overlap (k = 1).

        D = max_i |v_i - base|, and k is 1 plus the largest number of other
        anchors within 2r of one anchor.  Two tents overlap only if their
        centres are closer than 2r, so at most k tents cover any point.

        With u_i = v_i - base and S = sum_i w_i u_i, h - base = S / max(W, 1).
        Each w_i is (1/r)-Lipschitz and at most k of them are nonzero near a
        point, so |grad S| <= k D / r and |grad W| <= k / r.
          * Where W <= 1, h - base = S, whose gradient is at most k D / r.
            With k = 1 at most one tent is nonzero, W <= 1 everywhere, and
            the bound D / r holds on the whole space.
          * Where W >= 1, grad(S / W) = grad S / W - (S / W) grad W / W and
            |S / W| <= D, so the gradient is at most 2 k D / r.
        h is continuous and piecewise smooth, so the larger bound of the two
        regimes is a Lipschitz constant.
        """
        if not self.points:
            return 0.0
        i, j, _ = close_pairs(np.asarray(self.points), r=2.0 * self.radius)
        k = 1 + int(np.max(np.bincount(np.concatenate([i, j]),
                                       minlength=len(self.points))))
        scale = 1.0 if k == 1 else 2.0 * k
        return scale * self.max_deviation() / self.radius


@dataclass(frozen=True)
class SumObservable(Observable, name="sum"):
    """Clamped sum: h(x) = clip(base(x) + bump(x) - offset, 0, 1).

    With offset 0 this is a plain clamped additive bump; with offset 1/2 a
    bump centered at 1/2 acts as a signed perturbation of the base.
    """

    base: Observable
    bump: Observable
    offset: float = 0.0

    def _values(self, pts):
        return np.clip(
            self.base._values(pts) + self.bump._values(pts) - self.offset, 0.0, 1.0
        )

    def lipschitz(self):
        return self.base.lipschitz() + self.bump.lipschitz()


def sup_distance(a: Observable, b: Observable, samples) -> float:
    """Max of |a - b| over a nonempty finite sample of the space.

    This is a lower bound on the true sup-norm distance; for a perturbation
    built as a `SumObservable`, `PiecewiseAnchor.max_deviation` is a
    certified upper bound.
    """
    pts = _as_points(samples)
    if pts.shape[0] == 0:
        raise ValueError("sup_distance needs a nonempty sample set")
    return float(np.max(np.abs(a._values(pts) - b._values(pts))))


# --- JSON round-tripping -------------------------------------------------

observable_from_dict = Observable.from_dict
