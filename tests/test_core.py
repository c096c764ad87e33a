"""Observables: ranges, Lipschitz bounds, exact anchor interpolation, and
JSON round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayrecon import (
    Constant,
    Coordinate,
    PiecewiseAnchor,
    SumObservable,
    TrigPolynomial,
    observable_from_dict,
    sup_distance,
)

RNG = np.random.default_rng(42)


def random_states(n, k, lo=-2.0, hi=2.0):
    return RNG.uniform(lo, hi, size=(n, k))


class TestConstant:
    def test_value_everywhere(self):
        h = Constant(0.25)
        pts = random_states(50, 3)
        assert np.all(h.evaluate(pts) == 0.25)
        assert h(pts[0]) == 0.25

    def test_lipschitz_zero(self):
        assert Constant(0.7).lipschitz() == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Constant(1.2)
        with pytest.raises(ValueError):
            Constant(-0.1)


class TestCoordinate:
    def test_affine_rescale(self):
        h = Coordinate(1, lo=-2.0, hi=2.0)
        pts = np.array([[0.0, -2.0], [0.0, 0.0], [0.0, 2.0]])
        assert np.allclose(h.evaluate(pts), [0.0, 0.5, 1.0])

    def test_clipped_outside_window(self):
        h = Coordinate(0, lo=0.0, hi=1.0)
        assert h(np.array([5.0])) == 1.0
        assert h(np.array([-5.0])) == 0.0

    def test_lipschitz(self):
        assert Coordinate(0, lo=-1.5, hi=1.5).lipschitz() == pytest.approx(1.0 / 3.0)

    def test_needs_wide_enough_state(self):
        with pytest.raises(ValueError):
            Coordinate(2).evaluate(np.zeros((3, 2)))

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Coordinate(0, lo=1.0, hi=1.0)


class TestTrigPolynomial:
    def test_single_cosine(self):
        # amplitude 0.5, one unit-frequency term: h(x) = (1 + cos 2 pi x)/2
        h = TrigPolynomial(terms=((1.0, 1, 0, 0.0),), amplitude=0.5)
        assert h(np.array([0.0])) == pytest.approx(1.0)
        assert h(np.array([0.5])) == pytest.approx(0.0)
        assert h(np.array([0.25])) == pytest.approx(0.5)

    def test_range_stays_in_unit_interval(self):
        h = TrigPolynomial(
            terms=((2.0, 1, 0, 0.3), (-1.5, 3, 1, 1.1), (0.7, 2, 0, 2.0)),
            amplitude=0.5,
        )
        vals = h.evaluate(random_states(500, 2))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_empty_terms_constant_half(self):
        h = TrigPolynomial(terms=(), amplitude=0.3)
        assert h(np.array([0.7])) == 0.5
        assert h.lipschitz() == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("terms,x", [
        (((1.0, 1e308, 0, 0.0),), 1.0),  # 2*pi*f overflows, and inf * 0 is NaN at 0
        (((1.0, 1e308, 0, 0.0),), 0.0),
        (((1.0, 1e307, 0, 0.0),), 3.0),  # 2*pi*f is finite, times 3 it is not
        (((1e308, 1.0, 0, 0.0), (1e308, 2.0, 0, 0.0)), 0.0),  # the mass overflows
    ])
    def test_overflow_is_an_error_not_nan(self, terms, x):
        h = TrigPolynomial(terms=terms, amplitude=0.4)
        with pytest.raises(ValueError, match="trig observable overflows"):
            h.evaluate(np.array([[0.5], [x]]))

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            TrigPolynomial(terms=((1.0, 1, 0, 0.0),), amplitude=0.6)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
    )
    def test_lipschitz_bound_holds(self, x, y):
        h = TrigPolynomial(
            terms=((1.0, 2, 0, 0.4), (-0.5, 3, 0, 1.7)), amplitude=0.4
        )
        L = h.lipschitz()
        gap = abs(h(np.array([x])) - h(np.array([y])))
        assert gap <= L * abs(x - y) + 1e-12


class TestPiecewiseAnchor:
    def test_exact_at_anchor_points(self):
        pts = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        vals = (0.2, 0.9, 0.4)
        h = PiecewiseAnchor(points=pts, values=vals, radius=0.3, base=0.5)
        for p, v in zip(pts, vals):
            assert h(np.array(p)) == pytest.approx(v, abs=1e-12)

    def test_base_far_from_anchors(self):
        h = PiecewiseAnchor(points=((0.0, 0.0),), values=(0.9,), radius=0.1,
                            base=0.3)
        assert h(np.array([2.0, 2.0])) == 0.3

    def test_convexity_keeps_range(self):
        rng = np.random.default_rng(7)
        h = PiecewiseAnchor(
            points=tuple(map(tuple, rng.uniform(-1, 1, (6, 2)))),
            values=tuple(rng.uniform(0, 1, 6)),
            radius=0.8,
            base=0.5,
        )
        vals = h.evaluate(random_states(400, 2, -1.5, 1.5))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_continuity_across_support_edge(self):
        h = PiecewiseAnchor(points=((0.0,),), values=(1.0,), radius=0.5, base=0.0)
        xs = np.linspace(0.49, 0.51, 21)[:, None]
        vals = h.evaluate(xs)
        assert np.all(np.abs(np.diff(vals)) < 0.02)

    def test_empirical_lipschitz_within_bound(self):
        rng = np.random.default_rng(3)
        h = PiecewiseAnchor(
            points=tuple(map(tuple, rng.uniform(0, 1, (4, 2)))),
            values=tuple(rng.uniform(0, 1, 4)),
            radius=0.4,
        )
        L = h.lipschitz()
        a = rng.uniform(0, 1, (300, 2))
        b = a + rng.normal(scale=1e-4, size=a.shape)
        num = np.abs(h.evaluate(a) - h.evaluate(b))
        den = np.linalg.norm(a - b, axis=1)
        assert np.all(num <= L * den + 1e-12)

    def test_exact_at_own_anchors_with_tiny_radius(self):
        # |p|^2 - 2 p.q + |q|^2 loses ~1e-8 to cancellation, which moves the
        # tent at its own anchor by ~1e-3 at this radius; exact differences
        # do not.
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, (200, 2))
        vals = rng.uniform(0, 1, 200)
        h = PiecewiseAnchor(points=tuple(map(tuple, pts)), values=tuple(vals),
                            radius=5e-6, base=0.5)
        assert np.max(np.abs(h.evaluate(pts) - vals)) <= 1e-12

    def test_lipschitz_on_disjoint_supports(self):
        h = PiecewiseAnchor(points=((0.0, 0.0), (1.0, 0.0)), values=(0.9, 0.2),
                            radius=0.4, base=0.5)
        assert h.lipschitz() == pytest.approx(0.4 / 0.4)
        assert h.max_deviation() == pytest.approx(0.4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           radius=st.floats(0.1, 0.8), base=st.floats(0.0, 1.0))
    def test_lipschitz_bound_with_overlapping_supports(self, seed, n, radius,
                                                       base):
        rng = np.random.default_rng(seed)
        h = PiecewiseAnchor(points=tuple(map(tuple, rng.uniform(0, 1, (n, 2)))),
                            values=tuple(rng.uniform(0, 1, n)), radius=radius,
                            base=base)
        L = h.lipschitz()
        a = rng.uniform(-0.5, 1.5, (200, 2))
        b = a + rng.normal(scale=1e-5, size=a.shape)
        num = np.abs(h.evaluate(a) - h.evaluate(b))
        den = np.linalg.norm(a - b, axis=1)
        assert np.all(num <= L * den + 1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseAnchor(points=((0.0,),), values=(0.1, 0.2), radius=0.3)


class TestSumObservable:
    def test_signed_perturbation_with_half_offset(self):
        base = Constant(0.5)
        bump = Constant(0.75)  # +0.25 after the offset
        h = SumObservable(base=base, bump=bump, offset=0.5)
        assert h(np.array([0.0])) == pytest.approx(0.75)

    def test_clipping(self):
        h = SumObservable(base=Constant(0.9), bump=Constant(0.9), offset=0.0)
        assert h(np.array([0.0])) == 1.0

    def test_lipschitz_adds(self):
        a = Coordinate(0, 0.0, 2.0)
        b = TrigPolynomial(terms=((1.0, 1, 0, 0.0),), amplitude=0.25)
        assert SumObservable(a, b).lipschitz() == pytest.approx(
            a.lipschitz() + b.lipschitz()
        )


class TestSupDistance:
    def test_known_gap(self):
        pts = random_states(100, 1)
        assert sup_distance(Constant(0.8), Constant(0.5), pts) == pytest.approx(0.3)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sup_distance(Constant(0.1), Constant(0.2), np.empty((0, 1)))


class TestSerialization:
    @pytest.mark.parametrize(
        "obs",
        [
            Constant(0.3),
            Coordinate(1, -1.0, 1.0),
            TrigPolynomial(terms=((1.0, 2, 0, 0.1), (-0.4, 1, 1, 0.9)),
                           amplitude=0.35),
            PiecewiseAnchor(points=((0.1, 0.2), (0.9, 0.4)), values=(0.3, 0.8),
                            radius=0.25, base=0.6),
            SumObservable(
                base=Constant(0.5),
                bump=TrigPolynomial(terms=((1.0, 1, 0, 0.0),), amplitude=0.2),
                offset=0.5,
            ),
        ],
    )
    def test_round_trip_preserves_values(self, obs):
        back = observable_from_dict(obs.to_dict())
        pts = random_states(200, 2, -1.0, 1.0)
        assert np.array_equal(obs.evaluate(pts), back.evaluate(pts))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            observable_from_dict({"variant": "spline"})

    def test_missing_variant_rejected(self):
        with pytest.raises(ValueError):
            observable_from_dict({"value": 0.5})
