"""Delay vectors, sliding-window matrices, and the shift structure that
relates them."""

import numpy as np
import pytest

import delayrecon as dr
from delayrecon.delay import (
    delay_count_for,
    delay_matrix,
    delay_vectors,
    orbits,
    read_delay_csv,
    write_delay_csv,
)
from delayrecon.genericity import compatibility_margin, sample_pairs
from delayrecon.systems import DomainError


def reference_delay_vectors(h, sys, points, m):
    """The per-column loop `delay_vectors` replaced: evaluate the column,
    then step the batch with a domain check, m times."""
    if m < 1:
        raise ValueError("delay count must be >= 1")
    cur = np.asarray(points, dtype=float)
    if cur.ndim == 1:
        cur = cur[None, :]
    sys.check_domain(cur)
    out = np.empty((cur.shape[0], m))
    for k in range(m):
        out[:, k] = h.evaluate(cur)
        if k + 1 < m:
            cur = sys.step_many(cur)
    return out


def reference_per_pair(h, sys, K, m):
    """`compatibility_margin`'s per-pair gaps from the reference loop, run on
    the xs and then on the ys."""
    vx = reference_delay_vectors(h, sys, K.xs, m)
    vy = reference_delay_vectors(h, sys, K.ys, m)
    return np.max(np.abs(vx - vy), axis=1)


def parity_samples(name):
    """(system, sample states inside its domain) for the orbit parity tests."""
    rng = np.random.default_rng(5)
    if name == "henon":
        sys = dr.Henon()
        return sys, dr.iterate(sys, [0.1, 0.1], 1300).states[300:]
    if name == "catmap":
        return dr.CatMap(), rng.uniform(0.0, 1.0, (400, 2))
    if name == "lorenz":
        sys = dr.SampledFlow("lorenz", dt=0.02)
        return sys, dr.iterate(sys, [1.0, 1.0, 20.0], 700).states[200:]
    sys = dr.Odometer(digits=3)
    return sys, rng.integers(0, 3, (200, 3)) / (sys.base - 1)


def parity_observable(variant, sys, samples):
    """A coordinate, a trig polynomial, or a trig base plus anchor tents wide
    enough that several overlap at some sample."""
    lo, hi = sys.domain[0]
    trig = dr.TrigPolynomial(terms=tuple((1.0 + j, 1 + j, j % sys.ambient_dim, 0.3 * j)
                                         for j in range(3)), amplitude=0.4)
    if variant == "coordinate":
        return dr.Coordinate(0, lo, hi)
    if variant == "trig":
        return trig
    anchors = samples[::25]
    radius = 0.4 * float(np.linalg.norm(samples.max(axis=0) - samples.min(axis=0)))
    values = np.random.default_rng(2).uniform(0.0, 1.0, len(anchors))
    bump = dr.PiecewiseAnchor(points=anchors, values=values, radius=radius)
    dist = np.linalg.norm(samples[:, None, :] - anchors[None, :, :], axis=2)
    assert (dist < radius).sum(axis=1).max() >= 3  # three or more tents overlap
    return dr.SumObservable(base=trig, bump=bump, offset=0.5)


def test_delay_count_formula():
    assert [delay_count_for(d) for d in (0, 1, 2, 5)] == [1, 3, 5, 11]
    with pytest.raises(ValueError):
        delay_count_for(-1)


class TestDelayVector:
    def test_entries_follow_the_orbit(self, henon):
        h = dr.Coordinate(0, -1.5, 1.5)
        x = np.array([0.1, 0.1])
        vec = delay_vectors(h, henon, x, 4)[0]
        cur = x
        for k in range(4):
            assert vec[k] == h(cur)
            cur = henon.step(cur)

    def test_batch_matches_single(self, henon, henon_samples):
        h = dr.Coordinate(1, -0.45, 0.45)
        pts = henon_samples[:25]
        batch = delay_vectors(h, henon, pts, 5)
        for i, p in enumerate(pts):
            assert np.array_equal(batch[i], delay_vectors(h, henon, p, 5)[0])

    def test_m_one_is_plain_evaluation(self, henon):
        h = dr.Coordinate(0, -1.5, 1.5)
        x = np.array([0.3, 0.05])
        assert delay_vectors(h, henon, x, 1)[0, 0] == h(x)

    def test_bad_m_rejected(self, henon):
        with pytest.raises(ValueError):
            delay_vectors(dr.Constant(0.5), henon, np.zeros(2), 0)


class TestDelayMatrix:
    def test_agrees_with_per_point_vectors(self, henon, henon_samples):
        h = dr.Coordinate(0, -1.5, 1.5)
        traj = dr.Trajectory(states=henon_samples[:300], system_id="x")
        mat = delay_matrix(h, traj, 3)
        per_point = delay_vectors(h, henon, traj.states[:298], 3)
        assert np.array_equal(mat, per_point)

    def test_hankel_shift_exact(self, henon_samples):
        h = dr.Coordinate(0, -1.5, 1.5)
        traj = dr.Trajectory(states=henon_samples[:200], system_id="x")
        mat = delay_matrix(h, traj, 5)
        assert np.array_equal(mat[1:, :-1], mat[:-1, 1:])

    def test_shape(self, henon_samples):
        traj = dr.Trajectory(states=henon_samples[:50], system_id="x")
        assert delay_matrix(dr.Constant(0.1), traj, 7).shape == (44, 7)

    def test_too_short_trajectory_rejected(self, henon_samples):
        traj = dr.Trajectory(states=henon_samples[:3], system_id="x")
        with pytest.raises(ValueError):
            delay_matrix(dr.Constant(0.1), traj, 5)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path, henon_samples):
        traj = dr.Trajectory(states=henon_samples[:100], system_id="x")
        mat = delay_matrix(dr.Coordinate(0, -1.5, 1.5), traj, 3)
        path = tmp_path / "delays.csv"
        write_delay_csv(path, mat)
        assert np.array_equal(read_delay_csv(path), mat)

    def test_header_names_delay_index(self, tmp_path):
        path = tmp_path / "delays.csv"
        write_delay_csv(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "k0,k1,k2"

    @pytest.mark.parametrize("text", ["k0,k1\n", ""], ids=["header-only", "empty"])
    def test_file_of_no_rows_rejected(self, tmp_path, text):
        # An error, not NumPy's warning, which pytest raises here.
        path = tmp_path / "delays.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="holds no states"):
            read_delay_csv(path)


class TestOrbitParity:
    """`delay_vectors` and `compatibility_margin` read one batched orbit and
    evaluate the observable once; the per-column loop is the reference."""

    @pytest.mark.parametrize("system", ["henon", "catmap", "lorenz", "odometer"])
    @pytest.mark.parametrize("variant", ["coordinate", "trig", "sum"])
    def test_bitwise_equal_to_per_column_loop(self, system, variant):
        sys, samples = parity_samples(system)
        h = parity_observable(variant, sys, samples)
        for m in (1, 2, 5):
            assert np.array_equal(delay_vectors(h, sys, samples, m),
                                  reference_delay_vectors(h, sys, samples, m))
        K = sample_pairs(samples, 1e-3, 60, sys=sys, seed=1)
        report = compatibility_margin(h, sys, K, 5)
        assert np.array_equal(report.per_pair, reference_per_pair(h, sys, K, 5))

    def test_orbit_rows_are_successive_steps(self):
        sys, samples = parity_samples("lorenz")
        orbit = orbits(sys, samples[:10], 4)
        assert orbit.shape == (10, 4, 3)
        assert np.array_equal(orbit[:, 0], samples[:10])
        for t in range(1, 4):
            assert np.array_equal(orbit[:, t], sys.step_many(orbit[:, t - 1]))


class StrictHenon(dr.Henon):
    """Henon map that fails a test, with an error no caller catches, when it
    is asked to step a state outside its domain box."""

    def _step_batch(self, pts):
        assert np.all(np.abs(pts) <= 3.0), "stepped a state outside the box"
        return super()._step_batch(pts)


@pytest.mark.filterwarnings("error")
class TestOrbitErrorParity:
    """Same error type and message as the per-column loop, and no state
    outside the domain is ever stepped."""

    H = dr.Coordinate(0, -1.5, 1.5)
    INSIDE = np.array([[0.1, 0.1], [0.3, -0.2]])
    # Leaves the Henon box at its first step: 1 - 1.4 * 2.9**2 < -3.
    ESCAPES = np.array([[0.1, 0.1], [2.9, 0.0]])

    @staticmethod
    def raised(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return type(info.value), str(info.value)

    def both_raise(self, points, m):
        sys = StrictHenon()
        new = self.raised(delay_vectors, self.H, sys, points, m)
        assert new == self.raised(reference_delay_vectors, self.H, sys, points, m)
        return new

    def test_m_one_checks_the_input_points(self):
        sys = dr.Henon()
        assert np.array_equal(delay_vectors(self.H, sys, self.INSIDE, 1),
                              reference_delay_vectors(self.H, sys, self.INSIDE, 1))
        outside = np.array([[0.1, 0.1], [3.5, 0.0]])
        assert self.both_raise(outside, 1)[0] is DomainError
        assert self.both_raise(self.INSIDE, 0) == (ValueError,
                                                   "delay count must be >= 1")

    def test_leaving_at_a_stepped_state_raises(self):
        kind, message = self.both_raise(self.ESCAPES, 3)
        assert kind is DomainError
        assert message == "henon(a=1.4,b=0.3): state outside domain box"

    def test_leaving_only_at_the_last_state_is_not_checked(self):
        sys = dr.Henon()
        assert np.array_equal(delay_vectors(self.H, sys, self.ESCAPES, 2),
                              reference_delay_vectors(self.H, sys, self.ESCAPES, 2))

    def test_margin_raises_like_the_reference(self):
        sys = StrictHenon()
        K = dr.PairSet(self.INSIDE, self.ESCAPES[::-1], 0.01)
        assert np.array_equal(compatibility_margin(self.H, sys, K, 2).per_pair,
                              reference_per_pair(self.H, sys, K, 2))
        new = self.raised(compatibility_margin, self.H, sys, K, 3)
        assert new == self.raised(reference_per_pair, self.H, sys, K, 3)
        assert new[0] is DomainError
