"""Pair sets, compatibility margins, and the separation-restoring
perturbation construction."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import delayrecon as dr
from delayrecon import genericity
from delayrecon.delay import orbits
from delayrecon.genericity import (
    MARGIN_TOL,
    PairSet,
    PerturbationError,
    compatibility_margin,
    detect_period,
    genericity_monte_carlo,
    perturb_to_compatible,
    random_trig_bump,
    sample_pairs,
)
from delayrecon.neighbors import first_found


def reference_dedup(pts, tol):
    """The greedy quadratic loop of member dedup in `perturb_to_compatible`:
    (representatives, index of each point's representative)."""
    reps = []
    assign = np.empty(pts.shape[0], dtype=int)
    for i, p in enumerate(pts):
        for j, r in enumerate(reps):
            if np.linalg.norm(p - r) <= tol:
                assign[i] = j
                break
        else:
            assign[i] = len(reps)
            reps.append(p)
    return np.asarray(reps), assign


def reference_first_found(pts, labels, radius, wrap=lambda disp: disp):
    """The per-row loop the periodic-point merge used: the rows kept when a
    row is dropped for an earlier kept row with its label within
    ``radius``."""
    kept = np.zeros(pts.shape[0], dtype=bool)
    for i, (x, label) in enumerate(zip(pts, labels)):
        prior = pts[:i][kept[:i] & (labels[:i] == label)]
        dist = np.linalg.norm(wrap(x - prior), axis=1)
        kept[i] = not np.any(dist <= radius)
    return np.flatnonzero(kept)


def dedup(pts, tol):
    """`first_found` as member dedup reads it: (representatives, index of
    each point's representative)."""
    into = first_found(pts, tol)
    return pts[into == np.arange(len(pts))], np.unique(into, return_inverse=True)[1]


TORUS_WRAP = dr.CatMap().wrap_displacement


@st.composite
def merge_inputs(draw):
    """(points, r, labels, wrap): rows on a lattice or at random, with shared
    first coordinates and exact repeats; on a torus, rows at 0, just below 1,
    at exactly 1.0 and one period outside [0, 1]; from 0 rows up."""
    torus = draw(st.booleans())
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 30))
    if torus:
        special = [0.0, 0.25, 0.5, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0)), 1.0,
                   1.25, -0.75]
        elements = st.sampled_from(special) | st.floats(-1.0, 2.0)
    else:
        elements = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2.0, 2.0)
    pts = draw(hnp.arrays(float, (n, k), elements=elements))
    if n:
        pts = pts[draw(hnp.arrays(np.int64, draw(st.integers(n, 2 * n)),
                                  elements=st.integers(0, n - 1)))]
    r = draw(st.sampled_from([0.0, 1e-12, 0.25, 0.3, 0.5]))
    labels = draw(st.none() | hnp.arrays(np.int64, len(pts), elements=st.integers(1, 3)))
    return pts, r, labels, TORUS_WRAP if torus else None


def reference_sample_pairs(samples, delta, count, seed=0, max_tries=200, min_index_gap=0):
    """`sample_pairs` with the scan over used indices it replaces, drawing
    from the same `random.Random` stream; returns (xs, ys, complete)."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    n = pts.shape[0]
    rng = random.Random(seed)
    xs, ys, used = [], [], []
    for _ in range(max_tries * count):
        if len(xs) >= count:
            break
        i, j = math.floor(rng.random() * n), math.floor(rng.random() * n)
        if i == j or math.dist(pts[i], pts[j]) < delta:
            continue
        if min_index_gap > 0:
            if abs(i - j) <= min_index_gap:
                continue
            if any(abs(i - u) <= min_index_gap or abs(j - u) <= min_index_gap
                   for u in used):
                continue
            used.extend((i, j))
        xs.append(pts[i])
        ys.append(pts[j])
    return np.asarray(xs), np.asarray(ys), len(xs) >= count


@pytest.fixture(scope="module")
def henon_pairs(henon, henon_samples):
    return sample_pairs(henon_samples, delta=1e-2, count=100, sys=henon,
                        seed=0, min_index_gap=3)


class TestPairSet:
    def test_separation_enforced(self):
        with pytest.raises(ValueError):
            PairSet(np.array([[0.0]]), np.array([[0.005]]), delta=0.01)

    def test_csv_round_trip(self, tmp_path, henon_pairs):
        path = tmp_path / "pairs.csv"
        henon_pairs.write_csv(path)
        back = PairSet.read_csv(path, delta=henon_pairs.delta)
        assert np.array_equal(back.xs, henon_pairs.xs)
        assert np.array_equal(back.ys, henon_pairs.ys)
        # One pair of 1-D states is one row of two columns.
        PairSet(np.array([[0.25]]), np.array([[0.75]]), 0.5).write_csv(path)
        assert path.read_text() == "x0,y0\n0.25,0.75\n"
        back = PairSet.read_csv(path, delta=0.5)
        assert (back.xs.tolist(), back.ys.tolist()) == ([[0.25]], [[0.75]])


class TestSamplePairs:
    def test_deterministic_for_fixed_seed(self, henon, henon_samples):
        a = sample_pairs(henon_samples, 1e-2, 50, sys=henon, seed=3)
        b = sample_pairs(henon_samples, 1e-2, 50, sys=henon, seed=3)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_all_pairs_separated(self, henon_pairs):
        sep = np.linalg.norm(henon_pairs.xs - henon_pairs.ys, axis=1)
        assert np.all(sep >= 1e-2)

    def test_index_gap_keeps_orbit_segments_apart(self, henon, henon_samples):
        K = sample_pairs(henon_samples, 1e-2, 150, sys=henon, seed=5,
                         min_index_gap=3)
        members = np.concatenate([K.xs, K.ys])
        orbit = [members]
        cur = members
        for _ in range(2):
            cur = henon.step_many(cur)
            orbit.append(cur)
        pts = np.concatenate(orbit)
        from scipy.spatial import cKDTree
        close = cKDTree(pts).query_pairs(r=1e-9)
        assert not close

    @pytest.mark.parametrize("gap", [0, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1, 5, 12])
    def test_matches_used_index_scan(self, henon, henon_samples, gap, seed):
        fp = henon.fixed_points()[0]
        cloud = np.concatenate([henon_samples[:600], [fp] * 5, henon_samples[600:]])
        K = sample_pairs(cloud, 1e-2, 120, sys=henon, seed=seed, min_index_gap=gap)
        xs, ys, complete = reference_sample_pairs(cloud, 1e-2, 120, seed=seed,
                                                  min_index_gap=gap)
        assert np.array_equal(K.xs, xs) and np.array_equal(K.ys, ys)
        assert K.complete == complete

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_used_index_scan_when_incomplete(self, seed):
        cloud = np.linspace(0.0, 1.0, 40)[:, None]
        K = sample_pairs(cloud, 0.1, 50, seed=seed, min_index_gap=3)
        xs, ys, complete = reference_sample_pairs(
            cloud, 0.1, 50, seed=seed, min_index_gap=3)
        assert not K.complete and not complete
        assert np.array_equal(K.xs, xs) and np.array_equal(K.ys, ys)

    def test_empty_result_names_its_cause(self):
        # 100 points on a line: a gap of 97 leaves 6 of the 1e4 ordered
        # index pairs, which 200 draws miss; a separation of 2 leaves none,
        # though many draws clear the gap of 3.
        cloud = np.linspace(0.0, 1.0, 100)[:, None]
        with pytest.raises(genericity.IndexGapError, match="more than 97 apart"):
            sample_pairs(cloud, 1e-3, 1, seed=0, min_index_gap=97)
        with pytest.raises(ValueError, match="at separation 2.0") as caught:
            sample_pairs(cloud, 2.0, 1, seed=0, min_index_gap=3)
        assert not isinstance(caught.value, genericity.IndexGapError)

    def test_incomplete_flagged(self):
        # six samples with an index-gap constraint cannot yield 50 pairs
        cloud = np.linspace(0.0, 1.0, 6)[:, None]
        K = sample_pairs(cloud, 0.1, 50, seed=0, min_index_gap=1)
        assert not K.complete and len(K) < 50

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(40)), st.integers(0, 2**64),
           st.floats(1e-3, 0.5), st.integers(0, 4), st.integers(1, 30))
    def test_pairs_separated_gapped_and_seeded(self, order, seed, delta, gap, count):
        # The first coordinate of state i encodes i, the second scatters the
        # distances; two runs from one seed must agree, including on failure.
        cloud = np.column_stack([order, np.sin(np.arange(40.0) * 7.3)]) / 40.0

        def sampled():
            try:
                return sample_pairs(cloud, delta, count, seed=seed, min_index_gap=gap)
            except ValueError:  # no draw was admissible
                return None

        K, again = sampled(), sampled()
        if K is None:
            assert again is None
            return
        assert np.array_equal(K.xs, again.xs) and np.array_equal(K.ys, again.ys)
        assert K.complete == again.complete == (len(K) == count)
        assert all(math.dist(x, y) >= delta for x, y in zip(K.xs, K.ys))
        index = {round(40 * v): i for i, v in enumerate(cloud[:, 0])}
        i, j = (np.array([index[round(40 * v)] for v in side[:, 0]])
                for side in (K.xs, K.ys))
        assert np.all(np.abs(i - j) > gap)
        if gap > 0:
            used = np.sort(np.concatenate([i, j]))
            assert np.all(np.diff(used) > gap)


class TestMargin:
    def test_matches_brute_force(self, henon, henon_pairs):
        h = dr.Coordinate(0, -1.5, 1.5)
        report = compatibility_margin(h, henon, henon_pairs, 3)
        gaps = []
        for x, y in zip(henon_pairs.xs, henon_pairs.ys):
            gx, gy = x.copy(), y.copy()
            best = 0.0
            for _ in range(3):
                best = max(best, abs(h(gx) - h(gy)))
                gx, gy = henon.step(gx), henon.step(gy)
            gaps.append(best)
        assert report.margin == pytest.approx(min(gaps), abs=1e-15)
        assert report.argmin_index == int(np.argmin(gaps))

    def test_constant_observable_has_zero_margin(self, henon, henon_pairs):
        report = compatibility_margin(dr.Constant(0.5), henon, henon_pairs, 3)
        assert report.margin == 0.0
        assert not report.compatible

    def test_margin_stability_under_small_sup_change(self, henon, henon_pairs):
        h = dr.Coordinate(0, -1.5, 1.5)
        mu = compatibility_margin(h, henon, henon_pairs, 3).margin
        bump = dr.Constant(0.5 + mu / 8.0)  # constant shift of mu/8
        g = dr.SumObservable(base=h, bump=bump, offset=0.5)
        mu2 = compatibility_margin(g, henon, henon_pairs, 3).margin
        assert abs(mu2 - mu) <= 2.0 * (mu / 8.0) + 1e-12



class TestDedupMembers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tol", [0.0, 0.05, 0.3])
    def test_matches_greedy_loop(self, seed, tol):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (150, 2))
        pts = np.concatenate([pts, pts[:40] + rng.normal(scale=0.01, size=(40, 2)),
                              pts[10:20]])[rng.permutation(200)]
        reps, assign = dedup(pts, tol)
        ref_reps, ref_assign = reference_dedup(pts, tol)
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(assign, ref_assign)

    def test_chain_is_greedy_not_connected_components(self):
        # a~b and b~c, but a and c are farther apart than tol: greedy keeps
        # c as its own representative, connected components would merge it.
        pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
        assert first_found(pts, 1.0).tolist() == [0, 0, 2]
        reps, assign = dedup(pts, 1.0)
        ref_reps, ref_assign = reference_dedup(pts, 1.0)
        assert assign.tolist() == ref_assign.tolist() == [0, 0, 1]
        assert np.array_equal(reps, ref_reps)

    def test_tie_at_tol_joins(self):
        pts = np.array([[0.0], [0.25], [0.5]])
        assert first_found(pts, 0.25).tolist() == [0, 0, 2]
        _, assign = dedup(pts, 0.25)
        assert assign.tolist() == reference_dedup(pts, 0.25)[1].tolist()

    @settings(max_examples=300, deadline=None)
    @given(merge_inputs())
    def test_first_found_matches_reference_loops(self, case):
        pts, r, labels, wrap = case
        n = len(pts)
        into = first_found(pts, r, labels, wrap)
        assert into.shape == (n,)
        kept = np.flatnonzero(into == np.arange(n))
        same = np.zeros(n, dtype=int) if labels is None else labels
        assert np.array_equal(kept, reference_first_found(
            pts, same, r, wrap or (lambda disp: disp)))
        # Each merged row goes to its earliest kept row within r with its label.
        for i in np.flatnonzero(into != np.arange(n)):
            prior = kept[kept < i]
            disp = pts[i] - pts[prior]
            dist = np.linalg.norm(disp if wrap is None else wrap(disp), axis=1)
            assert into[i] == prior[(dist <= r) & (same[prior] == same[i])][0]
        if labels is None and wrap is None:
            reps, assign = reference_dedup(pts, r)
            assert np.array_equal(pts[kept], reps.reshape(-1, pts.shape[1]))
            assert np.array_equal(np.unique(into, return_inverse=True)[1], assign)


class TestDetectPeriod:
    def test_fixed_point(self, henon):
        fp = henon.fixed_points()[0]
        assert detect_period(henon, fp[None, :], 3, 1e-9).tolist() == [1]

    def test_rational_rotation(self):
        rot = dr.CircleRotation(0.25)
        assert detect_period(rot, np.array([[0.1]]), 6, 1e-9).tolist() == [4]

    def test_aperiodic_returns_none(self, henon):
        # 0 stands for no return within n_max.
        assert detect_period(henon, np.array([[0.1, 0.1]]), 4, 1e-9).tolist() == [0]

    def test_batch_matches_rows(self, henon):
        from delayrecon.topology import grid_seeds
        pts = np.concatenate([[p for p, _ in dr.find_periodic(
            henon, 2, 1e-9, grid_seeds(henon, 100))], [[0.1, 0.1]]])
        batch = detect_period(henon, pts, 4, 1e-9)
        assert batch.tolist() == [detect_period(henon, x[None, :], 4, 1e-9)[0]
                                  for x in pts]
        assert 0 in batch and 1 in batch and 2 in batch


class TestPerturbation:
    def test_restores_separation_from_constant(self, henon, henon_pairs):
        f, verified = perturb_to_compatible(dr.Constant(0.5), 0.05, henon_pairs,
                                            henon, d=1, seed=0)
        report = compatibility_margin(f, henon, henon_pairs, 3)
        assert report.margin > MARGIN_TOL
        # the returned report is the one a caller would recompute
        assert verified.to_dict() == report.to_dict()

    def test_stays_within_eps(self, henon, henon_samples, henon_pairs):
        h = dr.Constant(0.5)
        f, _ = perturb_to_compatible(h, 0.05, henon_pairs, henon, d=1, seed=1)
        assert dr.sup_distance(f, h, henon_samples) < 0.05

    def test_certified_bound_covers_sampled_distance(self, henon,
                                                     henon_samples, henon_pairs):
        h = dr.Constant(0.5)
        f, _ = perturb_to_compatible(h, 0.05, henon_pairs, henon, d=1, seed=1)
        bound = f.bump.max_deviation()
        assert dr.sup_distance(f, h, henon_samples) <= bound < 0.05
        # the bound holds off the orbit too, e.g. right next to the anchors
        near = np.asarray(f.bump.points) + 0.5 * f.bump.radius
        assert dr.sup_distance(f, h, near) <= bound

    def test_periodic_members_handled(self):
        # rational rotation: every point has period 4, so with d=2 the
        # anchors carry one full cycle and targets compare through their
        # periodic extensions
        rot = dr.CircleRotation(0.25)
        xs = np.array([[0.05], [0.15]])
        ys = np.array([[0.6], [0.7]])
        K = PairSet(xs, ys, delta=0.5)
        f, _ = perturb_to_compatible(dr.Constant(0.5), 0.08, K, rot, d=2, seed=2)
        assert compatibility_margin(f, rot, K, 5).margin > MARGIN_TOL

    def test_coincident_pair_members_rejected(self, henon):
        x = np.array([[0.1, 0.1]])
        K = PairSet(x, x + 1e-12, delta=1e-13)
        with pytest.raises(PerturbationError):
            perturb_to_compatible(dr.Constant(0.5), 0.05, K, henon, d=1)

    def test_shared_orbit_points_rejected(self, henon):
        x = np.array([0.1, 0.1])
        y = henon.step(x)  # y's orbit is x's orbit shifted by one
        K = PairSet(x[None, :], y[None, :], delta=0.1)
        with pytest.raises(PerturbationError, match="disjoint"):
            perturb_to_compatible(dr.Constant(0.5), 0.05, K, henon, d=1)

    def test_bad_eps_rejected(self, henon, henon_pairs):
        with pytest.raises(ValueError):
            perturb_to_compatible(dr.Constant(0.5), 0.0, henon_pairs, henon, d=1)


class TestMonteCarlo:
    def test_positive_bumps_separate_rotation_pairs(self):
        rot = dr.CircleRotation(0.3838)
        traj = dr.iterate(rot, np.array([0.123]), 400)
        K = sample_pairs(traj.states, 0.05, 50, sys=rot, seed=1)
        frac = genericity_monte_carlo(rot, K, m=3, trials=40, bump_scale=0.1,
                                      seed=7)
        assert frac >= 0.95

    def test_zero_bump_never_separates_constant_base(self):
        rot = dr.CircleRotation(0.3838)
        traj = dr.iterate(rot, np.array([0.123]), 400)
        K = sample_pairs(traj.states, 0.05, 50, sys=rot, seed=1)
        frac = genericity_monte_carlo(rot, K, m=3, trials=20, bump_scale=0.0,
                                      seed=7)
        assert frac == 0.0

    def test_trials_validated(self, henon, henon_pairs):
        with pytest.raises(ValueError):
            genericity_monte_carlo(henon, henon_pairs, 3, 0, 0.1)

    # (m, a gap threshold, base, whether the share of gaps above it lies
    # strictly between 0 and 1)
    @pytest.mark.parametrize("m, tol, base, between", [
        (3, MARGIN_TOL, None, False),
        (3, 1e-2, None, True),
        (1, 1e-3, dr.Coordinate(0, -1.0, 1.0), True),
        (2, 2e-2, dr.TrigPolynomial(((1.0, 2, 1, 0.4),), 0.3), True),
    ])
    def test_matches_margin_loop(self, monkeypatch, henon, henon_pairs, m, tol,
                                 base, between):
        """Each trial's gap on the trig basis lies within 1e-12 of
        `compatibility_margin` of the same bump as a `SumObservable`, with
        the same decision at ``tol`` and the Monte Carlo's fraction at
        MARGIN_TOL, at bump scale 0.1, at bump scale 0 and for bumps whose
        coefficients are all 0 (both give the constant 1/2)."""
        base_obs = base or dr.Constant(0.5)
        states = orbits(henon, np.concatenate([henon_pairs.xs, henon_pairs.ys]),
                        m).reshape(-1, henon.ambient_dim)

        def zero_mass_bump(rng, ambient_dim, bump_scale):
            bump = random_trig_bump(rng, ambient_dim, bump_scale)
            return dr.TrigPolynomial(tuple((0.0, *t[1:]) for t in bump.terms),
                                     bump.amplitude)

        for scale, draw in [(0.1, random_trig_bump), (0.0, random_trig_bump),
                            (0.1, zero_mass_bump)]:
            rng = np.random.default_rng(3)
            ref, unclamped = [], []
            for _ in range(60):
                bump = draw(rng, henon.ambient_dim, scale)
                g = dr.SumObservable(base=base_obs, bump=bump, offset=0.5)
                ref.append(compatibility_margin(g, henon, henon_pairs, m).margin)
                sums = base_obs.evaluate(states) + bump.evaluate(states) - 0.5
                sx, sy = sums.reshape(2, len(henon_pairs), m)
                unclamped.append(np.abs(sx - sy).max(axis=1).min())
            ref, unclamped = np.array(ref), np.array(unclamped)
            monkeypatch.setattr(genericity, "random_trig_bump", draw)
            gaps = genericity._trial_gaps(henon, henon_pairs, m, 60, scale, 3,
                                          base_obs)
            frac = genericity_monte_carlo(henon, henon_pairs, m, 60, scale, seed=3,
                                          base=base)
            np.testing.assert_allclose(gaps, ref, rtol=0.0, atol=1e-12)
            assert np.array_equal(gaps > tol, ref > tol)
            assert frac == np.count_nonzero(ref > MARGIN_TOL) / 60
            if draw is zero_mass_bump or scale == 0.0:
                assert np.ptp(gaps) == 0.0  # every trial is the base alone
            else:
                assert (0.0 < np.count_nonzero(ref > tol) / 60 < 1.0) == between
                # Under the Coordinate base the clamp decides some trials.
                clamp_decides = np.any((unclamped > tol) != (ref > tol))
                assert clamp_decides == isinstance(base, dr.Coordinate)
