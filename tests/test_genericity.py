"""Pair sets, compatibility margins, and the separation-restoring
perturbation construction."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

import delayrecon as dr
from delayrecon.genericity import (
    MARGIN_TOL,
    CompatibilityReport,
    PairSet,
    PerturbationError,
    _dedup_members,
    compatibility_margin,
    detect_period,
    genericity_monte_carlo,
    openness_radius,
    perturb_to_compatible,
    random_trig_bump,
    sample_pairs,
)


def reference_dedup(pts, tol):
    """The greedy quadratic loop `_dedup_members` replaces."""
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


def reference_sample_pairs(samples, delta, count, periodic_points=None, seed=0,
                           period_tol=1e-6, max_tries=200, min_index_gap=0):
    """`sample_pairs` with the scan over used indices it replaces; returns
    (xs, ys, tags, complete)."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    ptree = None
    if periodic_points is not None and len(periodic_points):
        ptree = cKDTree(np.atleast_2d([p for p, _ in periodic_points]))

    def is_periodic(x):
        return ptree is not None and bool(ptree.query(x)[0] <= period_tol)

    xs, ys, tags, used = [], [], [], []
    for _ in range(max_tries * count):
        if len(xs) >= count:
            break
        i, j = rng.integers(0, n, size=2)
        if i == j or np.linalg.norm(pts[i] - pts[j]) < delta:
            continue
        if min_index_gap > 0:
            if abs(int(i) - int(j)) <= min_index_gap:
                continue
            if any(abs(int(i) - u) <= min_index_gap
                   or abs(int(j) - u) <= min_index_gap for u in used):
                continue
            used.extend((int(i), int(j)))
        xs.append(pts[i])
        ys.append(pts[j])
        px, py = is_periodic(pts[i]), is_periodic(pts[j])
        tags.append("C2" if px and py else ("C1" if not px and not py else "C3"))
    return np.asarray(xs), np.asarray(ys), tuple(tags), len(xs) >= count


@pytest.fixture(scope="module")
def henon_pairs(henon, henon_samples):
    return sample_pairs(henon_samples, delta=1e-2, count=100, sys=henon,
                        seed=0, min_index_gap=3)


class TestPairSet:
    def test_separation_enforced(self):
        with pytest.raises(ValueError):
            PairSet(np.array([[0.0]]), np.array([[0.005]]), delta=0.01,
                    tags=("C1",))

    def test_tag_validation(self):
        with pytest.raises(ValueError):
            PairSet(np.array([[0.0]]), np.array([[1.0]]), delta=0.5,
                    tags=("C9",))

    def test_subset_keeps_tags(self):
        K = PairSet(np.array([[0.0], [0.1]]), np.array([[1.0], [0.9]]),
                    delta=0.5, tags=("C1", "C2"))
        sub = K.subset([1])
        assert len(sub) == 1 and sub.tags == ("C2",)

    def test_csv_round_trip(self, tmp_path, henon_pairs):
        path = tmp_path / "pairs.csv"
        henon_pairs.write_csv(path)
        back = PairSet.read_csv(path, delta=henon_pairs.delta)
        assert np.array_equal(back.xs, henon_pairs.xs)
        assert np.array_equal(back.ys, henon_pairs.ys)
        assert back.tags == henon_pairs.tags


class TestSamplePairs:
    def test_deterministic_for_fixed_seed(self, henon, henon_samples):
        a = sample_pairs(henon_samples, 1e-2, 50, sys=henon, seed=3)
        b = sample_pairs(henon_samples, 1e-2, 50, sys=henon, seed=3)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_all_pairs_separated(self, henon_pairs):
        sep = np.linalg.norm(henon_pairs.xs - henon_pairs.ys, axis=1)
        assert np.all(sep >= 1e-2)

    def test_periodic_tagging(self, henon):
        from delayrecon.topology import grid_seeds
        periodic = dr.find_periodic(henon, 1, 1e-9, grid_seeds(henon, 100))
        fp = periodic[0][0]
        cloud = np.concatenate([[fp], np.random.default_rng(0).uniform(
            -0.4, 0.4, (60, 2))])
        K = sample_pairs(cloud, 0.05, 40, sys=henon, periodic_points=periodic,
                         seed=1)
        # any pair touching the fixed point must carry a periodic tag
        for x, y, tag in zip(K.xs, K.ys, K.tags):
            touches = (np.linalg.norm(x - fp) <= 1e-6
                       or np.linalg.norm(y - fp) <= 1e-6)
            assert tag == ("C3" if touches else "C1")

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
        periodic = [(fp, 1)]
        cloud = np.concatenate([henon_samples[:600], [fp] * 5, henon_samples[600:]])
        K = sample_pairs(cloud, 1e-2, 120, sys=henon, periodic_points=periodic,
                         seed=seed, min_index_gap=gap)
        xs, ys, tags, complete = reference_sample_pairs(
            cloud, 1e-2, 120, periodic_points=periodic, seed=seed,
            min_index_gap=gap)
        assert np.array_equal(K.xs, xs) and np.array_equal(K.ys, ys)
        assert K.tags == tags and K.complete == complete

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_used_index_scan_when_incomplete(self, seed):
        cloud = np.linspace(0.0, 1.0, 40)[:, None]
        K = sample_pairs(cloud, 0.1, 50, seed=seed, min_index_gap=3)
        xs, ys, tags, complete = reference_sample_pairs(
            cloud, 0.1, 50, seed=seed, min_index_gap=3)
        assert not K.complete and not complete
        assert np.array_equal(K.xs, xs) and np.array_equal(K.ys, ys)
        assert K.tags == tags

    def test_incomplete_flagged(self):
        # six samples with an index-gap constraint cannot yield 50 pairs
        cloud = np.linspace(0.0, 1.0, 6)[:, None]
        K = sample_pairs(cloud, 0.1, 50, seed=0, min_index_gap=1)
        assert not K.complete and len(K) < 50


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

    def test_openness_radius_is_a_third(self):
        report = CompatibilityReport(margin=0.09, argmin_index=0,
                                     per_pair=np.array([0.09]), m=3)
        assert openness_radius(report) == pytest.approx(0.03)
        with pytest.raises(ValueError):
            openness_radius(CompatibilityReport(0.0, 0, np.array([0.0]), 3))


class TestDedupMembers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tol", [0.0, 0.05, 0.3])
    def test_matches_greedy_loop(self, seed, tol):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (150, 2))
        pts = np.concatenate([pts, pts[:40] + rng.normal(scale=0.01, size=(40, 2)),
                              pts[10:20]])[rng.permutation(200)]
        reps, assign = _dedup_members(pts, tol)
        ref_reps, ref_assign = reference_dedup(pts, tol)
        assert np.array_equal(reps, ref_reps)
        assert np.array_equal(assign, ref_assign)

    def test_chain_is_greedy_not_connected_components(self):
        # a~b and b~c, but a and c are farther apart than tol: greedy keeps
        # c as its own representative, connected components would merge it.
        pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
        reps, assign = _dedup_members(pts, 1.0)
        ref_reps, ref_assign = reference_dedup(pts, 1.0)
        assert assign.tolist() == ref_assign.tolist() == [0, 0, 1]
        assert np.array_equal(reps, ref_reps)

    def test_tie_at_tol_joins(self):
        pts = np.array([[0.0], [0.25], [0.5]])
        _, assign = _dedup_members(pts, 0.25)
        assert assign.tolist() == reference_dedup(pts, 0.25)[1].tolist()


class TestDetectPeriod:
    def test_fixed_point(self, henon):
        fp = henon.fixed_points()[0]
        assert detect_period(henon, fp, 3, 1e-9) == 1

    def test_rational_rotation(self):
        rot = dr.CircleRotation(0.25)
        assert detect_period(rot, np.array([0.1]), 6, 1e-9) == 4

    def test_aperiodic_returns_none(self, henon):
        assert detect_period(henon, np.array([0.1, 0.1]), 4, 1e-9) is None

    def test_batch_matches_rows(self, henon):
        from delayrecon.topology import grid_seeds
        pts = np.concatenate([[p for p, _ in dr.find_periodic(
            henon, 2, 1e-9, grid_seeds(henon, 100))], [[0.1, 0.1]]])
        batch = detect_period(henon, pts, 4, 1e-9)
        assert batch == [detect_period(henon, x, 4, 1e-9) for x in pts]
        assert None in batch and 1 in batch and 2 in batch


class TestPerturbation:
    def test_restores_separation_from_constant(self, henon, henon_pairs):
        f = perturb_to_compatible(dr.Constant(0.5), 0.05, henon_pairs, henon,
                                  d=1, seed=0)
        report = compatibility_margin(f, henon, henon_pairs, 3)
        assert report.margin > MARGIN_TOL

    def test_stays_within_eps(self, henon, henon_samples, henon_pairs):
        h = dr.Constant(0.5)
        f = perturb_to_compatible(h, 0.05, henon_pairs, henon, d=1, seed=1)
        assert dr.sup_distance(f, h, henon_samples) < 0.05

    def test_certified_bound_covers_sampled_distance(self, henon,
                                                     henon_samples, henon_pairs):
        h = dr.Constant(0.5)
        f = perturb_to_compatible(h, 0.05, henon_pairs, henon, d=1, seed=1)
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
        K = PairSet(xs, ys, delta=0.5, tags=("C2", "C2"))
        f = perturb_to_compatible(dr.Constant(0.5), 0.08, K, rot, d=2, seed=2)
        assert compatibility_margin(f, rot, K, 5).margin > MARGIN_TOL

    def test_coincident_pair_members_rejected(self, henon):
        x = np.array([[0.1, 0.1]])
        K = PairSet(x, x + 1e-12, delta=1e-13, tags=("C1",))
        with pytest.raises(PerturbationError):
            perturb_to_compatible(dr.Constant(0.5), 0.05, K, henon, d=1)

    def test_dense_period_class_fails_cover_bound(self):
        ident = dr.CircleRotation(0.0)
        K = PairSet(np.array([[0.2], [0.4]]), np.array([[0.8], [0.95]]),
                    delta=0.3, tags=("C2", "C2"))
        dense = np.linspace(0.01, 0.99, 300)[:, None]
        with pytest.raises(PerturbationError, match="n=1"):
            perturb_to_compatible(dr.Constant(0.5), 0.05, K, ident, d=1,
                                  seed=0, class_samples={1: dense})

    def test_shared_orbit_points_rejected(self, henon):
        x = np.array([0.1, 0.1])
        y = henon.step(x)  # y's orbit is x's orbit shifted by one
        K = PairSet(x[None, :], y[None, :], delta=0.1, tags=("C1",))
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

    # (m, tol, base, whether the fraction lies strictly between 0 and 1)
    @pytest.mark.parametrize("m, tol, base, between", [
        (3, MARGIN_TOL, None, False),
        (3, 1e-2, None, True),
        (1, 1e-3, dr.Coordinate(0, -1.5, 1.5), True),
        (2, 2e-2, dr.TrigPolynomial(((1.0, 2, 1, 0.4),), 0.3), True),
    ])
    def test_matches_margin_loop(self, henon, henon_pairs, m, tol, base, between):
        """The fraction from one pair orbit equals a loop of
        `compatibility_margin` over the same bump draws."""
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(60):
            bump = random_trig_bump(rng, henon.ambient_dim, 0.1)
            g = dr.SumObservable(base=base or dr.Constant(0.5), bump=bump, offset=0.5)
            hits += compatibility_margin(g, henon, henon_pairs, m).margin > tol
        frac = genericity_monte_carlo(henon, henon_pairs, m, 60, 0.1, seed=3,
                                      base=base, tol=tol)
        assert frac == hits / 60
        assert (0.0 < frac < 1.0) == between
