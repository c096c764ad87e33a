"""Acceptance suite: the nine quantitative gates the package must clear.

Each test prints a single PASS line with the measured quantity so a plain
`pytest -v -s tests/test_acceptance.py` doubles as a report.
"""

import json
import math
import time

import numpy as np

import delayrecon as dr
from delayrecon import cli
from delayrecon.delay import delay_matrix, delay_vectors
from delayrecon.genericity import (
    MARGIN_TOL,
    PairSet,
    compatibility_margin,
    genericity_monte_carlo,
    perturb_to_compatible,
    random_trig_bump,
    sample_pairs,
)
from delayrecon.systems import (
    periodic_return_scan,
    yorke_threshold,
)
from delayrecon.topology import (
    box_counting,
    covering_dimension_estimate,
    grid_seeds,
    hypothesis_check,
)

from conftest import cantor_cube, cantor_left_endpoints


def test_criterion_1_delay_map_exactness(henon):
    """delay_matrix equals per-point delay vectors bitwise on 10^4 states;
    the Hankel shift structure is exact; total runtime < 5 s."""
    t0 = time.monotonic()
    n = 10_000
    traj = dr.iterate(henon, np.array([0.1, 0.1]), n + 10)
    h = dr.Coordinate(0, -1.5, 1.5)
    for m in (1, 3, 5):
        mat = delay_matrix(h, traj, m)
        per_point = delay_vectors(h, henon, traj.states[: n + 10 - m + 1], m)
        assert np.array_equal(mat, per_point)
        if m > 1:
            assert np.array_equal(mat[1:, :-1], mat[:-1, 1:])
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"[criterion 1] PASS: exact agreement on {n} states, "
          f"m in (1,3,5), {elapsed:.2f}s")


def test_criterion_2_margin_openness(henon, henon_samples):
    """A positive margin mu survives any perturbation of sup-norm <= mu/4
    with at least mu/2 to spare: zero violations over 20 observables x 100
    bumps."""
    violations = 0
    checked = 0
    for obs_seed in range(20):
        rng = np.random.default_rng(1000 + obs_seed)
        h = random_trig_bump(rng, 2, bump_scale=0.45)
        K = sample_pairs(henon_samples, delta=1e-2, count=200, sys=henon,
                         seed=obs_seed)
        mu = compatibility_margin(h, henon, K, 3).margin
        assert mu > 0.0
        for b in range(100):
            brng = np.random.default_rng(5000 + obs_seed * 100 + b)
            bump = random_trig_bump(brng, 2, bump_scale=mu / 4.0)
            g = dr.SumObservable(base=h, bump=bump, offset=0.5)
            checked += 1
            if compatibility_margin(g, henon, K, 3).margin < mu / 2.0:
                violations += 1
    assert violations == 0
    print(f"[criterion 2] PASS: 0/{checked} openness violations")


def test_criterion_3_perturbation_success_rate(henon, henon_samples):
    """From the constant observable, a perturbation within eps = 0.05
    restores a positive margin on 200 pairs at delta = 1e-2: 20/20 seeds,
    each under 10 s."""
    h = dr.Constant(0.5)
    successes = 0
    worst = 0.0
    for seed in range(20):
        K = sample_pairs(henon_samples, delta=1e-2, count=200, sys=henon,
                         seed=seed, min_index_gap=3)
        t0 = time.monotonic()
        f, _ = perturb_to_compatible(h, 0.05, K, henon, d=1, seed=seed)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        worst = max(worst, elapsed)
        assert compatibility_margin(f, henon, K, 3).margin > MARGIN_TOL
        assert dr.sup_distance(f, h, henon_samples) < 0.05
        successes += 1
    assert successes == 20
    print(f"[criterion 3] PASS: 20/20 seeds, max {worst:.2f}s per seed")


def test_criterion_4_dimension_economy():
    """One delay cannot separate mirror-image pairs of the circle under an
    even observable, three can; on the zero-dimensional odometer a single
    delay of a generic anchor observable already separates 1000 pairs."""
    rot = dr.CircleRotation(0.21)
    h_even = dr.TrigPolynomial(terms=((1.0, 1, 0, 0.0),), amplitude=0.5)
    xs = np.array([[0.05], [0.1], [0.2], [0.3]])
    K = PairSet(xs, 1.0 - xs, delta=0.4)
    m1 = compatibility_margin(h_even, rot, K, 1).margin
    m3 = compatibility_margin(h_even, rot, K, 3).margin
    assert m1 < 1e-12
    assert m3 > 1e-3

    odo = dr.Odometer(base=3, digits=6)
    digit_rows = np.array([[(v // 3 ** j) % 3 for j in range(6)]
                           for v in range(3 ** 6)])
    states = digit_rows / (odo.base - 1)
    K2 = sample_pairs(states, delta=0.4, count=1000, sys=odo, seed=11)
    assert len(K2) == 1000
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        anchors = rng.uniform(0.0, 1.0, size=(10, 6))
        h = dr.PiecewiseAnchor(points=tuple(map(tuple, anchors)),
                               values=tuple(rng.uniform(0.1, 0.9, size=10)),
                               radius=2.5, base=0.5)
        if compatibility_margin(h, odo, K2, 1).margin > 0.0:
            hits += 1
    assert hits >= 95
    print(f"[criterion 4] PASS: circle m=1 margin {m1:.1e} vs m=3 {m3:.3f}; "
          f"odometer separated in {hits}/100 seeds")


def test_criterion_5_covering_vs_box_dimension():
    """The Cantor-cube product has covering estimate 0 but box dimension
    ~1.89; the middle-thirds set has box dimension log2/log3 with exact
    occupancy counts; the unit square gets 2 under both estimators."""
    cube = cantor_cube(5)  # members of every construction level >= 5
    rng = np.random.default_rng(0)
    sub = cube[rng.choice(cube.shape[0], size=3000, replace=False)]
    cov = covering_dimension_estimate(sub, [1.0 / 3.0, 1.0 / 9.0])
    assert cov.value == 0
    box = box_counting(cube, [3.0 ** -j for j in range(1, 6)])
    assert abs(box.value - 1.89) < 0.15

    cantor = cantor_left_endpoints(8)[:, None]
    est1 = box_counting(cantor, [3.0 ** -j for j in range(1, 7)])
    assert est1.counts == [2, 4, 8, 16, 32, 64]
    assert abs(est1.value - 0.631) < 0.08

    g = np.linspace(0.0, 1.0, 100)
    square = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    assert covering_dimension_estimate(square, [0.4, 0.2]).value == 2
    g2 = np.linspace(0.0, 1.0, 200)
    square2 = np.stack(np.meshgrid(g2, g2), axis=-1).reshape(-1, 2)
    est2 = box_counting(square2, [2.0 ** -j for j in range(2, 8)])
    assert abs(est2.value - 2.0) < 0.1
    print(f"[criterion 5] PASS: cube covering 0 / box {box.value:.3f}; "
          f"cantor box {est1.value:.4f}; square covering 2 / box "
          f"{est2.value:.3f}")


def test_criterion_6_hypothesis_checker():
    """The torus automorphism passes the periodic-set smallness check with
    finite detected sets matching the matrix-determinant enumeration; the
    identity map fails with witness n = 1."""
    report = hypothesis_check(dr.CatMap(), 2, n_seeds=400)
    assert report.ok
    assert [e["detected_count"] for e in report.per_n] == [1, 5, 20, 60]

    bad = hypothesis_check(dr.CircleRotation(0.0), 1, n_seeds=200)
    assert not bad.ok
    witness = next(e for e in bad.per_n if not e["ok"])
    assert witness["n"] == 1
    print("[criterion 6] PASS: automorphism counts [1,5,20,60]; identity "
          "fails at n=1")


def test_criterion_7_yorke_bound():
    """Threshold formula is exact and a harmonic flow sampled at t = 3.0 <
    pi shows no return of order <= 2 over 1000 grid seeds."""
    assert yorke_threshold(1.0, 1) == math.pi / (1.0 * 1)
    flow = dr.SampledFlow("harmonic", dt=3.0)
    seeds = grid_seeds(flow, 1000)
    hits = periodic_return_scan(flow, 2, 1e-6, seeds)
    assert hits == []
    print(f"[criterion 7] PASS: threshold pi exact; 0 returns over "
          f"{seeds.shape[0]} seeds")


def test_criterion_8_genericity_monte_carlo():
    """Random bumps of size 0.1 almost always separate rotation pairs at
    m = 3; the unperturbed constant observable never does."""
    rot = dr.CircleRotation(0.3838)
    traj = dr.iterate(rot, np.array([0.123]), 500)
    K = sample_pairs(traj.states, delta=0.05, count=100, sys=rot, seed=1)
    frac = genericity_monte_carlo(rot, K, m=3, trials=200, bump_scale=0.1,
                                  seed=7)
    assert frac >= 0.95
    frac0 = genericity_monte_carlo(rot, K, m=3, trials=50, bump_scale=0.0,
                                   seed=7)
    assert frac0 == 0.0
    print(f"[criterion 8] PASS: fraction {frac:.3f} at bump 0.1, "
          f"{frac0:.1f} at bump 0")


def test_criterion_9_cli_determinism(tmp_path):
    """The same config and seed produce byte-identical artifacts."""
    config = {
        "seed": 7,
        "system": {"kind": "henon", "a": 1.4, "b": 0.3},
        "observable": {"variant": "constant", "value": 0.5},
        "d": 1,
        "epsilon": 0.05,
        "trajectory": {"x0": [0.1, 0.1], "n": 800, "transient": 100},
        "pairs": {"delta": 0.01, "count": 50},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["perturb", "--config", str(cfg), "--out", str(out),
                         "--quiet"])
        assert code == 0
        outs.append(out)
    names = ("pairs.csv", "perturbed_observable.json", "perturb_report.json",
             "config_out.json")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"[criterion 9] PASS: {len(names)} artifacts byte-identical "
          "across reruns")
