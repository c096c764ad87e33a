"""Output checks for the benchmark workloads.

Each ``check_*`` function takes a workload config and the ``--out``
directory the CLI wrote, and returns a list of problems; an empty list means
the artifacts are correct.  The checks recompute what they can with the
package's public functions or with independent NumPy code, and compare
against oracles derived here, never against fixed digests of earlier runs:
artifacts may legitimately gain fields.

The caller puts the checkout's ``src`` on ``sys.path`` before importing this
module.  As a script it runs one check and prints the problems as JSON:

    python3 bench/checks.py CHECK_NAME CONFIG_JSON OUT_DIR
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from delayrecon import core, genericity, systems

# dimension-lorenz reference, measured on the unoptimised package for the
# workload's fixed Lorenz input (the workload seed does not change it).
DIMENSION_COVERING = 3
DIMENSION_BOX = 1.768548274631923
# Moving x0 by 1e-12 to 1e-6 moves the chaotic orbit, and the box estimate by
# up to 0.05; a change that only reorders RK4 arithmetic does the same.
DIMENSION_BOX_TOL = 0.1

# Largest period whose cat-map count must match the oracle exactly.  At
# period 6 the 400 grid seeds find only part of the 480 points.
CATMAP_EXACT_UP_TO = 5


def catmap_period_counts(n_max: int) -> list[int]:
    """Number of cat-map points of minimal period <= n, for n = 1..n_max.

    A^p x = x (mod 1) has |det(A^p - I)| solutions on the torus for the cat
    map matrix A = [[1, 1], [1, 2]]; Moebius inversion over the divisors of p
    turns those into minimal-period counts.
    """
    a, b, c, d = 1, 1, 1, 2  # A^p, exact integers
    fixed = []
    for _ in range(n_max):
        fixed.append(abs((a - 1) * (d - 1) - b * c))
        a, b, c, d = a + c, b + d, a + 2 * c, b + 2 * d
    exact: list[int] = []
    for p in range(1, n_max + 1):
        exact.append(fixed[p - 1] - sum(exact[q - 1] for q in range(1, p)
                                        if p % q == 0))
    cumulative, total = [], 0
    for count in exact:
        total += count
        cumulative.append(total)
    return cumulative


def _trajectory(config: dict) -> np.ndarray:
    sys_ = systems.system_from_dict(config["system"])
    tr = config["trajectory"]
    transient = int(tr.get("transient", 0))
    states = systems.iterate(sys_, np.asarray(tr["x0"], dtype=float),
                             int(tr["n"]) + transient).states
    return states[transient:]


def _pairs(config: dict, states: np.ndarray) -> genericity.PairSet:
    """The pair set the CLI samples for this config (same defaults)."""
    pc = config["pairs"]
    return genericity.sample_pairs(
        states, float(pc["delta"]), int(pc["count"]),
        sys=systems.system_from_dict(config["system"]),
        seed=int(pc.get("seed", config["seed"])),
        min_index_gap=int(pc.get("min_index_gap", 2 * int(config["d"]) + 1)))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_perturb(config: dict, out: Path) -> list[str]:
    """All pairs realised, recomputed margin above MARGIN_TOL, and the
    perturbation within epsilon of the base observable on the orbit."""
    problems = []
    eps = float(config["epsilon"])
    pc = config["pairs"]
    report = _read_json(out / "perturb_report.json")
    if report.get("ok") is not True:
        problems.append("perturb_report.json: ok is not true")
    if not report.get("margin", 0.0) > genericity.MARGIN_TOL:
        problems.append(f"perturb_report.json: margin {report.get('margin')} "
                        f"<= {genericity.MARGIN_TOL}")
    if not report.get("sup_distance", math.inf) < eps:
        problems.append(f"perturb_report.json: sup_distance "
                        f"{report.get('sup_distance')} >= {eps}")
    pairs = genericity.PairSet.read_csv(out / "pairs.csv", float(pc["delta"]))
    if len(pairs) != int(pc["count"]):
        problems.append(f"pairs.csv: {len(pairs)} of {pc['count']} pairs realised")
    f = core.observable_from_dict(_read_json(out / "perturbed_observable.json"))
    h = core.observable_from_dict(config["observable"])
    sys_ = systems.system_from_dict(config["system"])
    margin = genericity.compatibility_margin(
        f, sys_, pairs, 2 * int(config["d"]) + 1).margin
    if not margin > genericity.MARGIN_TOL:
        problems.append(f"recomputed margin {margin} <= {genericity.MARGIN_TOL}")
    # Chunked so the dense anchor evaluation stays small.
    states = _trajectory(config)
    dist = max(core.sup_distance(f, h, chunk)
               for chunk in np.array_split(states, max(1, len(states) // 1000)))
    if not dist < eps:
        problems.append(f"recomputed sup-distance {dist} >= {eps}")
    return problems


def reference_fraction(config: dict) -> float:
    """Compatible fraction of the genericity run, recomputed without the
    package's observable, delay or margin code.

    The bumps are drawn with the package's ``random_trig_bump`` from the
    run's seed, so they are the same bumps; their values along the pair
    orbits and the margins are evaluated here in NumPy.
    """
    sys_ = systems.system_from_dict(config["system"])
    base = core.observable_from_dict(config["observable"])
    m = 2 * int(config["d"]) + 1
    pairs = _pairs(config, _trajectory(config))
    # Orbit points: (2, count, m, k) for the x and y members.
    orbits = np.empty((2, len(pairs), m, sys_.ambient_dim))
    for side, start in enumerate((pairs.xs, pairs.ys)):
        cur = start
        for k in range(m):
            orbits[side, :, k] = cur
            cur = sys_.step_many(cur, check=False)
    flat = orbits.reshape(-1, sys_.ambient_dim)
    base_vals = base.evaluate(flat)

    rng = np.random.default_rng(int(config["seed"]))
    trials = int(config["trials"])
    bumps = [genericity.random_trig_bump(rng, sys_.ambient_dim,
                                         float(config["bump_scale"]))
             for _ in range(trials)]
    hits = 0
    for lo in range(0, trials, 100):
        chunk = bumps[lo:lo + 100]
        coef = np.array([[t[0] for t in b.terms] for b in chunk])
        freq = np.array([[t[1] for t in b.terms] for b in chunk])
        axis = np.array([[int(t[2]) for t in b.terms] for b in chunk])
        phase = np.array([[t[3] for t in b.terms] for b in chunk])
        amp = np.array([b.amplitude for b in chunk])
        coords = flat.T[axis]  # (trials, terms, points)
        raw = (coef[:, :, None] * np.cos(2.0 * math.pi * freq[:, :, None] * coords
                                         + phase[:, :, None])).sum(axis=1)
        bump = 0.5 + amp[:, None] * raw / np.abs(coef).sum(axis=1)[:, None]
        vals = np.clip(base_vals + bump - 0.5, 0.0, 1.0)
        vals = vals.reshape(len(chunk), 2, len(pairs), m)
        margin = np.abs(vals[:, 0] - vals[:, 1]).max(axis=2).min(axis=1)
        hits += int(np.count_nonzero(margin > genericity.MARGIN_TOL))
    return hits / trials


def check_genericity(config: dict, out: Path) -> list[str]:
    """Reported fraction within one trial of the NumPy reference."""
    result = _read_json(out / "genericity.json")
    trials = int(config["trials"])
    if result.get("trials") != trials:
        return [f"genericity.json: trials {result.get('trials')} != {trials}"]
    ref = reference_fraction(config)
    fraction = result.get("fraction")
    if not isinstance(fraction, (int, float)) or abs(fraction - ref) > 1.0 / trials:
        return [f"genericity.json: fraction {fraction} is not within one trial "
                f"of the reference {ref}"]
    return []


def check_hypothesis(config: dict, out: Path) -> list[str]:
    """Per-period counts against the |det(A^p - I)| oracle, and every
    period class within its dimension bound."""
    problems = []
    report = _read_json(out / "hypothesis.json")
    n_max = 2 * int(config["d"])
    oracle = catmap_period_counts(n_max)
    per_n = report.get("per_n", [])
    if [e.get("n") for e in per_n] != list(range(1, n_max + 1)):
        return [f"hypothesis.json: periods {[e.get('n') for e in per_n]} "
                f"are not 1..{n_max}"]
    for entry, expected in zip(per_n, oracle):
        n, count = entry["n"], entry.get("detected_count")
        if n <= CATMAP_EXACT_UP_TO and count != expected:
            problems.append(f"n={n}: detected {count} points, oracle {expected}")
        elif n > CATMAP_EXACT_UP_TO and not 0 <= count <= expected:
            problems.append(f"n={n}: detected {count} points, oracle bound {expected}")
        if entry.get("ok") is not True or not entry.get("detected_dim", n) < n / 2:
            problems.append(f"n={n}: dimension bound not met")
    if report.get("ok") is not True:
        problems.append("hypothesis.json: ok is not true")
    return problems


def check_dimension(config: dict, out: Path) -> list[str]:
    """Covering value equal to the reference, box value within tolerance."""
    problems = []
    result = _read_json(out / "dimension.json")
    covering = result["covering"].get("value")
    box = result["box"].get("value")
    if covering != DIMENSION_COVERING:
        problems.append(f"covering value {covering} != {DIMENSION_COVERING}")
    if not isinstance(box, (int, float)) or abs(box - DIMENSION_BOX) > DIMENSION_BOX_TOL:
        problems.append(f"box value {box} not within {DIMENSION_BOX_TOL} "
                        f"of {DIMENSION_BOX}")
    return problems


def run_check(check, config: dict, out: Path) -> list[str]:
    """Run one check; a missing or malformed artifact is a problem, not a crash."""
    try:
        return check(config, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    name, config_path, out_dir = sys.argv[1:]
    config = json.loads(Path(config_path).read_text())
    print(json.dumps(run_check(globals()[name], config, Path(out_dir))))
