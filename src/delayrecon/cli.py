"""Batch experiment runner: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 when a checked mathematical precondition fails
(e.g. the periodic-set dimension check), 1 on operational errors.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import core, delay, genericity, systems, topology
from .systems import ConfigError, convert

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


def _field(config: dict, key: str, default=None):
    """Value at the dotted path ``key`` (``"d"``, ``"trajectory.n"``); a
    missing field takes ``default``, or is an error when there is none."""
    *outer, leaf = key.split(".")
    for depth, part in enumerate(outer):
        config = _field(config, part)
        if not isinstance(config, dict):
            name = ".".join(outer[:depth + 1])
            raise ConfigError(f"config field {name!r} must be an object, got {config!r}")
    if leaf not in config and default is None:
        raise ConfigError(f"config field {key!r} is missing")
    return config.get(leaf, default)


# Lower bounds of numeric config fields, as (bound, strict): a value below
# the bound, at it when strict, or NaN is an error naming the field.
_LOWER = {"seed": (0, False), "d": (0, False), "m": (1, False),
          "epsilon": (0, True), "n_seeds": (1, False), "trials": (1, False),
          "bump_scale": (0, False), "tol": (0, True), "trajectory.n": (1, False),
          "trajectory.transient": (0, False), "pairs.delta": (0, True),
          "pairs.count": (1, False), "pairs.seed": (0, False),
          "pairs.min_index_gap": (0, False)}


# Caps of the counts that a run's work grows with, each timed with the other
# fields at their defaults or at the bench's values (2-vCPU x86 VM).
# `hypothesis` at d = 20 takes 4.0-4.4 s on the cat map from 400 seeds; its
# work grows as d**2, and on a flow with its substeps (see
# `MAX_FLOW_HYPOTHESIS_WORK`).
MAX_D = 20
# `margin` at 5000 pairs takes 0.9 s (whole CLI run) on 10**4 Henon states,
# where the index gap of d = 1 leaves about 990 pairs and all 200 draws per
# pair are made; nearly every draw fails an index test before any distance.
MAX_PAIRS = 5000
# `genericity` at 10**5 trials takes 12.6 s on the bench's 500 Henon pairs.
MAX_TRIALS = 10**5
# Upper bounds of integer config fields: a value above one is an error
# naming the field.  A delay count is that of `MAX_D`.
_UPPER = {"d": MAX_D, "m": 2 * MAX_D + 1, "pairs.count": MAX_PAIRS, "trials": MAX_TRIALS}
# Budgets of the products of counts that grow a run's work together, where
# the caps above bound each count alone, timed at the budget on the built-in
# systems like the caps.
# `hypothesis` runs Newton from each seed of its grid at every period p <= 2d,
# through p map steps, so its work grows as seeds x d**2.  At the budget, the
# 400 seeds at d = 20 timed for `MAX_D`, a map takes at most 14.5 s (the cat
# map, 6400 seeds at d = 5).
MAX_HYPOTHESIS_WORK = 400 * MAX_D ** 2
# A flow's step is `substeps` RK4 substeps, and a substep on a batch costs
# its 30-100 NumPy calls, about the arithmetic of `FLOW_CALL_ROWS` rows, on
# top of its rows: Lorenz `hypothesis` at d = 5 and 20 substeps took 1.9 s
# from 8 seeds, 3.2 s from 512 and 7.3 s from 4096 (in-process).  So a
# flow's work counts seeds + `FLOW_CALL_ROWS` rows times its substeps.  A
# map counts one substep, and no map within `MAX_HYPOTHESIS_WORK` reaches
# the flow budget of `hypothesis`.
FLOW_CALL_ROWS = 1024
# At this budget, Lorenz `hypothesis` from 8 seeds takes 14.8 s at d = 2 (372
# substeps), 13.6 s at d = 1 and 10.3 s at d = 5; 14.2 s from 27 seeds and
# 10.5 s from 1000 at d = 5.  The harmonic flow's Newton converges at once
# (under 1 s), and Lorenz at dt 0.5 and d = 20, which took 54 s, is over it.
MAX_FLOW_HYPOTHESIS_WORK = FLOW_CALL_ROWS * 1500
# `yorke` scans 2d steps of every seed for returns: (seeds + FLOW_CALL_ROWS)
# x 2d x substeps.  At this budget, Lorenz takes 11.0 s at d = 20 from 8 seeds
# (4961 substeps), 8.6 s from 1000 seeds and 9.2 s at d = 1 from 64000; the
# harmonic flow at most 4.8 s.
MAX_YORKE_WORK = FLOW_CALL_ROWS * 2 * 10**5
# `genericity` evaluates each trial's bump on the 2 x pairs x m orbit states,
# so its work grows as pairs.count x m x trials.  At the budget, the bench's
# 500 pairs at m = 3 with `MAX_TRIALS`, the slowest run takes 14.6 s (a
# 6-digit odometer; Henon 11.8 s, Lorenz 13.9 s); 5000 pairs take 7.1 s at
# m = 3 and at most 3.5 s at m = 41.
MAX_GENERICITY_WORK = 500 * 3 * MAX_TRIALS


def _number(config: dict, key: str, kind, default=None):
    """Value at the dotted path ``key`` converted to ``kind`` (int, float,
    bool, or ``tuple[float, ...]``, whose elements are named ``key.i`` in
    errors) and checked against its bounds in `_LOWER` and `_UPPER`; a
    missing field takes ``default``, or is an error when there is none."""
    value = convert(_field(config, key, default), kind, key)
    if key in _LOWER:
        low, strict = _LOWER[key]
        if not (value > low if strict else value >= low):
            raise ConfigError(f"config field {key!r} must be "
                              f"{'>' if strict else '>='} {low}, got {value}")
    if key in _UPPER and value > _UPPER[key]:
        raise ConfigError(f"config field {key!r} must be <= {_UPPER[key]}, got {value}")
    return value


def _budget(fields: str, product: str, work: int, name: str, budget: int) -> None:
    """Exit naming ``fields`` when the ``product`` of counts they ask for,
    ``work``, is above the budget constant ``name``."""
    if work > budget:
        raise ConfigError(f"config fields {fields} ask for {product} = {work}, "
                          f"above {name} = {budget}")


def _named(key: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with a `ValueError` it raises named as an
    error of the config field ``key``, in the form of `Registered.from_dict`."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config field {key!r} invalid: {exc}") from None


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {config!r}")
    return config


def _observable(config: dict, sys_: systems.System) -> core.Observable:
    h = convert(_field(config, "observable"), core.Observable, "observable")
    # An empty batch checks that the system has every axis the observable reads.
    _named("observable", h.evaluate, np.empty((0, sys_.ambient_dim)))
    return h


def _delay_count(config: dict) -> int:
    d = _number(config, "d", int)
    if config.get("m") is None:
        return delay.delay_count_for(d)
    return _number(config, "m", int)


def _seed(config: dict, override) -> int:
    if override is not None:
        if override < 0:
            raise ConfigError(f"option '--seed' must be >= 0, got {override}")
        return override
    if "seed" not in config:
        raise ConfigError("config field 'seed' is missing (all runs are seeded)")
    return _number(config, "seed", int)


# States one run may iterate, trajectory.n + transient.  `simulate` of 10**6
# states takes 5.5 s and 49 MB peak RSS on the Henon map and 21 s and 58 MB
# on Lorenz (dt 0.02) (2-vCPU x86 VM): room for the 4e4-state covering runs,
# while a typo such as 10**12 would take months or terabytes.
MAX_STATES = 10**6
# States times RK4 substeps one run may iterate; a map's state counts one, so
# only flows reach it.  At the budget, `simulate` of 10**6 Lorenz states at 5
# substeps takes 10.2-12.2 s (harmonic 6.7 s), and of 50 states at 10**5
# substeps 5.2-6.4 s, where 10**6 such states would take 40-55 hours.
MAX_TRAJECTORY_SUBSTEPS = 5 * MAX_STATES
_FLOW_STEP = "'system.dt' and 'system.substep'"


def _trajectory(config: dict, sys_: systems.System, need=1, name="1") -> systems.Trajectory:
    """The run's trajectory; a ``trajectory.n`` below ``need``, the value of
    the bound written ``name``, is an error."""
    x0 = np.asarray(_number(config, "trajectory.x0", tuple[float, ...]))
    n = _number(config, "trajectory.n", int)
    if n < need:
        raise ConfigError(f"config field 'trajectory.n' must be >= {name} = {need}, got {n}")
    transient = _number(config, "trajectory.transient", int, 0)
    if n + transient > MAX_STATES:
        raise ConfigError(f"config fields 'trajectory.n' + 'trajectory.transient' "
                          f"exceed MAX_STATES = {MAX_STATES}")
    _budget(f"'trajectory.n' + 'trajectory.transient', {_FLOW_STEP}", "states x RK4 substeps",
            (n + transient) * sys_.substeps, "MAX_TRAJECTORY_SUBSTEPS", MAX_TRAJECTORY_SUBSTEPS)
    _named("trajectory.x0", sys_.check_domain, x0[None, :])
    traj = systems.iterate(sys_, x0, n + transient)
    return systems.Trajectory(traj.states[transient:], traj.system_id)


def write_states_csv(path, states: np.ndarray) -> None:
    delay.write_csv(path, [f"s{j}" for j in range(states.shape[1])], states)


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _pairs(config: dict, sys_: systems.System,
           seed: int) -> tuple[systems.Trajectory, genericity.PairSet]:
    """The run's trajectory and the pairs sampled from it; every pairs field
    is read before the trajectory is computed."""
    delta = _number(config, "pairs.delta", float)
    count = _number(config, "pairs.count", int)
    pair_seed = _number(config, "pairs.seed", int, seed)
    default_gap = 2 * _number(config, "d", int) + 1 if "d" in config else 0
    gap = _number(config, "pairs.min_index_gap", int, default_gap)
    traj = _trajectory(config, sys_, gap + 2, "'pairs.min_index_gap' + 2")
    return traj, _named("pairs.delta", genericity.sample_pairs, traj.states, delta, count,
                        sys=sys_, seed=pair_seed, min_index_gap=gap)


def _pair_accounting(config: dict, K: genericity.PairSet) -> dict:
    """Requested and realised pair counts, for the reports that use pairs."""
    return {"pairs_requested": _number(config, "pairs.count", int),
            "pairs_realised": len(K), "pairs_complete": K.complete}


# --- subcommands ----------------------------------------------------------
# Each takes the run's config, system, out directory and seed, and returns
# its exit code and the summary `main` prints.

def cmd_simulate(config, sys_, out: Path, seed, import_path) -> tuple[int, str]:
    if import_path is not None:
        try:
            states = delay.read_delay_csv(import_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot import trajectory CSV: {exc}")
        sys_.check_domain(states)  # NaN and infinities lie in no box
    else:
        states = _trajectory(config, sys_).states
    write_states_csv(out / "trajectory.csv", states)
    return EXIT_OK, f"simulate: wrote {len(states)} states of {sys_.system_id}"


def cmd_embed(config, sys_, out: Path, seed) -> tuple[int, str]:
    h = _observable(config, sys_)
    m = _delay_count(config)
    traj = _trajectory(config, sys_, m, "m")
    mat = delay.delay_matrix(h, traj, m)
    delay.write_delay_csv(out / "delays.csv", mat)
    return EXIT_OK, f"embed: wrote {mat.shape[0]} delay vectors with m={m}"


def cmd_margin(config, sys_, out: Path, seed) -> tuple[int, str]:
    h = _observable(config, sys_)
    m = _delay_count(config)
    _, K = _pairs(config, sys_, seed)
    K.write_csv(out / "pairs.csv")
    report = genericity.compatibility_margin(h, sys_, K, m)
    write_json(out / "margin.json", report.to_dict() | _pair_accounting(config, K))
    return EXIT_OK, f"margin: {report.margin:.6g} over {len(K)} pairs (m={m})"


def cmd_perturb(config, sys_, out: Path, seed) -> tuple[int, str]:
    h = _observable(config, sys_)
    d = _number(config, "d", int)
    eps = _number(config, "epsilon", float)
    traj, K = _pairs(config, sys_, seed)
    K.write_csv(out / "pairs.csv")
    try:
        f, report = genericity.perturb_to_compatible(h, eps, K, sys_, d, seed=seed)
    except genericity.PerturbationError as exc:
        write_json(out / "perturb_report.json", {"ok": False, "reason": str(exc),
                                                 **_pair_accounting(config, K)})
        return EXIT_HYPOTHESIS, f"perturb: failed: {exc}"
    dist = core.sup_distance(f, h, traj.states)
    f_dict = f.to_dict()
    write_json(out / "perturbed_observable.json", f_dict)
    write_json(out / "perturb_report.json", {
        "ok": True, "margin": report.margin, "sup_distance": dist,
        "sup_distance_bound": f.bump.max_deviation(),
        "epsilon": eps, "m": report.m, **_pair_accounting(config, K),
    })
    write_json(out / "config_out.json", config | {"observable": f_dict})
    return EXIT_OK, f"perturb: margin {report.margin:.6g}, sup-distance {dist:.6g}"


def cmd_dimension(config, sys_, out: Path, seed) -> tuple[int, str]:
    traj = _trajectory(config, sys_)
    scales = _number(config, "scales", tuple[float, ...])
    box = _named("scales", topology.box_counting, traj.states, scales)
    cov_scales = _number(config, "covering_scales", tuple[float, ...], scales[:2])
    cov = _named("covering_scales", topology.covering_dimension_estimate, traj.states,
                 cov_scales)
    write_json(out / "dimension.json", {"box": asdict(box), "covering": asdict(cov)})
    return EXIT_OK, f"dimension: box {box.value:.3f}, covering {cov.value}"


def cmd_hypothesis(config, sys_, out: Path, seed) -> tuple[int, str]:
    d = _number(config, "d", int)
    n_seeds = _number(config, "n_seeds", int, 400)
    tol = _number(config, "tol", float, 1e-9)
    seeds = _named("n_seeds", topology.seed_grid_side, sys_, n_seeds) ** sys_.ambient_dim
    _budget("'n_seeds' and 'd'", f"{seeds} seeds x d**2", seeds * d ** 2,
            "MAX_HYPOTHESIS_WORK", MAX_HYPOTHESIS_WORK)
    _budget(f"'n_seeds', 'd', {_FLOW_STEP}",
            f"({seeds} seeds + FLOW_CALL_ROWS) x d**2 x RK4 substeps",
            (seeds + FLOW_CALL_ROWS) * d ** 2 * sys_.substeps,
            "MAX_FLOW_HYPOTHESIS_WORK", MAX_FLOW_HYPOTHESIS_WORK)
    report = topology.hypothesis_check(sys_, d, n_seeds=n_seeds, tol=tol)
    write_json(out / "hypothesis.json", asdict(report))
    return (EXIT_OK if report.ok else EXIT_HYPOTHESIS, "\n".join(
        f"hypothesis n={e['n']}: dim {e['detected_dim']} vs bound {e['bound']} "
        f"[{'ok' if e['ok'] else 'FAIL'}]" for e in report.per_n))


def cmd_yorke(config, sys_, out: Path, seed) -> tuple[int, str]:
    if not isinstance(sys_, systems.SampledFlow):
        raise ConfigError("config field 'system' must be a sampled flow for yorke")
    d = _number(config, "d", int)
    _named("d", systems.yorke_threshold, sys_.lipschitz_L, d)
    n_seeds = _number(config, "n_seeds", int, 1000)
    seeds = _named("n_seeds", topology.seed_grid_side, sys_, n_seeds) ** sys_.ambient_dim
    _budget(f"'n_seeds', 'd', {_FLOW_STEP}",
            f"({seeds} seeds + FLOW_CALL_ROWS) x 2d x RK4 substeps",
            (seeds + FLOW_CALL_ROWS) * 2 * d * sys_.substeps, "MAX_YORKE_WORK", MAX_YORKE_WORK)
    tol = _number(config, "tol", float, 1e-6)
    grid = topology.grid_seeds(sys_, n_seeds)
    cert = systems.yorke_certificate(sys_, d, equilibrium_seeds=grid)
    hits = systems.periodic_return_scan(sys_, 2 * d, tol, grid)
    cert["scan_hits"] = [[list(map(float, x)), int(p)] for x, p in hits]
    write_json(out / "yorke.json", cert)
    return (EXIT_OK if cert["certified"] and not hits else EXIT_HYPOTHESIS,
            f"yorke: threshold {cert['threshold']:.6g}, step {cert['step']}, "
            f"certified={cert['certified']}, scan hits {len(hits)}")


def cmd_genericity(config, sys_, out: Path, seed) -> tuple[int, str]:
    h = _observable(config, sys_)
    m = _delay_count(config)
    trials = _number(config, "trials", int)
    work = _number(config, "pairs.count", int) * m * trials
    _budget("'pairs.count', 'm' and 'trials'", "pairs x m x trials", work,
            "MAX_GENERICITY_WORK", MAX_GENERICITY_WORK)
    bump_scale = _number(config, "bump_scale", float)
    _, K = _pairs(config, sys_, seed)
    frac = genericity.genericity_monte_carlo(sys_, K, m, trials, bump_scale,
                                             seed=seed, base=h)
    write_json(out / "genericity.json", {
        "fraction": frac, "trials": trials, "bump_scale": bump_scale, "m": m,
        **_pair_accounting(config, K),
    })
    return EXIT_OK, f"genericity: compatible fraction {frac:.3f} over {trials} trials"


COMMANDS = {
    "simulate": cmd_simulate,
    "embed": cmd_embed,
    "margin": cmd_margin,
    "perturb": cmd_perturb,
    "dimension": cmd_dimension,
    "hypothesis": cmd_hypothesis,
    "yorke": cmd_yorke,
    "genericity": cmd_genericity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayrecon",
        description="Delay-coordinate reconstruction experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--quiet", action="store_true")
        if name == "simulate":
            sp.add_argument("--import", dest="import_path", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed = _seed(config, args.seed)
        sys_ = convert(_field(config, "system"), systems.System, "system")
        extra = [args.import_path] if args.command == "simulate" else []
        code, summary = COMMANDS[args.command](config, sys_, out, seed, *extra)
    except ValueError as exc:  # ConfigError and DomainError among them
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    if summary and not args.quiet:
        print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
