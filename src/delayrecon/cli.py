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
          "pairs.min_index_gap": (0, False), "pairs.period_tol": (0, True),
          "pairs.period_max": (1, False), "pairs.period_seeds": (1, False)}


# Caps of the counts that a run's work grows with, each timed with the other
# fields at their defaults or at the bench's values (2-vCPU x86 VM).
# `hypothesis` at d = 20 takes 11.3 s on the harmonic flow (dt 0.5), the
# slowest system, and 4.4 s on the cat map; its work grows as d**2.
MAX_D = 20
# `margin` at 5000 pairs takes 14 s on 10**4 Henon states, where the index
# gap of d = 1 leaves about 990 pairs and all 200 draws per pair are made.
MAX_PAIRS = 5000
# `genericity` at 10**5 trials takes 12.6 s on the bench's 500 Henon pairs.
MAX_TRIALS = 10**5
# Upper bounds of integer config fields: a value above one is an error
# naming the field.  A delay count and a period bound are those of `MAX_D`.
_UPPER = {"d": MAX_D, "m": 2 * MAX_D + 1, "pairs.period_max": 2 * MAX_D,
          "pairs.count": MAX_PAIRS, "trials": MAX_TRIALS}


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


def _system(config: dict) -> systems.System:
    return convert(_field(config, "system"), systems.System, "system")


def _observable(config: dict) -> core.Observable:
    return convert(_field(config, "observable"), core.Observable, "observable")


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


def _trajectory(config: dict, sys_: systems.System) -> systems.Trajectory:
    x0 = np.asarray(_number(config, "trajectory.x0", tuple[float, ...]))
    n = _number(config, "trajectory.n", int)
    transient = _number(config, "trajectory.transient", int, 0)
    if n + transient > MAX_STATES:
        raise ConfigError(f"config fields 'trajectory.n' + 'trajectory.transient' "
                          f"exceed MAX_STATES = {MAX_STATES}")
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
    detect = _number(config, "pairs.detect_periodic", bool, False)
    if detect:
        n_max = _number(config, "pairs.period_max", int, 4)
        tol = _number(config, "pairs.period_tol", float, 1e-9)
        seeds = topology.grid_seeds(sys_, _number(config, "pairs.period_seeds", int, 100))
    traj = _trajectory(config, sys_)
    periodic = systems.find_periodic(sys_, n_max=n_max, tol=tol, seeds=seeds) if detect else None
    return traj, genericity.sample_pairs(
        traj.states, delta, count, sys=sys_, periodic_points=periodic,
        seed=pair_seed, min_index_gap=gap)


def _pair_accounting(config: dict, K: genericity.PairSet) -> dict:
    """Requested and realised pair counts, for the reports that use pairs."""
    return {"pairs_requested": _number(config, "pairs.count", int),
            "pairs_realised": len(K), "pairs_complete": K.complete}


# --- subcommands ----------------------------------------------------------

def cmd_simulate(config, out: Path, seed, quiet, import_path=None) -> int:
    sys_ = _system(config)
    if import_path is not None:
        try:
            states = delay.read_delay_csv(import_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot import trajectory CSV: {exc}")
        sys_.check_domain(states)  # NaN and infinities lie in no box
        traj = systems.Trajectory(states=states, system_id=sys_.system_id)
    else:
        traj = _trajectory(config, sys_)
    write_states_csv(out / "trajectory.csv", traj.states)
    if not quiet:
        print(f"simulate: wrote {len(traj)} states of {traj.system_id}")
    return EXIT_OK


def cmd_embed(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    h = _observable(config)
    m = _delay_count(config)
    traj = _trajectory(config, sys_)
    mat = delay.delay_matrix(h, traj, m)
    delay.write_delay_csv(out / "delays.csv", mat)
    if not quiet:
        print(f"embed: wrote {mat.shape[0]} delay vectors with m={m}")
    return EXIT_OK


def cmd_margin(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    h = _observable(config)
    m = _delay_count(config)
    _, K = _pairs(config, sys_, seed)
    K.write_csv(out / "pairs.csv")
    report = genericity.compatibility_margin(h, sys_, K, m)
    write_json(out / "margin.json", report.to_dict() | _pair_accounting(config, K))
    if not quiet:
        print(f"margin: {report.margin:.6g} over {len(K)} pairs (m={m})")
    return EXIT_OK


def cmd_perturb(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    h = _observable(config)
    d = _number(config, "d", int)
    eps = _number(config, "epsilon", float)
    traj, K = _pairs(config, sys_, seed)
    K.write_csv(out / "pairs.csv")
    try:
        f, report = genericity.perturb_to_compatible(h, eps, K, sys_, d, seed=seed)
    except genericity.PerturbationError as exc:
        write_json(out / "perturb_report.json", {"ok": False, "reason": str(exc),
                                                 **_pair_accounting(config, K)})
        if not quiet:
            print(f"perturb: failed: {exc}")
        return EXIT_HYPOTHESIS
    dist = core.sup_distance(f, h, traj.states)
    write_json(out / "perturbed_observable.json", f.to_dict())
    write_json(out / "perturb_report.json", {
        "ok": True, "margin": report.margin, "sup_distance": dist,
        "sup_distance_bound": f.bump.max_deviation(),
        "epsilon": eps, "m": report.m, **_pair_accounting(config, K),
    })
    out_config = dict(config)
    out_config["observable"] = f.to_dict()
    write_json(out / "config_out.json", out_config)
    if not quiet:
        print(f"perturb: margin {report.margin:.6g}, sup-distance {dist:.6g}")
    return EXIT_OK


def cmd_dimension(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    traj = _trajectory(config, sys_)
    scales = _number(config, "scales", tuple[float, ...])
    box = topology.box_counting(traj.states, scales)
    cov_scales = _number(config, "covering_scales", tuple[float, ...], scales[:2])
    cov = topology.covering_dimension_estimate(traj.states, cov_scales)
    write_json(out / "dimension.json", {"box": asdict(box), "covering": asdict(cov)})
    if not quiet:
        print(f"dimension: box {box.value:.3f}, covering {cov.value}")
    return EXIT_OK


def cmd_hypothesis(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    d = _number(config, "d", int)
    report = topology.hypothesis_check(
        sys_, d, n_seeds=_number(config, "n_seeds", int, 400),
        tol=_number(config, "tol", float, 1e-9))
    write_json(out / "hypothesis.json", asdict(report))
    if not quiet:
        for entry in report.per_n:
            mark = "ok" if entry["ok"] else "FAIL"
            print(f"hypothesis n={entry['n']}: dim {entry['detected_dim']} "
                  f"vs bound {entry['bound']} [{mark}]")
    return EXIT_OK if report.ok else EXIT_HYPOTHESIS


def cmd_yorke(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    if not isinstance(sys_, systems.SampledFlow):
        raise ConfigError("config field 'system' must be a sampled flow for yorke")
    d = _number(config, "d", int)
    seeds = topology.grid_seeds(sys_, _number(config, "n_seeds", int, 1000))
    cert = systems.yorke_certificate(sys_, d, equilibrium_seeds=seeds)
    hits = systems.periodic_return_scan(sys_, 2 * d,
                                        _number(config, "tol", float, 1e-6), seeds)
    cert["scan_hits"] = [[list(map(float, x)), int(p)] for x, p in hits]
    write_json(out / "yorke.json", cert)
    if not quiet:
        print(f"yorke: threshold {cert['threshold']:.6g}, step {cert['step']}, "
              f"certified={cert['certified']}, scan hits {len(hits)}")
    return EXIT_OK if cert["certified"] and not hits else EXIT_HYPOTHESIS


def cmd_genericity(config, out: Path, seed, quiet) -> int:
    sys_ = _system(config)
    h = _observable(config)
    m = _delay_count(config)
    trials = _number(config, "trials", int)
    bump_scale = _number(config, "bump_scale", float)
    _, K = _pairs(config, sys_, seed)
    frac = genericity.genericity_monte_carlo(sys_, K, m, trials, bump_scale,
                                             seed=seed, base=h)
    write_json(out / "genericity.json", {
        "fraction": frac, "trials": trials, "bump_scale": bump_scale, "m": m,
        **_pair_accounting(config, K),
    })
    if not quiet:
        print(f"genericity: compatible fraction {frac:.3f} over {trials} trials")
    return EXIT_OK


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
        kwargs = {}
        if args.command == "simulate":
            kwargs["import_path"] = args.import_path
        return COMMANDS[args.command](config, out, seed, args.quiet, **kwargs)
    except ValueError as exc:  # ConfigError and DomainError among them
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
