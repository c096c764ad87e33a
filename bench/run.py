#!/usr/bin/env python3
"""delayrecon benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from its ``src``.

A run writes the workload's config, generated from the seed, into a
temporary directory under bench/out/ and invokes
``python -m delayrecon.cli <command> --config ... --out ...`` in a closed
loop (one client; the next invocation starts after the previous one exits)
for about S seconds.  Each child is reaped with ``os.wait4``, which gives its
own peak RSS and CPU time.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
the median invocation wall time, the median of several set-up subprocesses
(interpreter start, ``import delayrecon.cli``, ``load_config``), and the
median child peak RSS.  The record states the sample count of ``cli_s``;
no tail percentile is reported, because a run holds far fewer than the 100
samples a 90th percentile with ten samples beyond it would need.

With ``--trace 1`` it spends half of S on untraced invocations and half on
invocations through bench/traced.py, and reports the per-layer metrics from
the traced spans.

An invocation fails on a non-zero exit code, on artifacts that differ from
the first invocation of the run, or when the first invocation's artifacts
fail the workload's output check (bench/checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--all`` runs every workload in both modes and prints every metric once,
by name and unit.  A full record of each run goes to bench/out/, with the
spans of the first traced invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 7
INVOCATION_TIMEOUT_S = 120.0
# One process, no extra BLAS or OpenMP threads, in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

HENON = {"system": {"kind": "henon", "a": 1.4, "b": 0.3},
         "observable": {"variant": "constant", "value": 0.5}, "d": 1,
         "trajectory": {"x0": [0.1, 0.1], "n": 10_000, "transient": 100},
         "pairs": {"delta": 0.01, "count": 500}}


@dataclass(frozen=True)
class Workload:
    command: str
    check: str  # name of the output check in bench/checks.py
    seeded: bool  # whether the seed changes the computation, not just the config
    inputs: dict

    def config(self, seed: int) -> dict:
        return {"seed": seed, **self.inputs}


WORKLOADS = {
    "perturb-henon": Workload("perturb", "check_perturb", True,
                              HENON | {"epsilon": 0.05}),
    "genericity-henon": Workload("genericity", "check_genericity", True,
                                 HENON | {"trials": 1000, "bump_scale": 0.1}),
    "hypothesis-catmap": Workload("hypothesis", "check_hypothesis", False,
                                  {"system": {"kind": "catmap"}, "d": 3,
                                   "n_seeds": 400, "tol": 1e-9}),
    "dimension-lorenz": Workload(
        "dimension", "check_dimension", False,
        {"system": {"kind": "flow", "field": "lorenz", "dt": 0.02, "substep": 0.01},
         "trajectory": {"x0": [1.0, 1.0, 20.0], "n": 20_000, "transient": 500},
         "scales": [16.0, 8.0, 4.0, 2.0, 1.0, 0.5], "covering_scales": [16.0, 8.0]}),
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    digest: dict
    traced: bool
    problem: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(THREAD_ENV)
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, object]:
    """Run one child to exit; returns (wall seconds, exit code, its rusage)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def digest(out: Path) -> dict:
    """SHA-256 of every artifact in ``out`` (empty if it was never made)."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def closed_loop(workload: Workload, config_path: Path, work: Path, seconds: float,
                traced: bool, reference: dict) -> list[Invocation]:
    """Invoke the CLI back to back for about ``seconds``.

    An invocation starts only while the run is expected to end within
    ``seconds``; at least one always runs.  The first invocation of the run
    fills ``reference`` with its output directory and digest; every later
    one must write identical artifacts.
    """
    runs: list[Invocation] = []
    start = time.perf_counter()
    while True:
        tag = f"{'traced' if traced else 'plain'}-{len(runs)}"
        out = work / tag
        cli_args = [workload.command, "--config", str(config_path),
                    "--out", str(out), "--quiet"]
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"),
                    str(work / f"{tag}.spans.json")] + cli_args
        else:
            argv = [sys.executable, "-m", "delayrecon.cli"] + cli_args
        wall, code, usage = spawn(argv, work / f"{tag}.log")
        inv = Invocation(wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, code, digest(out), traced)
        if code != 0:
            tail = (work / f"{tag}.log").read_text(errors="replace").strip()[-300:]
            inv.problem = f"exit code {code}: {tail}"
        if not reference:
            reference.update(out=out, digest=inv.digest)
        else:
            if inv.digest != reference["digest"]:
                inv.problem = inv.problem or "artifacts differ from the first invocation"
            shutil.rmtree(out, ignore_errors=True)
        runs.append(inv)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
            return runs


def measure_setup(config_path: Path, work: Path) -> tuple[list[float], list[str]]:
    """Wall seconds of subprocesses that import the CLI and load the config."""
    code = ("import sys\nfrom delayrecon.cli import load_config\n"
            "load_config(sys.argv[1])\n")
    times, problems = [], []
    for i in range(SETUP_REPEATS):
        wall, rc, _ = spawn([sys.executable, "-c", code, str(config_path)],
                            work / f"setup-{i}.log")
        times.append(wall)
        if rc != 0:
            problems.append(f"set-up subprocess exit code {rc}")
    return times, problems


def self_times(spans: list) -> tuple[dict, dict]:
    """Per span name: summed self time (duration minus the children's
    durations; children of one span never overlap) and call count."""
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), covered in zip(spans, inner):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see bench/traced.py)."""
    spans, counts = trace["spans"], trace["counts"]
    self_s, calls = self_times(spans)
    metrics = dict(counts)
    for name in self_s:
        metrics[f"{name}.s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    rounds = 0
    for name, _, _, parent in spans:
        if name == "genericity.compatibility_margin":
            while parent >= 0 and spans[parent][0] != "genericity.perturb_to_compatible":
                parent = spans[parent][3]
            rounds += parent >= 0
    metrics["genericity.perturb_to_compatible.rounds"] = rounds

    def ratio(num: str, den: str) -> float:
        return metrics.get(num, 0) / metrics[den] if metrics.get(den) else 0.0

    metrics["systems.step_many.rows_per_call"] = ratio(
        "systems.step_many.rows", "systems.step_many.calls")
    metrics["systems.find_periodic.recall"] = ratio(
        "systems.find_periodic.found", "systems.find_periodic.oracle")
    metrics["genericity.sample_pairs.yield"] = ratio(
        "genericity.sample_pairs.realised", "genericity.sample_pairs.requested")
    metrics["core.anchor_bytes"] = 8 * metrics.get("core.anchor_pairs", 0)
    return metrics


def run_check(workload: Workload, config_path: Path, out: Path) -> list[str]:
    """The workload's output check, in a child: importing NumPy here would
    raise this process's peak RSS, which each CLI child inherits through
    exec, above the children's own."""
    proc = subprocess.run([sys.executable, str(BENCH / "checks.py"), workload.check,
                           str(config_path), str(out)], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"output check exit code {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
            "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record."""
    workload = WORKLOADS[name]
    config = workload.config(seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        work = Path(tmp)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        reference: dict = {}
        setup_times, problems = ([], []) if trace else measure_setup(config_path, work)
        if trace:
            plain = closed_loop(workload, config_path, work, seconds / 2, False,
                                reference)
            traced = closed_loop(workload, config_path, work, seconds / 2, True,
                                 reference)
        else:
            plain = closed_loop(workload, config_path, work, seconds, False, reference)
            traced = []
        check_problems = run_check(workload, config_path, reference["out"])
        invocations = plain + traced
        for inv in invocations:
            if check_problems and not inv.problem and inv.digest == reference["digest"]:
                inv.problem = "output check failed"
        spans = [work / f"traced-{i}.spans.json" for i, inv in enumerate(traced)
                 if inv.code == 0]
        layers = [layer_metrics(json.loads(path.read_text())) for path in spans]
        if spans:
            shutil.copy(spans[0], OUT / f"{name}-seed{seed}-spans.json")

    failed = sum(1 for inv in invocations if inv.problem)
    walls = [inv.wall_s for inv in plain]
    if trace:
        metrics = {m["name"]: statistics.median(layer.get(m["name"], 0) for layer in layers)
                   if layers else 0.0 for m in SPEC["per_layer"]}
        metrics["cli.cpu_s"] = statistics.median(inv.cpu_s for inv in plain)
        metrics["trace.overhead_s"] = (statistics.median(inv.wall_s for inv in traced)
                                       - statistics.median(walls))
        metrics["fail_frac"] = failed / len(invocations)
    else:
        metrics = {"cli_s": statistics.median(walls),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": statistics.median(inv.rss_mb for inv in plain)}
    problems += check_problems
    return {
        "workload": name, "why": next(w["why"] for w in SPEC["workloads"]
                                      if w["name"] == name),
        "seed": seed, "seed_changes_input": workload.seeded, "trace": int(trace),
        "seconds": seconds, "config": config,
        "environment": environment(),
        "loop": "closed, one client",
        "cli_s_samples": len(walls),
        "correct": failed == 0 and not problems,
        "attempted": len(invocations), "failed": failed,
        "problems": problems + sorted({inv.problem for inv in invocations
                                       if inv.problem}),
        "invocations": [vars(inv) for inv in invocations],
        "setup_samples_s": setup_times,
        # Each child's ru_maxrss is at least this process's peak at its exec.
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def save(record: dict) -> None:
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")


def print_run(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} invocations ({record['cli_s_samples']} untraced, "
          f"closed loop, one client), {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")


def print_table(records: dict) -> None:
    """Every metric of BENCHMARK.json once, with its unit, one column per
    workload; ``records`` maps (workload, trace) to run records."""
    names = list(WORKLOADS)
    print(f"\n{'metric':40} {'unit':9} " + " ".join(f"{n:>18}" for n in names))
    for group, trace in (("end_to_end", False), ("per_layer", True)):
        for m in SPEC[group]:
            values = " ".join(
                f"{records[n, trace]['metrics'][m['name']]['value']:>18.6g}"
                for n in names)
            print(f"{m['name']:40} {m['unit']:9} {values}")
    print("untraced invocations per workload: " + ", ".join(
        f"{n} {records[n, False]['cli_s_samples']}" for n in names))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes; every metric printed once by name and unit."""
    records = {}
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, seconds, trace)
            save(record)
            records[name, trace] = record
            print(f"{name} trace={int(trace)}: {record['attempted']} invocations, "
                  f"{record['failed']} failed, correct={record['correct']}",
                  flush=True)
    print_table(records)
    ok = all(r["correct"] for r in records.values())
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with and without tracing")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "delayrecon" / "cli.py").is_file():
        print(f"error: no delayrecon package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record)
    print_run(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
