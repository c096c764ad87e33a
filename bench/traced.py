"""Run one delayrecon CLI invocation in-process, with spans around the
package's public functions.

    python3 bench/traced.py SPANS_JSON <subcommand> --config CONFIG --out DIR

The package source is not modified.  Each traced function is replaced, at
every module namespace and class that binds it, by a wrapper that records a
span (name, start, end, parent) and the counters the benchmark reports.
Spans stay in memory and are written to SPANS_JSON when the CLI returns;
``layer_metrics`` in bench/run.py turns them into per-layer metrics.
Functions a later version of the package no longer has are skipped, so their
metrics read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import delayrecon  # noqa: E402
from delayrecon import cli, core, delay, genericity, systems, topology  # noqa: E402

from checks import catmap_period_counts  # noqa: E402

MODULES = {"delayrecon": delayrecon, "cli": cli, "core": core, "delay": delay,
           "genericity": genericity, "systems": systems, "topology": topology}


class Recorder:
    """In-memory spans and counters of one traced invocation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(recorder, args, kwargs, result)``
        runs after the span closes, so its cost is not in the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` with counters only; its time stays in the caller's span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result
        return wrapper


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim < 2 else arr.shape[0]


def patch_function(dotted: str, wrap) -> None:
    """Replace module function ``mod.name`` wherever a package module binds it."""
    mod, name = dotted.split(".")
    original = getattr(MODULES[mod], name, None)
    if original is None:
        return
    wrapped = wrap(original)
    for module in MODULES.values():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def patch_method(cls, name: str, wrap) -> None:
    """Wrap ``name`` on ``cls`` and on every subclass that overrides it."""
    todo = [cls]
    while todo:
        klass = todo.pop()
        todo.extend(klass.__subclasses__())
        if name in vars(klass):
            setattr(klass, name, wrap(vars(klass)[name]))


def _written(path_pos: int):
    def count(rec, args, kwargs, result):
        rec.add("cli.write.bytes", os.path.getsize(_arg(args, kwargs, path_pos, "path")))
    return count


def _iterated(rec, args, kwargs, result):
    rec.add("systems.iterate.states", len(result))


def _step_many(rec, args, kwargs, result):
    rec.add("systems.step_many.calls", 1)
    rec.add("systems.step_many.rows", _rows(_arg(args, kwargs, 1, "pts")))


def _find_periodic(rec, args, kwargs, result):
    rec.add("systems.find_periodic.found", len(result))
    if isinstance(_arg(args, kwargs, 0, "sys"), systems.CatMap):
        n_max = int(_arg(args, kwargs, 1, "n_max"))
        rec.add("systems.find_periodic.oracle", catmap_period_counts(n_max)[-1])


def _anchor_pairs(rec, args, kwargs, result):
    rec.add("core.anchor_pairs", _rows(args[1]) * len(args[0].points))


def _sample_pairs(rec, args, kwargs, result):
    rec.add("genericity.sample_pairs.requested", int(_arg(args, kwargs, 2, "count")))
    rec.add("genericity.sample_pairs.realised", len(result))


def _monte_carlo(rec, args, kwargs, result):
    rec.add("genericity.genericity_monte_carlo.trials", int(_arg(args, kwargs, 3, "trials")))


def _refine_order(rec, args, kwargs, result):
    key = "topology.refine_order.order"
    rec.counts[key] = max(rec.counts.get(key, 0), int(result[1]))


def _counted(key: str, pos: int, name: str):
    """Counter adding the row count of argument ``pos``/``name`` to ``key``."""
    def count(rec, args, kwargs, result):
        rec.add(key, _rows(_arg(args, kwargs, pos, name)))
    return count


def install(rec: Recorder) -> None:
    span = rec.span
    patch_function("cli.main", lambda f: span("cli.main", f))
    patch_function("cli.load_config", lambda f: span("cli.load_config", f))
    for name in ("cli.write_json", "cli.write_states_csv"):
        patch_function(name, lambda f: span("cli.write", f, _written(0)))
    patch_method(genericity.PairSet, "write_csv",
                 lambda f: span("cli.write", f, _written(1)))

    patch_function("systems.iterate", lambda f: span("systems.iterate", f, _iterated))
    patch_method(systems.System, "step_many", lambda f: rec.counter(f, _step_many))
    patch_function("systems.find_periodic",
                   lambda f: span("systems.find_periodic", f, _find_periodic))

    for name in ("evaluate", "__call__"):
        patch_method(core.Observable, name, lambda f: span(
            "core.evaluate", f, _counted("core.evaluate.rows", 1, "x")))
    patch_method(core.PiecewiseAnchor, "_values",
                 lambda f: rec.counter(f, _anchor_pairs))
    patch_function("core.sup_distance", lambda f: span(
        "core.sup_distance", f, _counted("core.sup_distance.rows", 2, "samples")))

    patch_function("delay.delay_vectors", lambda f: span(
        "delay.delay_vectors", f, _counted("delay.delay_vectors.rows", 2, "points")))

    patch_function("genericity.sample_pairs",
                   lambda f: span("genericity.sample_pairs", f, _sample_pairs))
    for name in ("compatibility_margin", "perturb_to_compatible", "detect_period"):
        patch_function(f"genericity.{name}",
                       lambda f, name=name: span(f"genericity.{name}", f))
    patch_function("genericity.genericity_monte_carlo", lambda f: span(
        "genericity.genericity_monte_carlo", f, _monte_carlo))

    patch_function("topology.refine_order",
                   lambda f: span("topology.refine_order", f, _refine_order))
    patch_function("topology.kuhn_vertex_keys", lambda f: span(
        "topology.kuhn_vertex_keys", f, _counted("topology.kuhn_vertex_keys.rows",
                                                 0, "pts")))
    for name in ("hypothesis_check", "covering_dimension_estimate", "mesh_cover",
                 "box_counting", "linkage_components", "nn_spacing"):
        patch_function(f"topology.{name}",
                       lambda f, name=name: span(f"topology.{name}", f))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
