"""Tests of the benchmark itself: output checks reject tampered artifacts,
traced runs leave artifacts unchanged, and every metric is reported.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from delayrecon import cli  # noqa: E402

SMALL_HENON = {"trajectory": {"x0": [0.1, 0.1], "n": 800, "transient": 100},
               "pairs": {"delta": 0.01, "count": 40}}


def small_config(workload: str, seed: int = 3) -> dict:
    config = run.WORKLOADS[workload].config(seed)
    if "henon" in workload:
        config |= SMALL_HENON
    if workload == "genericity-henon":
        config["trials"] = 60
    if workload == "hypothesis-catmap":
        config["d"] = 1
    return config


def run_cli(workload: str, config: dict, tmp_path: Path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([run.WORKLOADS[workload].command, "--config", str(path),
                     "--out", str(out), "--quiet"]) == 0
    return out


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_catmap_oracle_counts():
    assert checks.catmap_period_counts(6) == [1, 5, 20, 60, 180, 480]


class TestPerturbCheck:
    @pytest.fixture
    def artifacts(self, tmp_path):
        config = small_config("perturb-henon")
        return config, run_cli("perturb-henon", config, tmp_path)

    def test_accepts_cli_output(self, artifacts):
        assert checks.check_perturb(*artifacts) == []

    def test_rejects_reported_zero_margin(self, artifacts):
        config, out = artifacts
        edit_json(out / "perturb_report.json", lambda r: r.update(margin=0.0))
        assert checks.check_perturb(config, out)

    def test_rejects_unperturbed_observable(self, artifacts):
        config, out = artifacts
        (out / "perturbed_observable.json").write_text(json.dumps(config["observable"]))
        problems = checks.check_perturb(config, out)
        assert any("recomputed margin" in p for p in problems)

    def test_rejects_observable_outside_epsilon(self, artifacts):
        config, out = artifacts
        edit_json(out / "perturbed_observable.json",
                  lambda f: f.update(base={"variant": "constant", "value": 0.9}))
        problems = checks.check_perturb(config, out)
        assert any("sup-distance" in p for p in problems)

    def test_rejects_missing_pair(self, artifacts):
        config, out = artifacts
        lines = (out / "pairs.csv").read_text().splitlines(keepends=True)
        (out / "pairs.csv").write_text("".join(lines[:-1]))
        problems = checks.check_perturb(config, out)
        assert any("39 of 40" in p for p in problems)

    def test_missing_artifact_is_a_problem(self, artifacts):
        config, out = artifacts
        (out / "pairs.csv").unlink()
        assert checks.run_check(checks.check_perturb, config, out)


class TestGenericityCheck:
    # At bump_scale 1e-5 some bumps fail to separate the pairs.
    @pytest.fixture(params=[0.1, 1e-5])
    def artifacts(self, request, tmp_path):
        config = small_config("genericity-henon") | {"bump_scale": request.param}
        return config, run_cli("genericity-henon", config, tmp_path)

    def test_reference_matches_cli(self, artifacts):
        config, out = artifacts
        result = json.loads((out / "genericity.json").read_text())
        assert checks.reference_fraction(config) == result["fraction"]
        assert checks.check_genericity(config, out) == []

    def test_rejects_fraction_off_by_two_trials(self, artifacts):
        config, out = artifacts
        edit_json(out / "genericity.json",
                  lambda r: r.update(fraction=r["fraction"] - 2 / config["trials"]))
        assert checks.check_genericity(config, out)


class TestHypothesisCheck:
    @pytest.fixture
    def artifacts(self, tmp_path):
        config = small_config("hypothesis-catmap")
        return config, run_cli("hypothesis-catmap", config, tmp_path)

    def test_accepts_cli_output(self, artifacts):
        assert checks.check_hypothesis(*artifacts) == []

    def test_rejects_duplicated_point(self, artifacts):
        config, out = artifacts
        edit_json(out / "hypothesis.json",
                  lambda r: r["per_n"][1].update(detected_count=6))
        assert checks.check_hypothesis(config, out) == [
            "n=2: detected 6 points, oracle 5"]

    def test_rejects_missing_period(self, artifacts):
        config, out = artifacts
        edit_json(out / "hypothesis.json", lambda r: r["per_n"].pop())
        assert checks.check_hypothesis(config, out)

    def test_period_beyond_exact_range_is_bounded(self, tmp_path):
        config = small_config("hypothesis-catmap") | {"d": 3}
        oracle = checks.catmap_period_counts(6)
        per_n = [{"n": n, "detected_count": c, "detected_dim": 0, "ok": True}
                 for n, c in enumerate(oracle, start=1)]
        report = {"ok": True, "per_n": per_n}
        (tmp_path / "hypothesis.json").write_text(json.dumps(report))
        assert checks.check_hypothesis(config, tmp_path) == []
        per_n[-1]["detected_count"] = 481
        (tmp_path / "hypothesis.json").write_text(json.dumps(report))
        assert checks.check_hypothesis(config, tmp_path) == [
            "n=6: detected 481 points, oracle bound 480"]


class TestDimensionCheck:
    def write(self, tmp_path, covering, box):
        (tmp_path / "dimension.json").write_text(json.dumps(
            {"covering": {"value": covering}, "box": {"value": box}}))
        return checks.check_dimension(run.WORKLOADS["dimension-lorenz"].config(0),
                                      tmp_path)

    def test_accepts_reference(self, tmp_path):
        assert self.write(tmp_path, 3, checks.DIMENSION_BOX + 0.05) == []

    def test_rejects_wrong_covering(self, tmp_path):
        assert self.write(tmp_path, 2, checks.DIMENSION_BOX)

    def test_rejects_box_outside_tolerance(self, tmp_path):
        assert self.write(tmp_path, 3, checks.DIMENSION_BOX + 0.2)


def test_seeded_configs():
    for name, workload in run.WORKLOADS.items():
        assert workload.config(4) == workload.config(4)
        assert workload.config(4)["seed"] == 4


def test_self_times_and_rounds():
    spans = [["genericity.perturb_to_compatible", 0.0, 10.0, -1],
             ["genericity.compatibility_margin", 1.0, 3.0, 0],
             ["delay.delay_vectors", 1.5, 2.5, 1],
             ["genericity.compatibility_margin", 4.0, 5.0, -1]]
    metrics = run.layer_metrics({"spans": spans, "counts": {
        "systems.step_many.calls": 4, "systems.step_many.rows": 10}})
    assert metrics["genericity.perturb_to_compatible.s"] == 8.0
    assert metrics["genericity.compatibility_margin.s"] == 2.0
    assert metrics["genericity.compatibility_margin.calls"] == 2
    assert metrics["delay.delay_vectors.s"] == 1.0
    assert metrics["genericity.perturb_to_compatible.rounds"] == 1
    assert metrics["systems.step_many.rows_per_call"] == 2.5


def test_traced_run_keeps_artifacts_and_counts(tmp_path):
    config = small_config("perturb-henon")
    plain = run_cli("perturb-henon", config, tmp_path)
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "traced.py"), str(spans), "perturb",
                    "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "traced"), "--quiet"],
                   check=True, env=run.child_env())
    assert run.digest(tmp_path / "traced") == run.digest(plain)
    metrics = run.layer_metrics(json.loads(spans.read_text()))
    assert metrics["genericity.sample_pairs.requested"] == 40
    assert metrics["genericity.sample_pairs.yield"] == 1.0
    assert metrics["genericity.perturb_to_compatible.rounds"] >= 1
    assert metrics["systems.iterate.states"] == 900
    assert metrics["core.anchor_pairs"] > 0
    assert metrics["cli.write.bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "traced").iterdir())


def test_every_metric_printed_once_with_unit():
    records = {}
    for name in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            records[name, trace] = {
                "cli_s_samples": 3,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in run.SPEC[group]}}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_table(records)
    rows = [line.split() for line in buf.getvalue().splitlines()]
    for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]:
        matches = [r for r in rows if r and r[0] == m["name"]]
        assert len(matches) == 1, m["name"]
        assert matches[0][1] == m["unit"]


def test_every_per_layer_metric_has_a_prediction():
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert list(predictions["per_layer"]) == [m["name"] for m in run.SPEC["per_layer"]]


def test_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "perturb-henon", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
