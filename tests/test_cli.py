"""End-to-end runs of the command-line entry point: artifacts, exit codes,
and byte-level determinism."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delayrecon as dr
from delayrecon import cli, systems, topology
from delayrecon.delay import read_delay_csv
from delayrecon.genericity import MARGIN_TOL
from delayrecon.systems import MAX_ODOMETER_DIGITS

from conftest import peak_memory

HENON = {"kind": "henon", "a": 1.4, "b": 0.3}
COORD = {"variant": "coordinate", "index": 0, "lo": -1.5, "hi": 1.5}
# A bad-field case under one of these prefixes starts from this object.
OBJECTS = {
    "system.digits": {"kind": "odometer"},
    "system.field": {"kind": "flow", "field": "harmonic", "dt": 3.0},
    "observable.terms": {"variant": "trig", "terms": [[1.0, 1.0, 0, 0.0]]},
    "observable.points": {"variant": "anchors", "points": [[0.1, 0.1]],
                          "values": [0.5], "radius": 0.1},
    "observable.bump": {"variant": "sum", "base": COORD,
                        "bump": {"variant": "constant", "value": 0.5}},
}


def flow(dt):
    """The harmonic flow at ``dt``, in substeps of 1/8 (exact in binary)."""
    return {"kind": "flow", "field": "harmonic", "dt": dt, "substep": 0.125}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(cmd, config_path, out, extra=()):
    return cli.main([cmd, "--config", config_path, "--out", str(out),
                     "--quiet", *extra])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.fixture(autouse=True)
def strict_json_artifacts(monkeypatch):
    """Every JSON artifact a test here writes parses as RFC 8259 JSON: no
    Infinity, -Infinity or NaN."""
    written = []
    write = cli.write_json
    monkeypatch.setattr(cli, "write_json",
                        lambda path, payload: written.append(path) or write(path, payload))
    yield
    for path in written:
        json.loads(Path(path).read_text(), parse_constant=_reject_constant)


@pytest.fixture
def base_config():
    return {
        "seed": 7,
        "system": dict(HENON),
        "observable": dict(COORD),
        "d": 1,
        "trajectory": {"x0": [0.1, 0.1], "n": 800, "transient": 100},
    }


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, base_config):
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path) == 0
        states = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                            skiprows=1)
        assert states.shape == (800, 2)

    def test_import_round_trip(self, tmp_path, base_config):
        cfg = write_config(tmp_path, base_config)
        run("simulate", cfg, tmp_path)
        first = (tmp_path / "trajectory.csv").read_bytes()
        out2 = tmp_path / "again"
        assert run("simulate", cfg, out2,
                   extra=["--import", str(tmp_path / "trajectory.csv")]) == 0
        assert (out2 / "trajectory.csv").read_bytes() == first

    def test_import_rejects_garbage(self, tmp_path, base_config):
        bad = tmp_path / "bad.csv"
        bad.write_text("s0,s1\nnot,numbers\n")
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path,
                   extra=["--import", str(bad)]) == 1

    @pytest.mark.parametrize("rows,message", [
        ("s0,s1,s2\n0.1,0.1,0.1\n0.2,0.2,0.2\n", "state dimension 3 != 2"),
        ("s0,s1\n0.1,0.1\n10,0.2\n", "state outside domain box"),
        ("s0,s1\n0.1,nan\n", "state outside domain box"),
    ], ids=["three-columns", "outside-box", "nan"])
    def test_import_checked_against_the_system(self, tmp_path, base_config, capsys,
                                               rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(rows)
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, base_config), out,
                   extra=["--import", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: henon(a=1.4,b=0.3): {message}\n"
        assert not (out / "trajectory.csv").exists()

    def test_import_of_no_states_is_one_error_line(self, tmp_path, base_config):
        # In a child interpreter, which prints warnings instead of raising
        # them: NumPy's warning on a file without rows is not printed.
        empty = tmp_path / "empty.csv"
        empty.write_text("s0,s1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "delayrecon.cli", "simulate",
             "--config", write_config(tmp_path, base_config), "--out", str(tmp_path / "out"),
             "--import", str(empty)],
            capture_output=True, text=True, env=package_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: cannot import trajectory CSV: {empty} holds no states\n"
        assert list((tmp_path / "out").iterdir()) == []


class TestEmbed:
    def test_delays_match_library(self, tmp_path, base_config):
        cfg = write_config(tmp_path, base_config)
        assert run("embed", cfg, tmp_path) == 0
        mat = read_delay_csv(tmp_path / "delays.csv")
        assert mat.shape == (798, 3)  # n - m + 1 rows, m = 2d+1
        # recompute independently
        henon = dr.Henon()
        traj = dr.iterate(henon, np.array([0.1, 0.1]), 900)
        h = dr.Coordinate(0, -1.5, 1.5)
        series = h.evaluate(traj.states[100:])
        assert mat[0] == pytest.approx(series[:3], abs=1e-15)

    def test_explicit_m_overrides_d(self, tmp_path, base_config):
        base_config["m"] = 5
        cfg = write_config(tmp_path, base_config)
        run("embed", cfg, tmp_path)
        assert read_delay_csv(tmp_path / "delays.csv").shape[1] == 5


class TestMargin:
    def test_report_written(self, tmp_path, base_config):
        base_config["pairs"] = {"delta": 0.01, "count": 50}
        cfg = write_config(tmp_path, base_config)
        assert run("margin", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "margin.json").read_text())
        assert report["m"] == 3
        assert report["margin"] > 0.0
        assert (tmp_path / "pairs.csv").exists()

    def test_keys_no_command_reads_are_ignored(self, tmp_path, base_config):
        # The pair keys of a periodic-point tagger that pairs.csv no longer
        # has: a config that still carries them writes the same artifacts.
        base_config["pairs"] = {"delta": 0.01, "count": 40}
        assert run("margin", write_config(tmp_path, base_config), tmp_path / "a") == 0
        base_config["pairs"].update(detect_periodic=True, period_max=4, period_tol=1e-9,
                                    period_seeds=100)
        assert run("margin", write_config(tmp_path, base_config), tmp_path / "b") == 0
        for name in ("pairs.csv", "margin.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPerturb:
    def test_success_and_config_round_trip(self, tmp_path, base_config):
        base_config["observable"] = {"variant": "constant", "value": 0.5}
        base_config["epsilon"] = 0.05
        base_config["pairs"] = {"delta": 0.01, "count": 50}
        cfg = write_config(tmp_path, base_config)
        assert run("perturb", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "perturb_report.json").read_text())
        assert report["ok"]
        assert report["margin"] > MARGIN_TOL
        assert report["sup_distance"] < 0.05
        # the emitted config embeds the new observable and runs under margin
        out2 = tmp_path / "rerun"
        assert run("margin", str(tmp_path / "config_out.json"), out2) == 0
        margin = json.loads((out2 / "margin.json").read_text())["margin"]
        assert margin == pytest.approx(report["margin"], rel=1e-9)

    def test_report_certifies_closeness_and_counts_pairs(self, tmp_path,
                                                          base_config):
        base_config["observable"] = {"variant": "constant", "value": 0.5}
        base_config["epsilon"] = 0.05
        base_config["pairs"] = {"delta": 0.01, "count": 50}
        cfg = write_config(tmp_path, base_config)
        assert run("perturb", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "perturb_report.json").read_text())
        assert report["sup_distance"] <= report["sup_distance_bound"] < 0.05
        assert (report["pairs_requested"], report["pairs_realised"],
                report["pairs_complete"]) == (50, 50, True)


def test_readme_example_runs_and_reads_every_key(tmp_path, monkeypatch):
    # The README's example config, run as the README says: a field the docs
    # show that the CLI no longer reads, or reads under another name, fails.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = json.loads(readme.split("```json\n")[1].split("```")[0])
    read = set()
    field = cli._field

    def recording(config, key, default=None):
        read.add(key)
        return field(config, key, default)
    monkeypatch.setattr(cli, "_field", recording)
    out = tmp_path / "out"
    assert run("perturb", write_config(tmp_path, config), out) == 0
    assert {"perturbed_observable.json", "perturb_report.json",
            "config_out.json"} <= {path.name for path in out.iterdir()}
    for key, value in config.items():
        if key in ("system", "observable"):
            # An object's keys are its tag and the fields of its class.
            base = systems.System if key == "system" else dr.Observable
            cls = base.registry[value[base.tag_key]]
            assert set(value) <= {base.tag_key} | {f.name for f in dataclasses.fields(cls)}
        elif isinstance(value, dict):
            assert {f"{key}.{sub}" for sub in value} <= read
        else:
            assert key in read


class TestPairShortfall:
    @pytest.mark.parametrize("cmd,artifact", [("margin", "margin.json"),
                                              ("perturb", "perturb_report.json"),
                                              ("genericity", "genericity.json")])
    def test_unreachable_count_reported(self, tmp_path, base_config, cmd,
                                        artifact):
        # 20 states with index gap 3: each pair blocks 14 indices, so far
        # fewer than 10 pairs exist.
        base_config["trajectory"]["n"] = 20
        base_config.update(epsilon=0.05, trials=20, bump_scale=0.1)
        base_config["pairs"] = {"delta": 0.01, "count": 10}
        cfg = write_config(tmp_path, base_config)
        assert run(cmd, cfg, tmp_path) == 0
        report = json.loads((tmp_path / artifact).read_text())
        assert report["pairs_requested"] == 10
        assert 0 < report["pairs_realised"] < 10
        assert report["pairs_complete"] is False


class TestDimension:
    def test_estimates_written(self, tmp_path, base_config):
        base_config["trajectory"]["n"] = 2000
        base_config["scales"] = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]
        base_config["covering_scales"] = [0.4, 0.2]
        cfg = write_config(tmp_path, base_config)
        assert run("dimension", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "dimension.json").read_text())
        assert 1.0 < report["box"]["value"] < 1.5  # strange-attractor range
        assert report["covering"]["method"] == "covering-heuristic"
        keys = {"method", "value", "scales", "counts", "residual", "heuristic", "notes"}
        assert set(report) == {"box", "covering"}
        assert set(report["box"]) == set(report["covering"]) == keys

    def test_repeated_states_are_linked_once(self, tmp_path):
        # 5 000 states of a 27-state odometer.  Linking every copy of a state
        # with every other copy makes 4.6e5 pairs, a tracemalloc peak of
        # 26 MB that grows with the square of the states; linking one copy
        # of each distinct state keeps it near 1 MB.
        cfg = write_config(tmp_path, {
            "seed": 1, "system": {"kind": "odometer", "base": 3, "digits": 3},
            "trajectory": {"x0": [0.0, 0.0, 0.0], "n": 5000},
            "scales": [1.0, 0.1, 0.01], "covering_scales": [1.0, 0.5]})
        code, peak = peak_memory(run, "dimension", cfg, tmp_path)
        assert code == 0 and peak < 4e6
        assert json.loads((tmp_path / "dimension.json").read_text())["covering"]["value"] == 0

    def test_lorenz_run_peak_memory(self, tmp_path):
        # The dimension bench's Lorenz config at seed 7; the first run loads
        # what a process loads once.  Pair queries in blocks of at most
        # `_CHUNK` candidates, grids bucketed one axis at a time, a linkage
        # fold that touches only each block's ends, Kuhn star ids without
        # vertex coordinates, self-queries without a copy of the distinct
        # states and per-axis key tables keep the second run's tracemalloc
        # peak near 3.2 MB.  With the copy and (3, cells) key tables it read
        # 4.2 MB, with one chunk per neighbour offset 6.3 MB, and 10.4-11 MB
        # before that.
        cfg = write_config(tmp_path, {
            "seed": 7, "system": {"kind": "flow", "field": "lorenz", "dt": 0.02,
                                  "substep": 0.01},
            "trajectory": {"x0": [1.0, 1.0, 20.0], "n": 20_000, "transient": 500},
            "scales": [16.0, 8.0, 4.0, 2.0, 1.0, 0.5], "covering_scales": [16.0, 8.0]})
        assert run("dimension", cfg, tmp_path) == 0
        code, peak = peak_memory(run, "dimension", cfg, tmp_path)
        assert code == 0 and peak < 3.5e6
        assert json.loads((tmp_path / "dimension.json").read_text())["covering"]["value"] == 3

    def test_degenerate_fit_writes_null_residual(self, tmp_path):
        # A fixed point occupies one box at every scale: the fit has no
        # residual, which JSON writes as null, not Infinity.
        cfg = write_config(tmp_path, {
            "seed": 1, "system": {"kind": "rotation", "alpha": 0.0},
            "trajectory": {"x0": [0.3], "n": 100}, "scales": [1.0, 0.1, 0.01]})
        assert run("dimension", cfg, tmp_path) == 0
        box = json.loads((tmp_path / "dimension.json").read_text(),
                         parse_constant=_reject_constant)["box"]
        assert box["residual"] is None and box["counts"] == [1, 1, 1]
        assert box["notes"] == ["degenerate fit: all occupancy counts equal"]


class TestHypothesis:
    def test_pass_gives_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "system": {"kind": "catmap"},
                                      "d": 1, "n_seeds": 150})
        assert run("hypothesis", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "hypothesis.json").read_text())
        assert report["ok"]
        assert set(report) == {"ok", "per_n", "low_confidence"}

    def test_failure_gives_two(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1,
                                      "system": {"kind": "rotation",
                                                 "alpha": 0.0},
                                      "d": 1, "n_seeds": 150})
        assert run("hypothesis", cfg, tmp_path) == 2
        report = json.loads((tmp_path / "hypothesis.json").read_text())
        assert not report["ok"]
        assert report["per_n"][0]["n"] == 1


    def test_escaping_newton_rows_write_no_warning(self, tmp_path):
        # At d = 10 seed orbits and Newton iterates of the Henon map escape
        # and overflow; their rows fail as non-finite, which is no warning.
        cfg = write_config(tmp_path, {"seed": 1, "system": HENON, "d": 10,
                                      "n_seeds": 400})
        proc = subprocess.run(
            [sys.executable, "-m", "delayrecon.cli", "hypothesis", "--config", cfg,
             "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=package_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestYorke:
    def test_certified_flow(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1, "d": 1, "n_seeds": 100,
            "system": {"kind": "flow", "field": "harmonic", "dt": 3.0},
        })
        assert run("yorke", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "yorke.json").read_text())
        assert report["certified"] and report["scan_hits"] == []

    def test_uncertified_flow_gives_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 1, "d": 1, "n_seeds": 50,
            "system": {"kind": "flow", "field": "harmonic", "dt": 3.5},
        })
        assert run("yorke", cfg, tmp_path) == 2

    def test_tol_checked_before_the_seed_grid(self, tmp_path, capsys, monkeypatch):
        def reached(*args):
            raise AssertionError("the seed grid was built before tol was checked")
        monkeypatch.setattr(topology, "grid_seeds", reached)
        cfg = write_config(tmp_path, {
            "seed": 1, "d": 1, "tol": 0.0,
            "system": {"kind": "flow", "field": "harmonic", "dt": 3.0},
        })
        assert run("yorke", cfg, tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: config field 'tol' must be > 0, got 0.0\n"

    def test_map_system_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "d": 1, "system": HENON})
        assert run("yorke", cfg, tmp_path) == 1


class TestGenericity:
    def test_fraction_written(self, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 3,
            "system": {"kind": "rotation", "alpha": 0.3838},
            "observable": {"variant": "constant", "value": 0.5},
            "d": 1,
            "trajectory": {"x0": [0.123], "n": 300},
            "pairs": {"delta": 0.05, "count": 30},
            "trials": 20,
            "bump_scale": 0.1,
        })
        assert run("genericity", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "genericity.json").read_text())
        assert report["fraction"] >= 0.95


def summary_lines(cmd, out):
    """The summary lines ``cmd`` prints, rebuilt from its artifacts in ``out``."""
    def read(name):
        return json.loads((out / name).read_text())
    if cmd == "simulate":
        states = read_delay_csv(out / "trajectory.csv")
        return [f"simulate: wrote {len(states)} states of henon(a=1.4,b=0.3)"]
    if cmd == "embed":
        mat = read_delay_csv(out / "delays.csv")
        return [f"embed: wrote {mat.shape[0]} delay vectors with m={mat.shape[1]}"]
    if cmd == "margin":
        r = read("margin.json")
        return [f"margin: {r['margin']:.6g} over {r['pairs_realised']} pairs (m={r['m']})"]
    if cmd == "perturb":
        r = read("perturb_report.json")
        if not r["ok"]:
            return [f"perturb: failed: {r['reason']}"]
        return [f"perturb: margin {r['margin']:.6g}, sup-distance {r['sup_distance']:.6g}"]
    if cmd == "dimension":
        r = read("dimension.json")
        return [f"dimension: box {r['box']['value']:.3f}, covering {r['covering']['value']}"]
    if cmd == "hypothesis":
        return [f"hypothesis n={e['n']}: dim {e['detected_dim']} vs bound {e['bound']} "
                f"[{'ok' if e['ok'] else 'FAIL'}]" for e in read("hypothesis.json")["per_n"]]
    if cmd == "yorke":
        r = read("yorke.json")
        return [f"yorke: threshold {r['threshold']:.6g}, step {r['step']}, "
                f"certified={r['certified']}, scan hits {len(r['scan_hits'])}"]
    r = read("genericity.json")
    return [f"genericity: compatible fraction {r['fraction']:.3f} over {r['trials']} trials"]


class TestSummary:
    @pytest.mark.parametrize("cmd,update,code,lines", [
        ("simulate", {}, 0, 1),
        ("embed", {}, 0, 1),
        ("margin", {}, 0, 1),
        ("perturb", {}, 0, 1),
        # Two distinct states half a turn apart share their orbits.
        ("perturb", {"system": {"kind": "rotation", "alpha": 0.5},
                     "trajectory": {"x0": [0.1], "n": 100},
                     "pairs": {"delta": 0.1, "count": 2, "min_index_gap": 0}}, 2, 1),
        ("dimension", {}, 0, 1),
        ("hypothesis", {}, 0, 2),
        ("hypothesis", {"system": {"kind": "rotation", "alpha": 0.0}}, 2, 2),
        ("hypothesis", {"d": 0}, 0, 0),
        ("yorke", {"system": {"kind": "flow", "field": "harmonic", "dt": 3.0}}, 0, 1),
        ("genericity", {}, 0, 1),
    ], ids=["simulate", "embed", "margin", "perturb", "perturb-failed", "dimension",
            "hypothesis", "hypothesis-failed", "hypothesis-d0", "yorke", "genericity"])
    def test_summary_printed_unless_quiet(self, tmp_path, base_config, capsys, cmd, update,
                                          code, lines):
        # Each run prints its summary, one line per n for hypothesis, to
        # stdout; with --quiet it prints nothing.
        base_config.update(pairs={"delta": 0.01, "count": 20}, epsilon=0.05, trials=20,
                           bump_scale=0.1, n_seeds=64, scales=[0.4, 0.2, 0.1, 0.05, 0.025, 0.0125],
                           covering_scales=[0.4, 0.2])
        cfg = write_config(tmp_path, base_config | update)
        loud, quiet = tmp_path / "loud", tmp_path / "quiet"
        assert cli.main([cmd, "--config", cfg, "--out", str(loud)]) == code
        out, err = capsys.readouterr()
        expected = summary_lines(cmd, loud)
        assert len(expected) == lines
        assert (out, err) == ("".join(line + "\n" for line in expected), "")
        assert run(cmd, cfg, quiet) == code
        assert capsys.readouterr() == ("", "")


def package_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(dr.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def lazy_modules_after(tmp_path, command, config):
    """Run ``command`` on ``config`` in a fresh interpreter; returns the scipy
    and ``numpy.random`` modules and ``numpy.ma`` (which `np.median` imports)
    if loaded after ``import delayrecon.cli``, the exit code, and the same
    modules loaded after the run."""
    cfg = write_config(tmp_path, config)
    script = (
        "import json, sys\n"
        "import delayrecon.cli\n"
        "def loaded(): return [m for m in sys.modules\n"
        "                      if m.startswith(('scipy', 'numpy.random'))\n"
        "                      or m == 'numpy.ma']\n"
        "after_import = loaded()\n"
        "code = delayrecon.cli.main([sys.argv[1], '--config', sys.argv[2],\n"
        "                            '--out', sys.argv[3], '--quiet'])\n"
        "print(json.dumps([after_import, code, loaded()]))\n")
    proc = subprocess.run([sys.executable, "-c", script, command, cfg, str(tmp_path)],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImports:
    def test_no_scipy_until_a_stage_needs_it(self, tmp_path):
        """Importing the CLI loads no scipy module, and neither does a
        genericity run, which builds no KD-tree or sparse matrix.  Its
        random bumps come from NumPy's Generator, so it loads
        ``numpy.random``, which nothing else loads."""
        after_import, code, after_run = lazy_modules_after(tmp_path, "genericity", {
            "seed": 3, "system": HENON,
            "observable": {"variant": "constant", "value": 0.5}, "d": 1,
            "trajectory": {"x0": [0.1, 0.1], "n": 500, "transient": 100},
            "pairs": {"delta": 0.01, "count": 40}, "trials": 20, "bump_scale": 0.1,
        })
        assert after_import == []
        assert code == 0
        assert "numpy.random" in after_run
        assert all(m.startswith("numpy.random") for m in after_run)
        assert (tmp_path / "genericity.json").is_file()

    @pytest.mark.parametrize("command, config, artifact", [
        ("perturb", {"seed": 3, "system": HENON,
                     "observable": {"variant": "constant", "value": 0.5}, "d": 1,
                     "trajectory": {"x0": [0.1, 0.1], "n": 500, "transient": 100},
                     "pairs": {"delta": 0.01, "count": 40}, "epsilon": 0.05},
         "perturb_report.json"),
        ("hypothesis", {"seed": 3, "system": {"kind": "catmap"}, "d": 3,
                        "n_seeds": 100}, "hypothesis.json"),
        ("margin", {"seed": 3, "system": HENON,
                    "observable": COORD, "d": 1,
                    "trajectory": {"x0": [0.1, 0.1], "n": 500, "transient": 100},
                    "pairs": {"delta": 0.01, "count": 40}}, "margin.json"),
    ])
    def test_no_scipy_in_small_neighbour_queries(self, tmp_path, command, config,
                                                 artifact):
        """Perturb and hypothesis runs make neighbour queries (anchor
        supports, nearest-neighbour spacing) on at most three axes, which
        the NumPy grid of `delayrecon.neighbors` answers, so they load no
        scipy module.
        Pair and target draws come from the standard library's `random`, so
        perturb and margin runs load no ``numpy.random`` either."""
        after_import, code, after_run = lazy_modules_after(tmp_path, command, config)
        assert after_import == []
        assert code == 0
        assert after_run == []
        assert (tmp_path / artifact).is_file()

    def test_no_scipy_in_a_dimension_run(self, tmp_path):
        """A dimension run on 2e4 Lorenz states keeps its covers as NumPy
        index pairs, labels linkage components in NumPy, and answers its
        neighbour queries on the grid: it loads no scipy module, and no
        ``numpy.random``.  scipy is only the KD-tree for points on more than
        three axes, that is, odometers of more than three digits, so no run
        on a system of at most three axes loads it."""
        after_import, code, after_run = lazy_modules_after(tmp_path, "dimension", {
            "seed": 7,
            "system": {"kind": "flow", "field": "lorenz", "dt": 0.02, "substep": 0.01},
            "trajectory": {"x0": [1.0, 1.0, 20.0], "n": 20_000, "transient": 500},
            "scales": [16.0, 8.0, 4.0, 2.0, 1.0, 0.5], "covering_scales": [16.0, 8.0],
        })
        assert after_import == []
        assert code == 0
        assert after_run == []
        assert json.loads((tmp_path / "dimension.json").read_text())["covering"]["value"] == 3


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert run("simulate", str(tmp_path / "nope.json"), tmp_path) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("simulate", str(bad), tmp_path) == 1

    def test_config_must_be_object(self, tmp_path, capsys):
        assert run("simulate", write_config(tmp_path, [5]), tmp_path) == 1
        assert "JSON object" in capsys.readouterr().err
        assert run("simulate", write_config(tmp_path, 5), tmp_path) == 1

    def test_missing_seed(self, tmp_path, base_config, capsys):
        del base_config["seed"]
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_substitutes(self, tmp_path, base_config):
        del base_config["seed"]
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path, extra=["--seed", "4"]) == 0

    def test_negative_seed_flag_named(self, tmp_path, base_config, capsys):
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path / "out", extra=["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "'--seed' must be >= 0" in err and "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_field_named_in_message(self, tmp_path, base_config,
                                            capsys):
        del base_config["trajectory"]
        cfg = write_config(tmp_path, base_config)
        assert run("simulate", cfg, tmp_path) == 1
        assert "trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,field,value", [
        ("hypothesis", "d", None),
        ("hypothesis", "n_seeds", None),
        ("hypothesis", "tol", "tiny"),
        ("embed", "m", "five"),
        ("perturb", "epsilon", None),
        ("genericity", "trials", [20]),
        ("genericity", "bump_scale", None),
        ("yorke", "n_seeds", {}),
        ("simulate", "seed", None),
        ("simulate", "trajectory.n", None),
        ("simulate", "trajectory.transient", "many"),
        ("simulate", "trajectory.x0.1", None),
        ("embed", "trajectory.x0", 0.1),
        ("margin", "pairs", 5),
        ("margin", "pairs.delta", None),
        ("margin", "pairs.count", "x"),
        ("yorke", "tol", "tiny"),
        ("perturb", "epsilon", True),
        ("dimension", "covering_scales", 5),
        ("margin", "pairs.seed", "abc"),
        ("margin", "pairs.min_index_gap", None),
        ("perturb", "pairs.count", None),
        ("dimension", "scales", 5),
        ("dimension", "scales.1", None),
        ("dimension", "covering_scales.0", "big"),
        ("simulate", "system.a", None),
        ("embed", "observable.index", None),
        ("yorke", "system.dt", None),
        ("simulate", "seed", 1.5),
        ("simulate", "system.digits", 2.7),
        ("embed", "observable.terms.0.1", "a"),
        ("embed", "observable.points.0.1", "x"),
        ("simulate", "system.field", ["lorenz"]),
        ("embed", "observable.bump", 3),
        ("hypothesis", "d", True),
        ("yorke", "d", "two"),
        ("genericity", "bump_scale", -0.1),
        ("genericity", "bump_scale", float("nan")),
        ("genericity", "trials", 0),
        ("embed", "observable", {"variant": "coordinate", "index": -1}),
        ("embed", "observable", {"variant": "trig", "terms": [[1.0, 1, -2, 0.0]]}),
        ("simulate", "trajectory.x0.0", float("nan")),
        ("perturb", "epsilon", float("inf")),
        ("perturb", "epsilon", float("-inf")),
        ("dimension", "scales.0", float("inf")),
        ("perturb", "epsilon", "0.05"),
        ("perturb", "pairs.delta", "0.01"),
        ("margin", "pairs.count", "10"),
    ])
    def test_bad_scalar_named_without_traceback(self, tmp_path, base_config,
                                                capsys, cmd, field, value):
        base_config.update(epsilon=0.05, trials=20, bump_scale=0.1,
                           pairs={"delta": 0.01, "count": 10},
                           scales=[0.4, 0.2, 0.1, 0.05, 0.025, 0.0125],
                           covering_scales=[0.4, 0.2])
        if cmd == "yorke":
            base_config["system"] = {"kind": "flow", "field": "harmonic", "dt": 3.0}
        obj = OBJECTS.get(".".join(field.split(".")[:2]))
        if obj is not None:
            base_config[field.split(".")[0]] = copy.deepcopy(obj)
        # A dotted field names a nested value; a numeric part indexes a list.
        *outer, leaf = field.split(".")
        target = base_config
        for part in outer:
            target = target[int(part)] if isinstance(target, list) else target[part]
        target[int(leaf) if isinstance(target, list) else leaf] = value
        cfg = write_config(tmp_path, base_config)
        assert run(cmd, cfg, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"config field {field!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("system", [
        {"kind": "odometer", "digits": 1e300},
        {"kind": "odometer", "digits": MAX_ODOMETER_DIGITS + 1},
        {"kind": "flow", "field": "harmonic", "dt": 1e6, "substep": 1e-3},
    ], ids=["digits-1e300", "digits-over-cap", "rk4-substeps"])
    def test_oversized_system_rejected(self, tmp_path, base_config, capsys, system):
        # Rejected when the system is built, before a domain or an orbit.
        base_config["system"] = system
        assert run("simulate", write_config(tmp_path, base_config), tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'system' invalid: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd,digits", [
        ("hypothesis", 17), ("hypothesis", 30), ("hypothesis", MAX_ODOMETER_DIGITS)])
    def test_seed_grid_over_cap_rejected(self, tmp_path, base_config, capsys, cmd,
                                         digits):
        # At least two seeds per axis make 2**digits seeds, whatever n_seeds
        # asks for; rejected before the grid is built, naming n_seeds.
        base_config.update(system={"kind": "odometer", "digits": digits}, n_seeds=100)
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config), out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field 'n_seeds' invalid: "
                              f"seed grid of 2**{digits} states")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd,field,value", [
        ("hypothesis", "n_seeds", -5),
        ("hypothesis", "n_seeds", 0),
        ("yorke", "n_seeds", -5),
    ])
    def test_nonpositive_seed_count_rejected(self, tmp_path, base_config, capsys,
                                             cmd, field, value):
        if cmd == "yorke":
            base_config["system"] = {"kind": "flow", "field": "harmonic", "dt": 3.0}
        outer, _, leaf = field.rpartition(".")
        (base_config[outer] if outer else base_config)[leaf] = value
        cfg = write_config(tmp_path, base_config)
        assert run(cmd, cfg, tmp_path) == 1
        err = capsys.readouterr().err
        assert "n_seeds" in err and "Traceback" not in err

    @pytest.mark.parametrize("cmd,field,value", [
        ("perturb", "epsilon", 0.0),
        ("perturb", "epsilon", float("nan")),
        ("margin", "pairs.delta", -1.0),
        ("perturb", "pairs.delta", 0.0),
        ("margin", "pairs.count", 0),
        ("hypothesis", "n_seeds", 0),
        ("embed", "m", 0),
        ("genericity", "d", -1),
        ("simulate", "trajectory.n", 0),
        ("simulate", "trajectory.transient", -5),
        ("hypothesis", "tol", 0.0),
        ("simulate", "seed", -1),
        ("margin", "pairs.seed", -3),
        ("perturb", "pairs.min_index_gap", -2),
    ])
    def test_out_of_range_named_before_any_stage(self, tmp_path, base_config,
                                                 capsys, cmd, field, value):
        # Checked when the field is read, so no artifact is written first.
        base_config.update(epsilon=0.05, trials=20, bump_scale=0.1,
                           pairs={"delta": 0.01, "count": 10})
        outer, _, leaf = field.rpartition(".")
        (base_config[outer] if outer else base_config)[leaf] = value
        cfg = write_config(tmp_path, base_config)
        out = tmp_path / "out"
        assert run(cmd, cfg, out) == 1
        err = capsys.readouterr().err
        assert f"config field {field!r} must be" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd,field,value,message", [
        ("dimension", "scales", [1e-20, 1e-21, 1e-22],
         "scale 1e-20 puts more than 2**52 grid cells across the samples"),
        ("dimension", "scales", [1.0, 0.1, 0.0], "box-counting scales must be positive"),
        ("hypothesis", "n_seeds", 10 ** 400, "n_seeds above 2**2 * MAX_GRID_SEEDS"),
        ("simulate", "system", {"kind": "odometer", "base": 10 ** 400},
         "config field 'system' invalid: odometer needs 2 <= base <= 2**53"),
        ("embed", "trajectory.n", 10 ** 12,
         f"config fields 'trajectory.n' + 'trajectory.transient' exceed MAX_STATES "
         f"= {cli.MAX_STATES}"),
        ("simulate", "trajectory.transient", 10 ** 400, "exceed MAX_STATES"),
    ], ids=["scales-tiny", "scale-zero", "n_seeds-huge", "base-huge", "n-huge",
            "transient-huge"])
    def test_oversized_values_rejected(self, tmp_path, base_config, capsys, cmd, field,
                                       value, message):
        # Each exits before its stage allocates: without the state budget,
        # n = 10**12 asks for terabytes.
        base_config.update(covering_scales=[1.0, 0.5],
                           pairs={"delta": 0.01, "count": 10})
        outer, _, leaf = field.rpartition(".")
        (base_config[outer] if outer else base_config)[leaf] = value
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config), out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and "Warning" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd,field,value", [
        ("margin", "pairs.count", cli.MAX_PAIRS + 1),
        ("perturb", "pairs.count", 10 ** 5),
        ("hypothesis", "d", 10 ** 6),
        ("genericity", "trials", 10 ** 12),
        ("yorke", "d", 10 ** 9),
        ("embed", "m", 2 * cli.MAX_D + 2),
    ])
    def test_work_caps_named_before_any_stage(self, tmp_path, base_config, capsys,
                                              monkeypatch, cmd, field, value):
        # Without the caps these hang or allocate terabytes, so no stage may
        # run: each one fails the test if it is reached.
        def reached(*args, **kwargs):
            raise AssertionError("a stage ran before the cap was checked")
        for module, name in ((systems, "iterate"), (systems, "find_periodic"),
                             (systems, "yorke_certificate"), (topology, "grid_seeds"),
                             (topology, "hypothesis_check")):
            monkeypatch.setattr(module, name, reached)
        base_config.update(epsilon=0.05, trials=20, bump_scale=0.1,
                           pairs={"delta": 0.01, "count": 10})
        if cmd == "yorke":
            base_config["system"] = {"kind": "flow", "field": "harmonic", "dt": 3.0}
        outer, _, leaf = field.rpartition(".")
        (base_config[outer] if outer else base_config)[leaf] = value
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config), out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field!r} must be <= ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cmd,fields,over,at", [
        ("hypothesis", ("n_seeds", "d"), {"d": 20, "n_seeds": 21 ** 2},
         {"d": 20, "n_seeds": 20 ** 2}),
        ("hypothesis", ("n_seeds", "d"), {"d": 10, "n_seeds": 41 ** 2},
         {"d": 10, "n_seeds": 40 ** 2}),
        ("genericity", ("pairs.count", "m", "trials"),
         {"pairs": {"delta": 0.01, "count": 501}, "trials": cli.MAX_TRIALS},
         {"pairs": {"delta": 0.01, "count": 500}, "trials": cli.MAX_TRIALS}),
        ("genericity", ("pairs.count", "m", "trials"),
         {"d": 20, "pairs": {"delta": 0.01, "count": cli.MAX_PAIRS}, "trials": 732},
         {"d": 20, "pairs": {"delta": 0.01, "count": cli.MAX_PAIRS}, "trials": 731}),
        # A flow's step is dt / substep = 8, 30 and 2500 RK4 substeps here.
        ("simulate", ("trajectory.n", "trajectory.transient", "system.dt", "system.substep"),
         {"system": flow(1.0), "trajectory": {"x0": [0.1, 0.1], "n": 625_001}},
         {"system": flow(1.0), "trajectory": {"x0": [0.1, 0.1], "n": 625_000}}),
        ("hypothesis", ("n_seeds", "d", "system.dt", "system.substep"),
         {"system": flow(3.75), "d": 5, "n_seeds": 33 ** 2},
         {"system": flow(3.75), "d": 5, "n_seeds": 32 ** 2}),
        ("yorke", ("n_seeds", "d", "system.dt", "system.substep"),
         {"system": flow(312.5), "d": 20, "n_seeds": 33 ** 2},
         {"system": flow(312.5), "d": 20, "n_seeds": 32 ** 2}),
    ], ids=["hypothesis-d20", "hypothesis-d10", "genericity-m3", "genericity-m41",
            "trajectory-flow", "hypothesis-flow", "yorke-flow"])
    def test_work_budgets_named_before_any_stage(self, tmp_path, base_config, capsys,
                                                 monkeypatch, cmd, fields, over, at):
        # Every factor is within its cap, but their product is over budget;
        # at the budget, the first stage is reached.
        def reached(*args, **kwargs):
            raise AssertionError("a stage ran before the budget was checked")
        for module, name in ((systems, "iterate"), (systems, "find_periodic"),
                             (systems, "yorke_certificate"), (topology, "grid_seeds"),
                             (topology, "hypothesis_check")):
            monkeypatch.setattr(module, name, reached)
        base_config.update(trials=20, bump_scale=0.1)
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config | over), out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config fields ")
        assert all(repr(field) in err for field in fields)
        assert list(out.iterdir()) == []
        with pytest.raises(AssertionError, match="a stage ran"):
            run(cmd, write_config(tmp_path, base_config | at), out)

    def test_work_caps_are_inclusive(self):
        for key, cap in cli._UPPER.items():
            *outer, leaf = key.split(".")
            config = {outer[0]: {leaf: cap}} if outer else {leaf: cap}
            assert cli._number(config, key, int) == cap
            (config[outer[0]] if outer else config)[leaf] = cap + 1
            with pytest.raises(systems.ConfigError, match=f"'{key}' must be <= {cap}, got"):
                cli._number(config, key, int)

    def test_state_budget_is_inclusive(self, tmp_path, base_config, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STATES", 900)
        assert run("simulate", write_config(tmp_path, base_config), tmp_path) == 0
        base_config["trajectory"]["n"] = 801
        assert run("simulate", write_config(tmp_path, base_config), tmp_path) == 1

    @pytest.mark.parametrize("cmd,field,value,message", [
        ("dimension", "scales", [1.0, 0.5, 0.1],
         "box-counting scales should span at least 1.5 decades"),
        ("dimension", "covering_scales", [0.5, 1.0],
         "need at least two scales in descending order"),
        ("dimension", "covering_scales", [1.0], "need at least two scales in descending order"),
        ("dimension", "covering_scales", [1e-6, 1e-7], "all scales below sampling resolution"),
        ("dimension", "covering_scales", [16.0, -8.0], "covering scales must be positive"),
        ("embed", "trajectory.x0", [0.1, 0.1, 0.3], "henon(a=1.4,b=0.3): state dimension 3 != 2"),
        ("embed", "trajectory.x0", [10, 0.1], "henon(a=1.4,b=0.3): state outside domain box"),
        ("yorke", "d", 0, "d must be >= 1"),
    ], ids=["scales-span", "covering-ascending", "covering-one", "covering-unresolved",
            "covering-negative", "x0-dimension", "x0-outside", "yorke-d-zero"])
    def test_library_error_names_its_field(self, tmp_path, base_config, capsys, cmd,
                                           field, value, message):
        # The library's message, named as `Registered.from_dict` names a
        # system's, and no artifact is written first.
        base_config.update(scales=[0.4, 0.2, 0.1, 0.05, 0.025, 0.0125],
                           trajectory={"x0": [0.1, 0.1], "n": 2000})
        if cmd == "yorke":
            base_config["system"] = {"kind": "flow", "field": "harmonic", "dt": 3.0}
        outer, _, leaf = field.rpartition(".")
        (base_config[outer] if outer else base_config)[leaf] = value
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config), out) == 1
        assert capsys.readouterr().err == f"error: config field {field!r} invalid: {message}\n"
        assert list(out.iterdir()) == []

    def test_unknown_observable_variant(self, tmp_path, base_config, capsys):
        base_config["observable"] = {"variant": "wavelet"}
        cfg = write_config(tmp_path, base_config)
        assert run("embed", cfg, tmp_path) == 1
        assert "observable" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,update,message", [
        ("embed", {"d": 3, "trajectory": {"x0": [0.1, 0.1], "n": 5}},
         "config field 'trajectory.n' must be >= m = 7, got 5"),
        *[(cmd, {"trajectory": {"x0": [0.1, 0.1], "n": 2}},
           "config field 'trajectory.n' must be >= 'pairs.min_index_gap' + 2 = 5, got 2")
          for cmd in ("margin", "perturb", "genericity")],
        ("margin", {"trajectory": {"x0": [0.1, 0.1], "n": 5},
                    "pairs": {"delta": 0.001, "count": 5, "min_index_gap": 4}},
         "config field 'trajectory.n' must be >= 'pairs.min_index_gap' + 2 = 6, got 5"),
        *[(cmd, {"pairs": {"delta": 100, "count": 5}},
           "config field 'pairs.delta' invalid: no pair at separation 100.0 could be sampled")
          for cmd in ("margin", "perturb", "genericity")],
        # Of the 1e4 ordered index pairs of 100 states, 6 clear a gap of 97,
        # so no draw of 200 passes the index tests, though such pairs lie up
        # to 2.38 apart.
        ("margin", {"trajectory": {"x0": [0.1, 0.1], "n": 100, "transient": 100},
                    "pairs": {"delta": 0.001, "count": 1, "min_index_gap": 97}},
         "config field 'pairs.min_index_gap' invalid: "
         "no pair of indices more than 97 apart could be sampled"),
        ("embed", {"observable": {"variant": "coordinate", "index": 5}},
         "config field 'observable' invalid: observable needs ambient dimension >= 6, got 2"),
        ("margin", {"observable": {"variant": "trig", "terms": [[1.0, 1.0, 4, 0.0]]}},
         "config field 'observable' invalid: observable needs ambient dimension >= 5, got 2"),
        ("genericity", {"observable": {"variant": "anchors", "points": [[0.1, 0.1, 0.1]],
                                       "values": [0.5], "radius": 0.1}},
         "config field 'observable' invalid: anchor dimension 3 != state dimension 2"),
    ], ids=["embed-short", "margin-gap", "perturb-gap", "genericity-gap", "margin-set-gap",
            "margin-delta", "perturb-delta", "genericity-delta", "margin-index-gap",
            "coordinate-axis", "trig-axis", "anchor-dimension"])
    def test_config_cause_named(self, tmp_path, base_config, capsys, cmd, update, message):
        # A library error whose cause is a config field names that field,
        # before any artifact is written.
        base_config.update(epsilon=0.05, trials=20, bump_scale=0.1,
                           pairs={"delta": 0.001, "count": 5})
        out = tmp_path / "out"
        assert run(cmd, write_config(tmp_path, base_config | update), out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.iterdir()) == []


class TestDeterminism:
    def test_margin_artifacts_byte_identical(self, tmp_path, base_config):
        base_config["pairs"] = {"delta": 0.01, "count": 40}
        cfg = write_config(tmp_path, base_config)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("margin", cfg, a) == 0
        assert run("margin", cfg, b) == 0
        for name in ("pairs.csv", "margin.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_perturb_artifacts_byte_identical(self, tmp_path, base_config):
        base_config["observable"] = {"variant": "constant", "value": 0.5}
        base_config["epsilon"] = 0.05
        base_config["pairs"] = {"delta": 0.01, "count": 40}
        cfg = write_config(tmp_path, base_config)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("perturb", cfg, a) == 0
        assert run("perturb", cfg, b) == 0
        for name in ("perturbed_observable.json", "perturb_report.json",
                     "config_out.json", "pairs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
