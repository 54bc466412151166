"""Command-line interface: subcommands, config handling, exit codes."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grg
import grg.graph
import grg.limits
import grg.weights
from grg.cli import main, parse_model_spec
from grg import ExponentialWeights, ParameterError, ParetoWeights

PARETO = {"kind": "pareto", "alpha": 1.5, "xm": 1.0}
PARETOLOG = {"kind": "paretolog", "alpha": 1.5, "xm": 1.0}
# One small run per experiment kind, as overrides of write_config's T1 config.
TINY_RUNS = {
    "T1": {},
    "T2": {"model": PARETO, "theorem": "T2", "n_grid": [60, 150], "replications": 100},
    "LLN": {"theorem": "LLN", "n_grid": [400], "replications": 30},
    "AUDIT": {"model": PARETO, "theorem": "AUDIT", "n_grid": [60, 150], "replications": 4,
              "t_values": [0.5, 1.0]},
}
# sha256 of each TINY_RUNS run's summary.json.  A change to the code that builds the rows
# must keep every digit; only a change to the sampled law or to a statistic may move these.
TINY_SUMMARY_SHA256 = {
    "T1": "50dd5b42b74e9649daa6ea96a3186f44407143f45c34bb088d5774badd6e1886",
    "T2": "81a835bde54cdd547b2846bc854efda667789c1891597e6c914ae9e80bfee061",
    "LLN": "f0996182df9bafe7ce3769dc133927fdfe4845000f3fb1ade18fa1fa1445c18f",
    "AUDIT": "e5ea1df46f3e6e10f84757b2ce7aed01a214fd09c22e6e453f3db2b0f1015f83",
}
# sha256 of each TINY_RUNS run's result.csv or audit.csv, under the same rule.
TINY_TABLE_SHA256 = {
    "T1": "acdb34335c346b627ea8d6c99cdd6f397e917b8ff718feaa1c59bca18a6c28b8",
    "T2": "25fd0b23d4740b063c81070932a0bc5a7c5398c1654f3d393eccfd8815710dea",
    "LLN": "e014f7fb224f8b4b074439d35d20a0b5ed382087c8a4fcfdf475e17de51b4707",
    "AUDIT": "edbb035acce6b8468b6efa9598ef5682164062074da0d1154057f5f10a893964",
}


def write_config(path, **overrides):
    config = {
        "model": {"kind": "exponential", "rate": 1.0},
        "n_grid": [50, 120],
        "replications": 120,
        "master_seed": 314,
        "theorem": "T1",
        "sampler": "fast",
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestModelSpec:
    def test_parse_variants(self):
        assert parse_model_spec("pareto:alpha=1.5,xm=1") == ParetoWeights(1.5, 1.0)
        assert parse_model_spec("exponential:rate=2") == ExponentialWeights(2.0)

    def test_lambda_spelling(self):
        model = parse_model_spec("constant:lambda=2")
        assert model.lam == 2.0

    def test_bad_specs(self):
        with pytest.raises(ParameterError):
            parse_model_spec("pareto:alpha")
        with pytest.raises(ParameterError):
            parse_model_spec("nosuch:x=1")
        with pytest.raises(ParameterError):  # a repeated key
            parse_model_spec("pareto:alpha=1.5,xm=1,alpha=1.2")
        with pytest.raises(ParameterError):  # two spellings of one parameter
            parse_model_spec("constant:lam=1,lambda=2")


class TestSampleCommand:
    def test_summary_json(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(
            ["sample", "--model", "pareto:alpha=1.5,xm=1", "--n", "1000",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["n"] == 1000
        assert summary["seed"] == 7
        assert summary["edge_count"] > 0
        assert summary["model"] == {"kind": "pareto", "alpha": 1.5, "xm": 1.0}

    def test_edge_dump(self, tmp_path):
        edges = tmp_path / "edges.txt"
        code = main(
            ["sample", "--model", "exponential:rate=1", "--n", "40", "--seed", "3",
             "--out", str(tmp_path / "g.json"), "--edges", str(edges)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "g.json").read_text())
        assert len(edges.read_text().splitlines()) == summary["edge_count"]

    def test_lambda_too_large_is_config_error(self, tmp_path, capsys):
        code = main(["sample", "--model", "constant:lambda=60", "--n", "50",
                     "--seed", "1", "--out", str(tmp_path / "g.json")])
        assert code == 1

    def test_overflowing_weights_are_config_error(self, tmp_path, capsys):
        """Pareto(0.01) draws overflow to inf; no 'L_n': Infinity summary is written."""
        out = tmp_path / "g.json"
        code = main(["sample", "--model", "pareto:alpha=0.01,xm=1", "--n", "1000",
                     "--seed", "3", "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommand:
    def test_t1_run_emits_report(self, tmp_path):
        cfg = write_config(tmp_path / "t1.json")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        assert (out / "result.csv").exists()
        assert (out / "hist_50.svg").exists() and (out / "hist_120.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert {"n", "ks_d", "ks_p"} <= set(summary["results"][0])
        assert "trend" in summary
        manifest = json.loads((out / "manifest.json").read_text())
        listed = set(manifest["outputs"])
        produced = {p.name for p in out.iterdir()}
        assert listed == produced

    @pytest.mark.parametrize("kind", sorted(TINY_RUNS))
    def test_rerun_is_byte_identical(self, tmp_path, kind):
        """The CSV, summary.json and every SVG are the same bytes for --threads 1 and 2."""
        cfg = write_config(tmp_path / "c.json", **TINY_RUNS[kind])
        command = "audit" if kind == "AUDIT" else "experiment"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out1, "1"), (out2, "2")):
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
        payload = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert payload == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        assert "summary.json" in payload and any(name.endswith(".csv") for name in payload)
        assert (kind == "AUDIT") != any(name.endswith(".svg") for name in payload)
        for name in payload:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("kind", sorted(TINY_RUNS))
    def test_summary_bytes_are_pinned(self, tmp_path, kind):
        cfg = write_config(tmp_path / "c.json", **TINY_RUNS[kind])
        command = "audit" if kind == "AUDIT" else "experiment"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--threads", "1"]) == 0
        digest = hashlib.sha256((tmp_path / "run" / "summary.json").read_bytes()).hexdigest()
        assert digest == TINY_SUMMARY_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(TINY_RUNS))
    def test_table_bytes_are_pinned(self, finished_runs, kind):
        """finished_runs holds each TINY_RUNS run at --threads 1."""
        table = "audit.csv" if kind == "AUDIT" else "result.csv"
        digest = hashlib.sha256((finished_runs[kind] / table).read_bytes()).hexdigest()
        assert digest == TINY_TABLE_SHA256[kind]

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "t1.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        main(["experiment", "--config", str(cfg), "--out", str(out2), "--threads", "1",
              "--seed", "999"])
        assert (out1 / "result.csv").read_bytes() != (out2 / "result.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["master_seed"] == 999

    def test_t2_run_emits_qq_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "t2.json",
            model={"kind": "pareto", "alpha": 1.5, "xm": 1.0},
            theorem="T2",
            n_grid=[60, 150],
            replications=100,
        )
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "T2"
        assert "a_n" in summary["results"][0]
        for row in summary["results"]:
            assert 0.0 <= row["ks_d_compensated"] <= 1.0
            assert 0.0 <= row["ks_p_compensated"] <= 1.0
            assert math.isfinite(row["deficit_median"])
            assert math.isfinite(row["deficit_mean"])
        assert "polyline" in (out / "hist_60.svg").read_text()

    def test_lln_run_emits_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "lln.json", theorem="LLN", n_grid=[400], replications=30
        )
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "LLN"
        row = summary["results"][0]
        assert row["target"] == 0.5
        assert abs(row["mean_ratio"] - 0.5) < 0.1
        lines = (out / "result.csv").read_text().splitlines()
        assert len(lines) == 1 + 30

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "t1.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("GRG_SEED", "999")
        main(["experiment", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
        monkeypatch.delenv("GRG_SEED")
        main(["experiment", "--config", str(cfg), "--out", str(out2), "--threads", "1",
              "--seed", "999"])
        assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()

    def test_missing_config_is_exit_1(self, tmp_path):
        assert main(["experiment", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r")]) == 1

    def test_unwritable_output_is_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "t1.json", n_grid=[50], replications=100)
        assert main(["experiment", "--config", str(cfg),
                     "--out", "/dev/null/cannot", "--threads", "1"]) == 2

    def test_invalid_theorem_value(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", theorem="T9")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1

    def test_hypothesis_violation_is_exit_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json", model={"kind": "pareto", "alpha": 1.5, "xm": 1.0}
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1


class TestAuditCommand:
    def test_audit_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "audit.json",
            model={"kind": "pareto", "alpha": 1.5, "xm": 1.0},
            theorem="AUDIT",
            n_grid=[60, 150],
            replications=4,
            t_values=[1.0],
        )
        out = tmp_path / "audit"
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == 0
        lines = (out / "audit.csv").read_text().splitlines()
        assert lines[0].startswith("n,replication,t,c_n,a_n,selfloop_bound")
        assert len(lines) == 1 + 2 * 4  # grid x replications
        summary = json.loads((out / "summary.json").read_text())
        assert "median_trends_decreasing" in summary

    def test_experiment_refuses_audit_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "audit.json",
            model={"kind": "pareto", "alpha": 1.5, "xm": 1.0},
            theorem="AUDIT",
            replications=3,
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1


class TestLemma1Command:
    def test_csv_and_flag_note(self, tmp_path, capsys):
        out = tmp_path / "lemma.csv"
        code = main(["lemma1", "--model", "pareto:alpha=1.5,xm=1",
                     "--x", "1e2,1e4,1e6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(0.9)   # ratio_second at x=100
        assert float(row[4]) == pytest.approx(1.0)   # Karamata ratio
        assert float(row[5]) == pytest.approx(3.0)   # flagged alternative constant
        assert "disagrees" in capsys.readouterr().err

    def test_light_tail_rejected(self, tmp_path):
        assert main(["lemma1", "--model", "exponential:rate=1", "--x", "10"]) == 1

    @pytest.mark.parametrize("x", ["inf", "1e400", "100,nan", "abc", "10,x"])
    def test_nonfinite_truncation_point_is_exit_1(self, x, capsys):
        assert main(["lemma1", "--model", "pareto:alpha=1.5,xm=1", "--x", x]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("model, x", [("paretolog:alpha=1.5,xm=1e200", "1e201"),
                                          ("pareto:alpha=1.5,xm=1e150", "1e308")])
    def test_overflowing_moment_is_exit_2(self, model, x, capsys):
        """An exact moment beyond a double is a numerical failure, not an inf in the table."""
        assert main(["lemma1", "--model", model, "--x", x]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert "E[W^2; W <= " in err


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """One small finished run directory per experiment kind."""
    root = tmp_path_factory.mktemp("runs")
    runs = {}
    for kind, overrides in TINY_RUNS.items():
        cfg = write_config(root / f"{kind}.json", **overrides)
        runs[kind] = root / kind
        command = "audit" if kind == "AUDIT" else "experiment"
        assert main([command, "--config", str(cfg), "--out", str(runs[kind]),
                     "--threads", "1"]) == 0
    # run only by the start-up test
    write_config(root / "T2-paretolog.json", model=PARETOLOG, theorem="T2", n_grid=[60, 150],
                 replications=100)
    return runs


# Runs ``grg`` with the given arguments, then prints its exit code and the modules it loaded.
_LOADED_MODULES = """
import json, sys
from grg.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version leaves through argparse
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

# {runs} is the directory of the finished runs and their configs.
_SCIPY_FREE_PATHS = {
    "version": ["--version"],
    **{f"experiment-{kind}": ["experiment", "--config", f"{{runs}}/{kind}.json", "--out", "{out}",
                              "--threads", "1"] for kind in ("T1", "T2", "LLN", "T2-paretolog")},
    "audit": ["audit", "--config", "{runs}/AUDIT.json", "--out", "{out}", "--threads", "1"],
    **{f"report-{kind}": ["report", "--run", f"{{runs}}/{kind}", "--out", "{out}", "--threads", "1"]
       for kind in ("T1", "T2", "AUDIT")},
    "lemma1": ["lemma1", "--model", "pareto:alpha=1.5,xm=1", "--x", "10,1e3"],
    "sample-pareto": ["sample", "--model", "pareto:alpha=1.5,xm=1", "--n", "1000", "--seed", "3"],
    "sample-paretolog": ["sample", "--model", "paretolog:alpha=1.5,xm=1", "--n", "1000",
                         "--seed", "3"],
}


# The package's public names, each of which grg/__init__ loads on first use.
_PACKAGE_NAMES = (
    "BracketingError ConfigError DomainError GrgError HypothesisError "
    "ParameterError SizeError UnsupportedModelError derive_seed splitmix64 ConstantWeights "
    "ExponentialWeights GammaWeights LemmaRatios LogNormalWeights Moments ParetoLogWeights "
    "ParetoWeights TailParams WeightModel WeightVector analytic_moments compute_norming "
    "lemma1_ratio_check model_from_config model_to_config sample_weights tail_params "
    "truncated_first_moment_tail truncated_second_moment GraphSample "
    "conditional_edge_mean pair_sums sample_graph_fast write_edge_list StableParams sample_stable "
    "stable_cdf_batch KsResult kolmogorov_sf "
    "ks_one_sample ks_two_sample normal_cdf AuditTerms ExperimentConfig ExperimentResult "
    "normal_limit_statistic proof_audit run_experiment stable_limit_statistic "
    "RunManifest config_from_dict config_to_dict emit_report read_run"
).split()


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(grg.weights.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def _modules_loaded(argv: list[str], package: str) -> set[str]:
    """The modules of ``package`` that one ``grg`` command loads, in a fresh process."""
    proc = _run_python(["-c", _LOADED_MODULES, *argv])
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m for m in loaded if m.split(".")[0] == package}


class TestStartup:
    """Each command imports only what it computes with, and nothing in grg loads scipy."""

    @pytest.mark.parametrize("path", sorted(_SCIPY_FREE_PATHS))
    def test_no_scipy(self, finished_runs, tmp_path, path):
        runs = finished_runs["T1"].parent
        argv = [arg.format(runs=runs, out=tmp_path / "out") for arg in _SCIPY_FREE_PATHS[path]]
        assert _modules_loaded(argv, "scipy") == set()

    @pytest.mark.parametrize("path", ["version", "sample-pareto"])
    def test_sample_loads_no_experiment_modules(self, path):
        """``--version`` and ``sample`` load neither the experiment nor the report layer."""
        loaded = _modules_loaded(_SCIPY_FREE_PATHS[path], "grg")
        assert "grg.weights" in loaded
        assert loaded.isdisjoint({"grg.limits", "grg.report", "grg.stats", "grg.stable"}), loaded

    @pytest.mark.parametrize("path", ["experiment-T1", "experiment-T2", "experiment-LLN", "audit",
                                      "report-T1", "report-T2", "report-AUDIT"])
    def test_no_numpy_ma(self, finished_runs, tmp_path, path):
        """Medians are sorted middles: np.median would load numpy.ma, about 17 ms per process."""
        runs = finished_runs["T1"].parent
        argv = [arg.format(runs=runs, out=tmp_path / "out") for arg in _SCIPY_FREE_PATHS[path]]
        assert "numpy.ma" not in _modules_loaded(argv, "numpy")

    def test_scipy_only_in_stable(self):
        """Library calls too, not only command paths: no module mentions scipy, stable included."""
        sources = Path(grg.weights.__file__).parent.glob("*.py")
        assert {p.name for p in sources if "scipy" in p.read_text()} == set()

    def test_stable_law_loads_no_scipy(self):
        """``grg.stable``, scipy's last user, computes its CDF in a fresh process without it."""
        code = ("import json, sys\n"
                "from grg.stable import StableParams, sample_stable, stable_cdf_batch\n"
                "p = StableParams(1.5, 1.0)\n"
                "assert stable_cdf_batch(sample_stable(p, 3000, seed=1), p).shape == (3000,)\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        proc = _run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_package_names_resolve(self):
        """Every name grg imported eagerly still imports from ``grg``, also in a fresh process."""
        assert sorted(grg.__all__) == sorted(_PACKAGE_NAMES)
        proc = _run_python(["-c", f"from grg import {', '.join(_PACKAGE_NAMES)}"])
        assert proc.returncode == 0, proc.stderr
        for name in _PACKAGE_NAMES:  # the very object its module defines
            value = getattr(grg, name)
            assert getattr(sys.modules[f"grg.{grg._MODULE_OF[name]}"], name) is value, name
        with pytest.raises(AttributeError):
            grg.no_such_name  # noqa: B018


def report_on_copy(run: Path, name: str, data: bytes | None):
    """``grg report`` on a copy of ``run`` whose file ``name`` holds ``data``.

    ``data=None`` deletes the file.  Returns the exit code, stderr and
    the bytes of every file the report wrote.
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy, out = Path(tmp) / "run", Path(tmp) / "out"
        shutil.copytree(run, copy)
        if data is None:
            (copy / name).unlink()
        else:
            (copy / name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--run", str(copy), "--out", str(out), "--threads", "1"])
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, err.getvalue(), written


def edit_csv(text: str, row: int, column: int, edit) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = edit(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def swap_rows(text: str) -> str:
    lines = text.split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    return "\n".join(lines)


def impossible_edge_count(text: str) -> str:
    """T1 replication 0 at n = 50 given 10^6 edges, above 50 * 49 / 2, with its statistic."""
    mom = grg.analytic_moments(ExponentialWeights(1.0), 50)
    statistic = grg.normal_limit_statistic(10**6, 50, mom.ew, mom.var_w)
    text = edit_csv(text, 1, 3, lambda f: str(10**6))
    return edit_csv(text, 1, 2, lambda f: repr(statistic))


MALFORMED_RUNS = {
    "manifest-not-json": ("T1", "manifest.json", lambda text: text[:-5]),
    "manifest-without-config": ("T1", "manifest.json", lambda text: '{"outputs": []}'),
    "manifest-not-an-object": ("T1", "manifest.json", lambda text: "[1, 2]"),
    "csv-missing": ("T1", "result.csv", None),
    "csv-truncated-mid-row": ("T1", "result.csv", lambda text: text[: len(text) // 2]),
    "csv-last-row-dropped": (
        "LLN", "result.csv", lambda text: text[: text.rindex("\n", 0, -1) + 1]
    ),
    "csv-bad-header": ("T1", "result.csv", lambda text: "n,rep" + text[text.index("\n"):]),
    "csv-non-numeric": ("T1", "result.csv", lambda text: edit_csv(text, 1, 3, lambda f: "many")),
    "csv-not-finite": ("T1", "result.csv", lambda text: edit_csv(text, 1, 4, lambda f: "nan")),
    "csv-rows-out-of-order": ("T1", "result.csv", swap_rows),
    "csv-impossible-edge-count": ("T1", "result.csv", impossible_edge_count),
    "csv-statistic-disagrees": (
        "LLN", "result.csv", lambda text: edit_csv(text, 1, 3, lambda f: str(int(f) + 1))
    ),
    "t2-l_n-not-reproduced": (
        "T2", "result.csv",
        lambda text: edit_csv(text, 1, 4, lambda f: repr(math.nextafter(float(f), math.inf))),
    ),
    "t1-master-seed-differs": (
        "T1", "manifest.json", lambda text: text.replace('"master_seed": 314', '"master_seed": 315')
    ),
    "lln-master-seed-differs": (
        "LLN", "manifest.json", lambda text: text.replace('"master_seed": 314', '"master_seed": 315')
    ),
    "audit-csv-truncated": ("AUDIT", "audit.csv", lambda text: text[:-3]),
    "audit-t-values-differ": (
        "AUDIT", "manifest.json", lambda text: text.replace("0.5", "0.25", 1)
    ),
    "audit-norming-differs": (
        "AUDIT", "audit.csv", lambda text: edit_csv(text, 1, 4, lambda f: repr(float(f) * 2))
    ),
    "audit-rows-out-of-order": ("AUDIT", "audit.csv", swap_rows),
    "audit-csv-bad-header": (
        "AUDIT", "audit.csv", lambda text: "n,replication,t" + text[text.index("\n"):]
    ),
    "audit-term-not-finite": (  # t_c of the first row
        "AUDIT", "audit.csv", lambda text: edit_csv(text, 1, 10, lambda f: "nan")
    ),
}


class TestReportCommand:
    def test_regenerate_from_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "t1.json", n_grid=[60], replications=100)
        out = tmp_path / "run"
        main(["experiment", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        before = (out / "summary.json").read_bytes()
        assert main(["report", "--run", str(out), "--threads", "1"]) == 0
        assert (out / "summary.json").read_bytes() == before

    def test_missing_manifest(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 1

    @pytest.mark.parametrize("kind", ["T1", "T2", "LLN", "AUDIT"])
    def test_round_trip_without_resimulating(self, finished_runs, kind, tmp_path, monkeypatch):
        """Every payload file is rebuilt byte for byte from the run's own table."""

        def resimulated(*args, **kwargs):
            raise AssertionError("grg report re-simulated the run")

        for module in (grg.graph, grg.limits):
            monkeypatch.setattr(module, "sample_graph_fast", resimulated)
        monkeypatch.setattr(grg.limits, "proof_audit", resimulated)
        if kind == "AUDIT":  # the pair moments are exact: no weights are drawn
            for module in (grg.weights, grg.limits):
                monkeypatch.setattr(module, "sample_weights", resimulated)
        run, out = finished_runs[kind], tmp_path / "again"
        assert main(["report", "--run", str(run), "--out", str(out), "--threads", "1"]) == 0
        payload = sorted(p.name for p in run.iterdir())
        assert sorted(p.name for p in out.iterdir()) == payload
        for name in payload:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (run / name).read_bytes(), name
        before, after = (json.loads((d / "manifest.json").read_text()) for d in (run, out))
        seconds = [m["wall_clock_seconds"]["experiment"] for m in (before, after)]
        assert seconds[0] == seconds[1]
        assert after["config"] == before["config"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_RUNS))
    def test_malformed_run_is_exit_1(self, finished_runs, case):
        kind, name, corrupt = MALFORMED_RUNS[case]
        run = finished_runs[kind]
        data = None if corrupt is None else corrupt((run / name).read_text()).encode()
        code, err, written = report_on_copy(run, name, data)
        assert code == 1, err
        assert err.startswith("config error:") and "Traceback" not in err
        assert written == {}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["T1", "T2", "LLN", "AUDIT"]),
        which=st.sampled_from(["manifest.json", "table"]),
        data=st.data(),
    )
    def test_truncated_file_is_exit_1(self, finished_runs, kind, which, data):
        run = finished_runs[kind]
        if which == "table":
            which = "audit.csv" if kind == "AUDIT" else "result.csv"
        raw = (run / which).read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 2), label="kept bytes")
        code, err, written = report_on_copy(run, which, raw[:cut])
        assert code == 1 and "Traceback" not in err, err
        assert written == {}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(which=st.sampled_from(["manifest.json", "result.csv"]), data=st.data())
    def test_corrupted_byte_never_changes_the_table(self, finished_runs, which, data):
        """A changed byte is rejected with exit 1 or 2, or leaves result.csv as it was.

        On a T2 run every column of result.csv is checked: n and
        replication against the config, the statistic against edge_count,
        and L_n against the re-drawn weights.
        """
        run = finished_runs["T2"]
        raw = (run / which).read_bytes()
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
        code, err, written = report_on_copy(run, which, raw[:pos] + bytes([byte]) + raw[pos + 1:])
        assert "Traceback" not in err
        assert code in (0, 1, 2), err
        if code == 0:
            assert written["result.csv"] == (run / "result.csv").read_bytes()
        else:
            assert written == {}


def run_cli(argv):
    """Exit code and stderr of ``grg <argv>``, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


TINY_T1 = {"model": {"kind": "exponential", "rate": 1.0}, "n_grid": [20], "replications": 100,
           "master_seed": 3, "theorem": "T1", "sampler": "fast"}
REQUIRED_FIELDS = ("model", "n_grid", "replications", "master_seed", "theorem")
JUNK = [None, "x", [None], math.nan, math.inf, -math.inf]
# Values that no field of TINY_T1 accepts, by field.
# (field, value) pairs that each ran, until they were refused, with other values in their
# place; in the order they were found, which fixes the test ids.
READ_AS_OTHER_VALUES = [
    ("model", {"kind": "exponential", "rate": True}),
    ("model", {"kind": "pareto", "alpha": 2.5, "xm": True}),  # T1 refuses alpha = 1.5 anyway
    *(("n_grid", v) for v in ([200.7, 5000], "59", [5000, 200], [20, 20], [True, 30], ["20"])),
    *(("replications", v) for v in (100.9, True, "100")),
    *(("master_seed", v) for v in (1.5, True, "3")),
    ("t_values", "10"),
    ("model", {"kind": "pareto", "alpha": "2.5", "xm": 1}),  # T1 would run it at alpha = 2.5
    ("t_values", [True, "2"]),
]
# Configs whose closed-form moments or audit terms overflow a float, by test id, each with
# the quantity that the error must name.
OVERFLOWING = {
    "lognormal": ({**TINY_T1, "model": {"kind": "lognormal", "mu": 0, "sigma": 30}}, "E[W^2]"),
    "pareto": ({**TINY_T1, "model": {"kind": "pareto", "alpha": 2.5, "xm": 1e300}}, "xm**alpha"),
    "audit": ({**TINY_T1, "model": PARETO, "theorem": "AUDIT", "replications": 2,
               "t_values": [1e308]}, "selfloop_bound"),
    # each law below has a finite second moment, which T1 once refused as infinite
    "gamma-shape": ({**TINY_T1, "model": {"kind": "gamma", "shape": 1e300, "scale": 1}},
                    "E[W^2]"),
    "exponential-rate": ({**TINY_T1, "model": {"kind": "exponential", "rate": 1e-300}},
                         "E[W^2]"),
    "gamma-scale": ({**TINY_T1, "model": {"kind": "gamma", "shape": 1, "scale": 1e300}},
                    "Var W"),
    "lognormal-mu": ({**TINY_T1, "model": {"kind": "lognormal", "mu": 700, "sigma": 1}},
                     "E[W^2]"),
    # |t|^3 is a double, but its product with L_n in i1_bound is not; it was written as inf
    "audit-product": ({**TINY_T1, "model": PARETO, "theorem": "AUDIT", "replications": 2,
                       "t_values": [5e102]}, "i1_bound"),
    # sum(W^2)/n squared overflows in i3_bound; c_n**3 overflows too, but only in
    # i1_bound's denominator, so i1_bound stays finite and i3_bound is named
    "audit-xm": ({**TINY_T1, "model": {"kind": "pareto", "alpha": 1.5, "xm": 1e120},
                  "theorem": "AUDIT", "replications": 2}, "i3_bound"),
}
INVALID_FIELDS = {
    "model": JUNK + [[], {}, {"kind": "nosuch"}, {"kind": "exponential"},
                     {"kind": "exponential", "rate": -1.0},
                     {"kind": "exponential", "rate": math.inf},
                     {"kind": "exponential", "rate": 1.0, "shape": 2.0}],
    "n_grid": JUNK + [5, [], {}, [1], [-3], ["x"], [math.nan], [math.inf], [10**30]],
    "replications": JUNK + [[], {}, -1, 0, 99],
    "master_seed": JUNK + [[], {}, [3]],
    "theorem": JUNK + [5, "T3", "t1", ""],
    "sampler": JUNK + [5, "slow", ""],
    "t_values": JUNK + [5, ["x"], [math.nan], [math.inf]],
}
for _key, _value in READ_AS_OTHER_VALUES:
    INVALID_FIELDS[_key] = INVALID_FIELDS[_key] + [_value]


def invalid_field():
    return st.sampled_from(sorted(INVALID_FIELDS)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(INVALID_FIELDS[key]))
    )


class TestMalformedInput:
    """Bad configs, model specs and flags exit 1 or 2, never with a traceback."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(edit=st.one_of(invalid_field(),
                          st.tuples(st.sampled_from(REQUIRED_FIELDS), st.just(None))),
           delete=st.booleans())
    def test_config_with_a_bad_field(self, tmp_path_factory, edit, delete):
        key, value = edit
        config = dict(TINY_T1)
        if delete and key in REQUIRED_FIELDS:
            del config[key]
        else:
            config[key] = value
        root = tmp_path_factory.mktemp("cfg")
        (root / "c.json").write_text(json.dumps(config))
        code, err = run_cli(["experiment", "--config", str(root / "c.json"),
                             "--out", str(root / "out"), "--threads", "1"])
        assert code in (1, 2) and "Traceback" not in err, (config, err)
        assert not (root / "out").exists()

    @pytest.mark.parametrize("key, value", READ_AS_OTHER_VALUES)
    def test_config_field_never_read_as_another_value(self, tmp_path, key, value):
        """A fraction, a bool, a string or an unordered grid is a config error, not a rounding."""
        (tmp_path / "c.json").write_text(json.dumps({**TINY_T1, key: value}))
        code, err = run_cli(["experiment", "--config", str(tmp_path / "c.json"),
                             "--out", str(tmp_path / "out"), "--threads", "1"])
        assert code == 1 and err.startswith("config error:"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", list(OVERFLOWING))
    def test_overflow_is_a_numerical_failure(self, tmp_path, case):
        config, quantity = OVERFLOWING[case]
        (tmp_path / "c.json").write_text(json.dumps(config))
        command = "audit" if config["theorem"] == "AUDIT" else "experiment"
        code, err = run_cli([command, "--config", str(tmp_path / "c.json"),
                             "--out", str(tmp_path / "out"), "--threads", "1"])
        assert code == 2 and err.startswith("numerical failure:"), err
        assert quantity in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(raw=st.one_of(st.text(max_size=30), st.binary(max_size=30),
                         st.sampled_from(["[]", "null", "5", '"T1"', "{", "NaN"])))
    def test_config_file_that_is_not_a_config(self, tmp_path_factory, raw):
        root = tmp_path_factory.mktemp("cfg")
        path = root / "c.json"
        path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
        code, err = run_cli(["experiment", "--config", str(path), "--out", str(root / "out")])
        assert code == 1 and "Traceback" not in err, err

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(spec=st.one_of(
        st.text(alphabet="abceilmnoprstxg:=,.-+0123456789", max_size=30),
        st.builds("{}:{}={}".format,
                  st.sampled_from(["pareto", "paretolog", "exponential", "gamma", "constant"]),
                  st.sampled_from(["alpha", "xm", "rate", "lam", "lambda", "shape", "kind", ""]),
                  st.sampled_from(["1.5", "0", "-1", "nan", "inf", "-inf", "1e400", "1e-320",
                                   "x", ""])),
    ))
    def test_model_spec(self, spec):
        try:
            parse_model_spec(spec)
            parsed = True
        except ParameterError:
            parsed = False
        code, err = run_cli(["sample", f"--model={spec}", "--n", "5", "--seed", "1"])
        assert "Traceback" not in err, err
        assert code in ((0, 1) if parsed else (1,)), (spec, err)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(flag=st.sampled_from(["--n", "--threads", "--seed"]), data=st.data())
    def test_integer_flag(self, tmp_path_factory, flag, data):
        """Out-of-range or non-integer --n and --threads, and any --seed.

        Only invalid --threads values are drawn, so that no worker starts;
        TestThreads checks how many workers a valid value starts.
        """
        junk = st.text(max_size=12).filter(not_an_int)
        if flag == "--n":
            value = data.draw(st.one_of(st.integers(max_value=1).map(str),
                                        st.integers(min_value=2**32 + 1).map(str), junk))
        elif flag == "--threads":
            value = data.draw(st.one_of(st.integers(max_value=-1).map(str), junk))
        else:
            value = data.draw(st.one_of(st.integers().map(str), junk))
        if flag == "--threads":
            root = tmp_path_factory.mktemp("cfg")
            cfg = write_config(root / "c.json", n_grid=[20], replications=100)
            argv = ["experiment", "--config", str(cfg), "--out", str(root / "out")]
        else:
            argv = ["sample", "--model", "exponential:rate=1", "--n", "5", "--seed", "1"]
        code, err = run_cli(argv + [f"{flag}={value}"])
        assert "Traceback" not in err, err
        expected = 0 if flag == "--seed" and not not_an_int(value) else 1
        assert code == expected, (flag, value, err)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps in this process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestThreads:
    """--threads starts at most one worker per core and one per task; no process starts here."""

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(RecordingExecutor, "started", [])
        return RecordingExecutor.started

    def test_workers_are_capped(self, pool):
        cases = [(100_000, 10, 3), (0, 10, 3), (2, 10, 2), (100_000, 2, 2), (1, 10, 1),
                 (0, 1, 1)]
        for threads, tasks, workers in cases:
            pool.clear()
            assert grg.limits._map_ordered(abs, range(-tasks, 0), threads) == list(
                range(tasks, 0, -1))
            assert pool == ([workers] if workers > 1 else []), (threads, tasks)

    def test_huge_thread_count_keeps_the_payload(self, pool, tmp_path):
        cfg = write_config(tmp_path / "t1.json", n_grid=[20, 30], replications=100)
        for out, threads in (("serial", "1"), ("huge", "100000")):
            assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / out),
                         "--threads", threads]) == 0
        assert pool == [3, 3]
        serial, huge = tmp_path / "serial", tmp_path / "huge"
        for name in ("result.csv", "summary.json", "hist_20.svg", "hist_30.svg"):
            assert (huge / name).read_bytes() == (serial / name).read_bytes(), name


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["sample", "experiment", "audit"])
    @pytest.mark.parametrize("sampler", ["naive", "fast"])
    def test_sampler_flag_is_gone(self, command, sampler, tmp_path):
        """There is one sampler, so no command takes --sampler."""
        if command == "sample":
            argv = ["sample", "--model", "exponential:rate=1", "--n", "10"]
        else:
            argv = [command, "--config", str(write_config(tmp_path / "c.json")),
                    "--out", str(tmp_path / "out")]
        code, err = run_cli(argv + ["--sampler", sampler])
        assert code == 1 and err.startswith("usage error:") and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["experiment", "audit"])
    def test_config_naming_the_naive_sampler(self, command, tmp_path):
        """An old run's "sampler": "naive" is refused: the run would not be what it says."""
        cfg = write_config(tmp_path / "c.json", sampler="naive")
        code, err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1 and err.startswith("config error:") and "'sampler'" in err, err
        assert not (tmp_path / "out").exists()

    def test_graph_seed_flag_is_gone(self):
        """The summary records no graph seed, so none may be chosen: it is always seed+1."""
        code, err = run_cli(["sample", "--model", "exponential:rate=1", "--n", "10",
                             "--graph-seed", "3"])
        assert code == 1 and err.startswith("usage error:") and "Traceback" not in err, err

    def test_unknown_flag(self):
        assert main(["sample", "--model", "pareto:alpha=1.5,xm=1", "--n", "10",
                     "--bogus", "1"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
