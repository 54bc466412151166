"""Benchmark of the grg command-line tool, driven as a user drives it.

Usage, with ``src/grg`` beside this directory:

    python3 perfbench/run.py --workload t2-pareto --seed 1 --seconds 20 --trace 0

Every operation is one ``grg`` process (``python3 -m grg.cli`` with
``src`` on the path), serial (``--threads 1``), with the workload seed
passed by ``--seed``.  The run repeats the workload's command, each time
after one ``grg --version`` that measures the start-up cost, until
``--seconds`` have passed, and checks every command's output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced commands; a traced command
runs under ``perfbench/tracer.py``, which times every public function of
each grg module from outside, and the per-layer metrics of
BENCHMARK.json are derived from its spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits
with 0 when every output check passed, 1 when one failed, and 2 without
a result when it cannot run at all (for example, without ``src/grg``).
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"

SETUP_SAMPLES = 5  # at least this many ``grg --version`` timings per run
MIN_OPS = 2  # untraced workload commands per run, at least
MIN_TRACED_OPS = 1
STOP_BY_S = 150.0  # start no iteration that could end after this
COMMAND_TIMEOUT_S = 100.0  # a grg process still running then is killed and fails

PARETO = {"kind": "pareto", "alpha": 1.5, "xm": 1.0}
PARETO_MEAN = 3.0  # alpha * xm / (alpha - 1)

# Acceptance configs 04, 07 and 03 with fewer replications, so that a
# command takes seconds; each keeps its model, n grid and dominant layer.
T2_CONFIG = {"model": PARETO, "n_grid": [200, 5000], "replications": 100,
             "master_seed": 314159, "theorem": "T2", "sampler": "fast"}
AUDIT_CONFIG = {"model": PARETO, "n_grid": [100, 1000, 10000], "replications": 2,
                "master_seed": 555, "theorem": "AUDIT", "t_values": [1.0]}
T1_CONFIG = {"model": {"kind": "exponential", "rate": 1.0}, "n_grid": [50, 2000],
             "replications": 500, "master_seed": 33, "theorem": "T1", "sampler": "fast"}
SAMPLE_MODEL = "paretolog:alpha=1.5,xm=1"
SAMPLE_N = 1_000_000

AUDIT_TERMS = ("selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    trace: dict | None = None


# ------------------------------------------------------------ workloads


class Workload:
    """One CLI command, repeated; ``args`` builds it, ``check`` vets its output."""

    name = ""

    def __init__(self, bench: "Bench"):
        self.bench = bench

    def args(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> str | None:
        """Return a description of what is wrong with the output, or None."""
        raise NotImplementedError

    def _config(self, config: dict) -> str:
        path = self.bench.work / f"{self.name}.json"
        path.write_text(json.dumps(config), encoding="ascii")
        return str(path)


class T2Pareto(Workload):
    name = "t2-pareto"

    def __init__(self, bench):
        super().__init__(bench)
        self.config = self._config(T2_CONFIG)

    def args(self, out):
        return ["experiment", "--config", self.config, "--out", str(out),
                "--threads", "1", "--seed", str(self.bench.seed)]

    def check(self, out):
        summary = json.loads((out / "summary.json").read_text())
        results = summary["results"]
        if [r["n"] for r in results] != T2_CONFIG["n_grid"]:
            return "summary.json n grid differs from the config"
        rows = _read_csv(out / "result.csv")
        for r in results:
            n, d = r["n"], r["ks_d"]
            if not 0.0 <= d <= 1.0:
                return f"ks_d={d} outside [0, 1] at n={n}"
            at_n = [row for row in rows if int(row["n"]) == n]
            if len(at_n) != T2_CONFIG["replications"]:
                return f"result.csv has {len(at_n)} rows at n={n}"
            edge = [float(row["statistic"]) for row in at_n]
            weight = [(float(row["L_n"]) - n * PARETO_MEAN) / r["a_n"] for row in at_n]
            if abs(_ks_two_sample(edge, weight) - d) > 1e-12:
                return f"ks_d={d} at n={n} does not match result.csv"
        trend = summary["trend"]
        values = [r["ks_d"] for r in results]
        if trend["values"] != values:
            return "trend values differ from the per-n ks_d"
        if trend["nonincreasing"] != all(b <= a for a, b in zip(values, values[1:])):
            return "trend.nonincreasing contradicts the ks_d values"
        return None


class AuditPareto(Workload):
    name = "audit-pareto"

    def __init__(self, bench):
        super().__init__(bench)
        self.config = self._config(AUDIT_CONFIG)

    def args(self, out):
        return ["audit", "--config", self.config, "--out", str(out),
                "--threads", "1", "--seed", str(self.bench.seed)]

    def check(self, out):
        summary = json.loads((out / "summary.json").read_text())
        results = summary["results"]
        if [p["n"] for p in results] != AUDIT_CONFIG["n_grid"]:
            return "summary.json n grid differs from the config"
        rows = _read_csv(out / "audit.csv")
        for t in AUDIT_CONFIG["t_values"]:
            medians = []
            for point in results:
                at = [row for row in rows if int(row["n"]) == point["n"] and float(row["t"]) == t]
                if len(at) != AUDIT_CONFIG["replications"]:
                    return f"audit.csv has {len(at)} rows at n={point['n']}, t={t}"
                med = {}
                for name in AUDIT_TERMS:
                    values = [float(row[name]) for row in at]
                    if not all(math.isfinite(v) and v > 0 for v in values):
                        return f"{name} not finite and positive at n={point['n']}"
                    med[name] = statistics.median(values)
                    if not math.isclose(med[name], point["medians"][str(t)][name], rel_tol=1e-12):
                        return f"median {name} at n={point['n']} does not match audit.csv"
                medians.append(med)
            verdicts = summary["median_trends_decreasing"][str(t)]
            for name in AUDIT_TERMS:
                decreasing = all(a[name] > b[name] for a, b in zip(medians, medians[1:]))
                if verdicts[name] != decreasing:
                    return f"median_trends_decreasing[{t}][{name}] contradicts the medians"
        return None


class SampleParetoLog(Workload):
    name = "sample-paretolog-1e6"

    def args(self, out):
        return ["sample", "--model", SAMPLE_MODEL, "--n", str(SAMPLE_N),
                "--seed", str(self.bench.seed), "--out", str(out / "summary.json")]

    def check(self, out):
        s = json.loads((out / "summary.json").read_text())
        n, edges = s["n"], s["edge_count"]
        if n != SAMPLE_N:
            return f"summary n={n}, expected {SAMPLE_N}"
        if s["degree_mean"] != 2 * edges / n:
            return f"handshake: degree_mean={s['degree_mean']} != 2*{edges}/{n}"
        if s["candidates_examined"] > 5 * (n + edges):
            return f"candidates_examined={s['candidates_examined']} > 5(n + E)"
        return None


class ReportT1(Workload):
    """``grg report`` on a T1 run made, untimed, when the run starts."""

    name = "report-t1"

    def __init__(self, bench):
        super().__init__(bench)
        self.run_dir = bench.work / "t1-run"
        config = self._config(T1_CONFIG)
        bench.cli(["experiment", "--config", config, "--out", str(self.run_dir),
                   "--threads", "1", "--seed", str(bench.seed)])

    def args(self, out):
        return ["report", "--run", str(self.run_dir), "--out", str(out), "--threads", "1"]

    def check(self, out):
        for name in ("result.csv", "summary.json"):
            if (out / name).read_bytes() != (self.run_dir / name).read_bytes():
                return f"re-rendered {name} differs from the original run's"
        return None


WORKLOADS = {w.name: w for w in (T2Pareto, AuditPareto, SampleParetoLog, ReportT1)}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _ks_two_sample(a, b) -> float:
    """Two-sample KS distance, computed independently of grg.stats."""
    a, b = sorted(a), sorted(b)
    return max(
        abs(bisect.bisect_right(a, x) / len(a) - bisect.bisect_right(b, x) / len(b))
        for x in a + b
    )


# --------------------------------------------------------------- runner


class Bench:
    """Runs grg commands in a scratch directory and counts failures."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def cli(self, args: list[str], spans: Path | None = None) -> Op:
        """Run one grg process; time it from launch to exit and read its peak RSS."""
        self.attempted += 1
        if spans is None:
            cmd = [sys.executable, "-m", "grg.cli", *args]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), *args]
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(f"grg {' '.join(args)} exited {proc.returncode}: {' '.join(tail)}")
        return Op(wall, usage.ru_maxrss / 1024.0, ok)

    def operation(self, workload: Workload, traced: bool = False) -> Op:
        """Run the workload's command once and check its output."""
        out = Path(tempfile.mkdtemp(prefix="op-", dir=self.work))
        spans = self.work / "spans.json" if traced else None
        op = self.cli(workload.args(out), spans)
        if op.ok:
            try:
                problem = workload.check(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                op.ok = False
                self.fail(f"{workload.name}: {problem}")
        if traced and spans.exists():
            op.trace = json.loads(spans.read_text())
        shutil.rmtree(out)
        return op


def measure(bench: Bench, workload: Workload, seconds: float, trace: bool):
    """Alternate ``grg --version`` and the workload until ``seconds`` have passed."""
    setup, ops, traced = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup.append(bench.cli(["--version"]).wall_s)
        ops.append(bench.operation(workload))
        if trace:
            traced.append(bench.operation(workload, traced=True))
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED_OPS if trace else len(ops) >= MIN_OPS
        if enough and (now - start >= seconds or now - start + (now - t0) > STOP_BY_S):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(bench.cli(["--version"]).wall_s)
    return setup, ops, traced


def end_to_end_metrics(bench: Bench, setup, ops) -> dict:
    return {
        "wall_s": statistics.median(op.wall_s for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
        "success_rate": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer_metrics(bench: Bench, setup, ops, traced) -> dict:
    """Per-function and per-layer self time, counters, and the tracing overhead."""
    tables = [op.trace for op in traced if op.trace is not None]
    if not tables:
        raise BenchError("no traced command wrote its spans")
    counts = tables[0]["counts"]
    for t in tables[1:]:
        # manifest.json holds timings, so only report.bytes_written may vary
        if {**t["counts"], "report.bytes_written": 0} != {**counts, "report.bytes_written": 0}:
            bench.fail(f"counters differ between traced commands with seed {bench.seed}")
    functions = tables[0]["functions"]
    per_op = [self_times(t["spans"]) for t in tables]
    metrics: dict = {}
    for name in functions:
        metrics[f"{name}.calls"] = per_op[0].get(name, [0, 0.0])[0]
        metrics[f"{name}.self_s"] = statistics.median(t.get(name, [0, 0.0])[1] for t in per_op)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            sum(row[1] for name, row in t.items() if name.startswith(layer + ".")) for t in per_op
        )
    for key in ("graph.candidates", "graph.edges", "graph.vertices", "weights.draws",
                "limits.audit_pairs", "stats.ks_points", "report.bytes_written", "report.files"):
        metrics[key] = counts.get(key, 0)
    visits = metrics["graph.vertices"] + metrics["graph.edges"]
    metrics["graph.candidate_ratio"] = metrics["graph.candidates"] / visits if visits else 0.0
    cand = metrics["graph.candidates"]
    metrics["graph.acceptance"] = metrics["graph.edges"] / cand if cand else 0.0
    untraced = statistics.median(op.wall_s for op in ops)
    traced_wall = statistics.median(op.wall_s for op in traced)
    accounted = statistics.median(sum(row[1] for row in t.values()) for t in per_op)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.unaccounted_s"] = untraced - statistics.median(setup) - accounted
    metrics["trace.spans"] = len(tables[0]["spans"])
    return metrics


# ----------------------------------------------------------- run record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_record(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "grg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ main


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    trace = bool(args.trace)
    try:
        if not (SRC / "grg" / "cli.py").is_file():
            raise BenchError(f"no grg sources under {SRC}")
        declared = declared_metrics(trace)
        record = run_record(args)
        (BENCH_DIR / ".work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
        try:
            bench = Bench(args.seed, work)
            bench.cli(["--version"])  # untimed: fills the bytecode and file caches
            workload = WORKLOADS[args.workload](bench)
            setup, ops, traced = measure(bench, workload, args.seconds, trace)
            if trace:
                computed = per_layer_metrics(bench, setup, ops, traced)
            else:
                computed = end_to_end_metrics(bench, setup, ops)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in declared if m["name"] not in computed]
        if missing:
            raise BenchError(f"BENCHMARK.json declares metrics this run does not compute: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"{args.workload}: {len(ops)} commands, {len(traced)} traced, "
          f"{len(setup)} start-up samples; {bench.failed} of {bench.attempted} operations failed")
    print("command wall_s: " + " ".join(f"{op.wall_s:.3f}" for op in ops))
    print("start-up wall_s: " + " ".join(f"{s:.3f}" for s in setup))
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    print(f"error_rate {bench.failed / bench.attempted:.6g} ratio")
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(computed):  # the traced run also lists undeclared functions
        print(f"{name} {computed[name]:.6g} {units.get(name, '')}".rstrip())
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
