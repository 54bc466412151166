"""Result persistence: CSV, summary JSON, SVG figures, run manifest.

Payload files (result.csv, audit.csv, summary.json, the SVGs) are byte
stable: re-running the same config and master seed reproduces them
exactly.  Timestamps and wall-clock numbers live only in manifest.json.

CSV schema (fixed): ``n,replication,statistic,edge_count,L_n``.  For
the stable-limit experiment the ``statistic`` column holds the edge
statistic; the weight-sum statistic is recoverable from the L_n column.
Floats are written with repr, which round-trips, so :func:`read_run`
rebuilds a finished run's table exactly and derives its result again.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .limits import (
    AUDIT_TERM_NAMES,
    AuditTerms,
    ExperimentConfig,
    ExperimentResult,
    audit_pair_moments,
    derive_result,
    replicate_edges,
    replication_weights,
)
from .stats import median
from .weights import compute_norming, model_from_config, model_to_config

__all__ = ["RunManifest", "emit_report", "read_run", "read_json", "config_to_dict",
           "config_from_dict"]

SCHEMA_VERSION = 1
RESULT_CSV_HEADER = "n,replication,statistic,edge_count,L_n"
_AUDIT_FIELDS = ("t", "c_n", "a_n", *AUDIT_TERM_NAMES)
AUDIT_CSV_HEADER = "n,replication," + ",".join(_AUDIT_FIELDS)


@dataclass(eq=False)
class RunManifest:
    """The contents of manifest.json, which :func:`emit_report` writes."""

    config: dict
    artifact_version: str
    master_seed: int
    wall_clock_seconds: dict
    outputs: list[str]
    created_unix: float


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "model": model_to_config(config.model),
        "n_grid": [int(n) for n in config.n_grid],
        "replications": config.replications,
        "master_seed": config.master_seed,
        "theorem": config.theorem,
        "sampler": "fast",  # the one sampler, still recorded in every payload
        "t_values": list(config.t_values),
    }


def _number(value, field: str, integral: bool = False):
    """A JSON number, such as 0.5 or 1e6; a bool or a string is refused, and a
    fraction too where ``integral``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            integral and value != int(value)):
        what = "integral" if integral else "a number"
        raise ConfigError(f"config field {field!r} must be {what}, got {value!r}")
    return int(value) if integral else float(value)


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"config field {field!r} must be an array, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config of a JSON object; an optional "sampler" key must read "fast"."""
    try:
        config = ExperimentConfig(
            model=model_from_config(raw["model"]),
            n_grid=tuple(_number(n, "n_grid", True) for n in _array(raw["n_grid"], "n_grid")),
            replications=_number(raw["replications"], "replications", True),
            master_seed=_number(raw["master_seed"], "master_seed", True),
            theorem=str(raw["theorem"]),
            t_values=tuple(_number(t, "t_values")
                           for t in _array(raw.get("t_values", [1.0]), "t_values")),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required field {exc}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config: {exc}") from None
    if raw.get("sampler", "fast") != "fast":
        raise ConfigError(f"config field 'sampler' must be 'fast', got {raw['sampler']!r}")
    return config


def read_json(path, what: str):
    """Parse a JSON file; ConfigError if it cannot be read or is not JSON."""
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# ----------------------------------------------------------------- SVG

_SVG_W, _SVG_H, _MARGIN = 640, 420, 45


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _scaler(lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0

    def to_px(v):
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return to_px


def _write_histogram_svg(path: Path, values: np.ndarray, title: str, overlay=None,
                         vline: float | None = None) -> None:
    """Density-normalized histogram bars plus an optional polyline overlay."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    bins = min(60, max(10, int(math.sqrt(len(values)))))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi), density=True)
    ymax = float(counts.max()) if counts.max() > 0 else 1.0
    if overlay is not None:
        ymax = max(ymax, float(np.max(overlay[1])))
    x_px = _scaler(lo, hi, _MARGIN, _SVG_W - _MARGIN)
    y_px = _scaler(0.0, 1.05 * ymax, _SVG_H - _MARGIN, 30.0)
    parts = _svg_open(title)
    for k, c in enumerate(counts):
        x0, x1 = x_px(edges[k]), x_px(edges[k + 1])
        y0 = y_px(float(c))
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{(_SVG_H - _MARGIN) - y0:.2f}" fill="#9ecae1" stroke="#3182bd" stroke-width="0.5"/>'
        )
    if overlay is not None:
        ox, oy = overlay
        pts = " ".join(f"{x_px(float(x)):.2f},{y_px(float(y)):.2f}" for x, y in zip(ox, oy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#de2d26" stroke-width="1.5"/>')
    if vline is not None and lo <= vline <= hi:
        parts.append(
            f'<line x1="{x_px(vline):.2f}" y1="30" x2="{x_px(vline):.2f}" '
            f'y2="{_SVG_H - _MARGIN}" stroke="#de2d26" stroke-width="1.5" stroke-dasharray="5,4"/>'
        )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{x_px(v):.2f}" y="{_SVG_H - _MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{v:.3g}</text>'
        )
    _write_lines(path, parts + ["</svg>"])


def _write_qq_svg(path: Path, a: np.ndarray, b: np.ndarray, title: str,
                  xlabel: str, ylabel: str) -> None:
    """Quantile-quantile polyline of two equally sized samples, with y = x."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    lo = float(min(a[0], b[0]))
    hi = float(max(a[-1], b[-1]))
    x_px = _scaler(lo, hi, _MARGIN, _SVG_W - _MARGIN)
    y_px = _scaler(lo, hi, _SVG_H - _MARGIN, 30.0)
    parts = _svg_open(title)
    parts.append(
        f'<line x1="{x_px(lo):.2f}" y1="{y_px(lo):.2f}" x2="{x_px(hi):.2f}" '
        f'y2="{y_px(hi):.2f}" stroke="#999999" stroke-width="1" stroke-dasharray="4,4"/>'
    )
    pts = " ".join(f"{x_px(float(x)):.2f},{y_px(float(y)):.2f}" for x, y in zip(a, b))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#3182bd" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_SVG_H / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_SVG_H / 2})">{ylabel}</text>'
    )
    _write_lines(path, parts + ["</svg>"])


# ------------------------------------------------------------- reports


def _ks_summary(run) -> dict:
    ks = run.ks
    return {"n": run.n, "ks_d": ks.d_stat, "ks_p": ks.p_value, "n_effective": ks.n_effective}


def _t1_summary(run) -> dict:
    values = run.statistic
    return {**_ks_summary(run), "mean": float(values.mean()), "std": float(values.std())}


def _t2_summary(run) -> dict:
    return {
        **_ks_summary(run),
        "a_n": run.a_n,
        "edge_stat_median": median(run.statistic),
        "weight_stat_median": median(run.weight_statistic),
        "deficit_median": median(run.deficits),
        "deficit_mean": float(run.deficits.mean()),
        "ks_d_compensated": run.ks_compensated.d_stat,
        "ks_p_compensated": run.ks_compensated.p_value,
    }


def _lln_summary(run) -> dict:
    return {"n": run.n, "mean_ratio": run.mean_ratio, "std_ratio": run.std_ratio,
            "target": run.target, "abs_error": abs(run.mean_ratio - run.target)}


def _audit_summary(point) -> dict:
    return {
        "n": point.n,
        "c_n": point.c_n,
        "a_n": point.a_n,
        "medians": {str(t): med for t, med in point.medians().items()},
        "pair_moment_small": point.pair_moment_small,
        "pair_moment_large": point.pair_moment_large,
    }


def _t1_figure(path: Path, run) -> None:
    """Histogram of the normalized edge count under the standard normal density."""
    values = run.statistic
    xs = np.linspace(float(values.min()), float(values.max()), 200)
    pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    _write_histogram_svg(path, values, f"normalized edge count, n={run.n} (normal overlay)",
                         overlay=(xs, pdf))


def _t2_figure(path: Path, run) -> None:
    _write_qq_svg(path, run.weight_statistic, run.statistic,
                  f"weight-sum vs edge statistic quantiles, n={run.n}",
                  "weight-sum statistic", "edge statistic")


def _lln_figure(path: Path, run) -> None:
    _write_histogram_svg(path, run.statistic, f"edges per vertex, n={run.n} (dashed line: EW/2)",
                         vline=run.target)


_KINDS = {
    "T1": (_t1_summary, _t1_figure),
    "T2": (_t2_summary, _t2_figure),
    "LLN": (_lln_summary, _lln_figure),
    "AUDIT": (_audit_summary, None),
}


def emit_report(result: ExperimentResult, out_dir) -> RunManifest:
    """Write result.csv / audit.csv, summary.json, figures and manifest.

    Returns the manifest, which lists every emitted file.  Raises
    ConfigError before touching the filesystem if the result is empty.
    """
    t0 = time.perf_counter()
    if not result.runs:
        raise ConfigError("empty result: nothing to report")
    config = result.config
    summary_row, figure = _KINDS[config.theorem]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": config.theorem,
        "config": config_to_dict(config),
        "results": [summary_row(run) for run in result.runs],
        **result.trends,
    }
    if config.theorem == "AUDIT":
        outputs = ["audit.csv"]
        n_t = len(config.t_values)
        lines = [AUDIT_CSV_HEADER]
        for point in result.runs:
            for k, term in enumerate(point.terms):
                values = ",".join(repr(getattr(term, name)) for name in _AUDIT_FIELDS)
                lines.append(f"{term.n},{k // n_t},{values}")
        summary["remainder_coeff_bound"] = 0.5
    else:
        outputs = ["result.csv"]
        lines = [RESULT_CSV_HEADER]
        for run in result.runs:
            columns = zip(run.statistic, run.edge_counts, run.weight_sums)
            for rep, (stat, ec, l_n) in enumerate(columns):
                lines.append(f"{run.n},{rep},{float(stat)!r},{int(ec)},{float(l_n)!r}")
            outputs.append(f"hist_{run.n}.svg")
            figure(out / outputs[-1], run)
    _write_lines(out / outputs[0], lines)
    _json_dump(out / "summary.json", summary)
    manifest = RunManifest(
        config=config_to_dict(config),
        artifact_version=__version__,
        master_seed=config.master_seed,
        wall_clock_seconds={
            "experiment": round(result.elapsed_seconds, 6),
            "report": round(time.perf_counter() - t0, 6),
        },
        outputs=sorted(outputs + ["summary.json", "manifest.json"]),
        created_unix=time.time(),
    )
    _json_dump(out / "manifest.json", asdict(manifest))
    return manifest


# ------------------------------------------------------------ read back


def _count(field: str) -> int:
    value = int(field)
    if not 0 <= value < 2**63:
        raise ValueError(f"{field!r} is not a count")
    return value


def _finite(field: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"{field!r} is not finite")
    return value


def _read_csv(path: Path, header: str, types: tuple, n_rows: int) -> list[list]:
    """The parsed rows of a complete CSV that has ``header`` and ``n_rows`` rows."""
    try:
        lines = path.read_bytes().decode("ascii").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path.name}: {exc}") from None
    if lines[0] != header or lines[-1] != "" or len(lines) != n_rows + 2:
        raise ConfigError(f"{path.name} is not a complete table of the manifest's {n_rows} rows")
    try:
        return [
            [parse(field) for parse, field in zip(types, line.split(","), strict=True)]
            for line in lines[1:-1]
        ]
    except ValueError as exc:
        raise ConfigError(f"{path.name} has a malformed row: {exc}") from None


def _read_result_table(path: Path, config: ExperimentConfig, threads: int):
    """Per n, the table row for ``derive_result`` and the statistic column."""
    reps = config.replications
    types = (_count, _count, _finite, _count, _finite)
    rows = _read_csv(path, RESULT_CSV_HEADER, types, len(config.n_grid) * reps)
    table, statistics = [], []
    for k, n in enumerate(config.n_grid):
        block = rows[k * reps : (k + 1) * reps]
        if [row[:2] for row in block] != [[n, rep] for rep in range(reps)]:
            raise ConfigError(f"result.csv rows at n={n} are not replications 0..{reps - 1}")
        _, _, statistic, edge_counts, weight_sums = zip(*block)
        if max(edge_counts) > n * (n - 1) // 2:
            raise ConfigError(f"result.csv has an edge count above n(n-1)/2 at n={n}")
        weight_sums = np.array(weight_sums, dtype=float)
        cond_means = None
        if config.theorem == "T2":
            _, redrawn, cond_means = replicate_edges(config, n, threads, False)
        else:
            # replication 0 alone ties the table to the manifest's seed
            redrawn = [replication_weights(config.model, n, config.master_seed, 0).sum_l]
        if not np.array_equal(redrawn, weight_sums[: len(redrawn)]):
            raise ConfigError(f"result.csv L_n at n={n} differs from the re-drawn weights")
        table.append((np.array(edge_counts, dtype=np.int64), weight_sums, cond_means))
        statistics.append(np.array(statistic, dtype=float))
    return table, statistics


def _read_audit_table(path: Path, config: ExperimentConfig):
    """Per n, the audit terms of audit.csv and the exact pair moments."""
    per_n = config.replications * len(config.t_values)
    types = (_count, _count) + (_finite,) * len(_AUDIT_FIELDS)
    rows = _read_csv(path, AUDIT_CSV_HEADER, types, len(config.n_grid) * per_n)
    table = []
    for k, n in enumerate(config.n_grid):
        a_n = compute_norming(config.model, n)
        block = rows[k * per_n : (k + 1) * per_n]
        keys = [[n, rep, t, 0.5 * a_n, a_n]
                for rep in range(config.replications) for t in config.t_values]
        if [row[:5] for row in block] != keys:
            raise ConfigError(f"audit.csv rows at n={n} do not match the manifest's config")
        terms = [AuditTerms(row[0], *row[2:]) for row in block]
        table.append((0.5 * a_n, a_n, terms, *audit_pair_moments(config.model, n, a_n)))
    return table


def read_run(run_dir, threads: int = 1):
    """Rebuild a finished run's result from its manifest and result.csv / audit.csv.

    Samples no graph and evaluates no audit term: T2 re-draws only the
    weights, for the conditional edge means; T1 and LLN re-draw the
    weights of replication 0, to check the seed; the audit draws nothing
    and recomputes its two exact pair moments.  ConfigError unless the
    directory is a complete run.
    """
    run_dir = Path(run_dir)
    manifest = read_json(run_dir / "manifest.json", "manifest.json")
    try:
        raw, elapsed = manifest["config"], float(manifest["wall_clock_seconds"]["experiment"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ConfigError("manifest.json lacks the config or the experiment time") from None
    config = config_from_dict(raw)
    if config.theorem == "AUDIT":
        return derive_result(config, _read_audit_table(run_dir / "audit.csv", config), elapsed)
    table, statistics = _read_result_table(run_dir / "result.csv", config, threads)
    result = derive_result(config, table, elapsed)
    for run, statistic in zip(result.runs, statistics):
        if not np.array_equal(run.statistic, statistic):
            raise ConfigError(f"result.csv statistic at n={run.n} disagrees with edge_count")
    return result
