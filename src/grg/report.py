"""Result persistence: CSV, summary JSON, SVG figures, run manifest.

Payload files (result.csv, audit.csv, summary.json, the SVGs) are byte
stable: re-running the same config and master seed reproduces them
exactly.  Timestamps and wall-clock numbers live only in manifest.json.

CSV schema (fixed): ``n,replication`` and then the run's columns of the
same names, ``statistic,edge_count,L_n`` in result.csv and
``t,c_n,a_n`` and the audit terms in audit.csv (see ``_CSV``).  For the
stable-limit experiment the ``statistic`` column holds the edge
statistic; the weight-sum statistic is recoverable from the L_n column.
Values are written with repr, which round-trips, so :func:`read_run`
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
    AUDIT_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    derive_result,
    replication_weights,
    simulate,
)
from .weights import compute_norming, model_from_config, model_to_config

__all__ = ["RunManifest", "emit_report", "read_run", "read_json", "config_to_dict",
           "config_from_dict"]

SCHEMA_VERSION = 1
# kind -> the CSV's name and the run columns that follow n,replication in it
_CSV = {**dict.fromkeys(("T1", "T2", "LLN"), ("result.csv", ("statistic", "edge_count", "L_n"))),
        "AUDIT": ("audit.csv", AUDIT_COLUMNS)}


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
        raise ConfigError(f"field {field!r} must be {what}, got {value!r}")
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
_AXIS_Y = _SVG_H - _MARGIN  # the pixel row of the x axis


def _frame(title: str, x_range: tuple, y_range: tuple):
    """A figure's opening elements and its x and y maps, of numbers or arrays, to pixels."""

    def axis(lo, hi, out_lo, out_hi):
        span = hi - lo if hi > lo else 1.0
        return lambda v: out_lo + (v - lo) / span * (out_hi - out_lo)

    opening = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    return opening, axis(*x_range, _MARGIN, _SVG_W - _MARGIN), axis(*y_range, _AXIS_Y, 30.0)


def _polyline(xs, ys, stroke: str) -> str:
    """The pixel points (xs[k], ys[k]) joined by one line."""
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline points="{points}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'


# ------------------------------------------------------------- reports


def _histogram(path: Path, run) -> None:
    """Density-normalized histogram of the statistic: T1's under the standard normal density,
    LLN's with a dashed line at the row's ``target``, its limit EW/2."""
    values, target = run.columns["statistic"], run.row.get("target")
    lo, hi = float(values.min()), float(values.max())
    if target is None:
        title = f"normalized edge count, n={run.n} (normal overlay)"
        xs = np.linspace(lo, hi, 200)
        pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
    else:
        title = f"edges per vertex, n={run.n} (dashed line: EW/2)"
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    bins = min(60, max(10, int(math.sqrt(len(values)))))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi), density=True)
    ymax = float(counts.max()) if counts.max() > 0 else 1.0
    if target is None:
        ymax = max(ymax, float(np.max(pdf)))
    parts, x_px, y_px = _frame(title, (lo, hi), (0.0, 1.05 * ymax))
    parts += [f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{_AXIS_Y - y0:.2f}" '
              'fill="#9ecae1" stroke="#3182bd" stroke-width="0.5"/>'
              for x0, x1, y0 in zip(x_px(edges[:-1]), x_px(edges[1:]), y_px(counts))]
    if target is None:
        parts.append(_polyline(x_px(xs), y_px(pdf), "#de2d26"))
    elif lo <= target <= hi:
        x = f"{x_px(target):.2f}"
        parts.append(f'<line x1="{x}" y1="30" x2="{x}" y2="{_AXIS_Y}" stroke="#de2d26" '
                     'stroke-width="1.5" stroke-dasharray="5,4"/>')
    parts.append(f'<line x1="{_MARGIN}" y1="{_AXIS_Y}" x2="{_SVG_W - _MARGIN}" y2="{_AXIS_Y}" '
                 'stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(f'<text x="{x_px(v):.2f}" y="{_AXIS_Y + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{v:.3g}</text>')
    _write_lines(path, parts + ["</svg>"])


def _t2_figure(path: Path, run) -> None:
    """Quantile-quantile plot of the edge against the weight-sum statistic, with y = x dashed."""
    a, b = np.sort(run.columns["weight_statistic"]), np.sort(run.columns["statistic"])
    lo, hi = float(min(a[0], b[0])), float(max(a[-1], b[-1]))
    parts, x_px, y_px = _frame(f"weight-sum vs edge statistic quantiles, n={run.n}",
                               (lo, hi), (lo, hi))
    parts += [
        f'<line x1="{x_px(lo):.2f}" y1="{y_px(lo):.2f}" x2="{x_px(hi):.2f}" '
        f'y2="{y_px(hi):.2f}" stroke="#999999" stroke-width="1" stroke-dasharray="4,4"/>',
        _polyline(x_px(a), y_px(b), "#3182bd"),
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">weight-sum statistic</text>',
        f'<text x="14" y="{_SVG_H / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_SVG_H / 2})">edge statistic</text>',
    ]
    _write_lines(path, parts + ["</svg>"])


_FIGURES = {"T1": _histogram, "T2": _t2_figure, "LLN": _histogram}


def emit_report(result: ExperimentResult, out_dir) -> RunManifest:
    """Write result.csv / audit.csv, summary.json, figures and manifest.

    Returns the manifest, which lists every emitted file.  Raises
    ConfigError before touching the filesystem if the result is empty.
    """
    t0 = time.perf_counter()
    if not result.runs:
        raise ConfigError("empty result: nothing to report")
    config = result.config
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": config.theorem,
        "config": config_to_dict(config),
        "results": [run.row for run in result.runs],
        **result.trends,
    }
    csv_name, names = _CSV[config.theorem]
    outputs = [csv_name]
    lines = [",".join(("n", "replication", *names))]
    for run in result.runs:
        columns = [run.columns[name].tolist() for name in names]
        per_rep = len(columns[0]) // config.replications
        lines += [f"{run.n},{k // per_rep}," + ",".join(map(repr, values))
                  for k, values in enumerate(zip(*columns))]
        if config.theorem in _FIGURES:
            outputs.append(f"hist_{run.n}.svg")
            _FIGURES[config.theorem](out / outputs[-1], run)
    _write_lines(out / csv_name, lines)
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


def _read_table(run_dir: Path, config: ExperimentConfig, threads: int) -> list[dict]:
    """Per n, the named columns of the run's result.csv / audit.csv, checked as read_run says."""
    csv_name, names = _CSV[config.theorem]
    reps, per_rep = config.replications, (len(config.t_values) if config.theorem == "AUDIT" else 1)
    n_rows = len(config.n_grid) * reps * per_rep
    try:
        lines = (run_dir / csv_name).read_bytes().decode("ascii").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {csv_name}: {exc}") from None
    if lines[0] != ",".join(("n", "replication", *names)) or lines[-1] or len(lines) != n_rows + 2:
        raise ConfigError(f"{csv_name} is not a complete table of the manifest's {n_rows} rows")
    types = (_count, _count, *(_count if name == "edge_count" else _finite for name in names))
    try:
        rows = [[parse(field) for parse, field in zip(types, line.split(","), strict=True)]
                for line in lines[1:-1]]
    except ValueError as exc:
        raise ConfigError(f"{csv_name} has a malformed row: {exc}") from None
    del lines  # the text, kept to the end, would raise the peak memory of what follows
    table = []
    for k, n in enumerate(config.n_grid):
        block = rows[k * reps * per_rep : (k + 1) * reps * per_rep]
        if [row[:2] for row in block] != [[n, i // per_rep] for i in range(reps * per_rep)]:
            raise ConfigError(f"{csv_name} rows at n={n} are not replications 0..{reps - 1}")
        columns = {name: np.array(values) for name, values in zip(names, list(zip(*block))[2:])}
        if "edge_count" in columns and columns["edge_count"].max() > n * (n - 1) // 2:
            raise ConfigError(f"{csv_name} has an edge count above n(n-1)/2 at n={n}")
        table.append(columns)
    # the rows of every n are checked before the T2 re-draw, the one costly step
    redrawn = simulate(config, threads, with_graph=False) if config.theorem == "T2" else None
    for k, (n, columns) in enumerate(zip(config.n_grid, table)):
        if config.theorem == "AUDIT":
            a_n = compute_norming(config.model, n)
            fixed = {"t": np.tile(config.t_values, reps), "c_n": [0.5 * a_n] * reps * per_rep,
                     "a_n": [a_n] * reps * per_rep}
        elif config.theorem == "T2":
            fixed = {"L_n": redrawn[k]["L_n"]}
            columns.update(cond_mean=redrawn[k]["cond_mean"], a_n=redrawn[k]["a_n"])
        else:  # replication 0 alone ties the table to the manifest's seed
            fixed = {"L_n": [replication_weights(config.model, n, config.master_seed, 0).sum_l]}
        for name, values in fixed.items():
            if not np.array_equal(values, columns[name][: len(values)]):
                raise ConfigError(f"{csv_name} {name} at n={n} differs from the manifest's config")
    return table


def read_run(run_dir, threads: int = 1):
    """Rebuild a finished run's result from its manifest and result.csv / audit.csv.

    Samples no graph and evaluates no audit term.  The table's n and
    replication of each row (one row per t for the audit), its edge counts
    (at most n(n-1)/2), the audit's t, c_n and a_n, and L_n must match the
    config: T2 re-draws every replication's weights, also for a_n and the
    conditional edge means, and T1 and LLN those of replication 0.  Every
    column that the result derives again, such as the statistic, must
    equal the table's.  ConfigError unless the directory is a complete run
    whose manifest holds an experiment time that is a finite number >= 0.
    """
    run_dir = Path(run_dir)
    manifest = read_json(run_dir / "manifest.json", "manifest.json")
    try:
        raw = manifest["config"]
        elapsed = _number(manifest["wall_clock_seconds"]["experiment"], "experiment")
    except (KeyError, TypeError, OverflowError):
        raise ConfigError("manifest.json lacks the config or the experiment time") from None
    if not 0.0 <= elapsed < math.inf:
        raise ConfigError(f"manifest.json's experiment time must be finite and >= 0, got {elapsed}")
    config = config_from_dict(raw)
    table = _read_table(run_dir, config, threads)
    result = derive_result(config, table)
    result.elapsed_seconds = elapsed
    csv_name, names = _CSV[config.theorem]
    for run, columns in zip(result.runs, table):
        for name in names:
            if not np.array_equal(run.columns[name], columns[name]):
                raise ConfigError(f"{csv_name} {name} at n={run.n} contradicts the other columns")
    return result
