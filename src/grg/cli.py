"""Command-line entry point.

Subcommands:

* ``grg sample``     one graph, summary JSON (optional edge-list dump)
* ``grg experiment`` a configured T1 / T2 / LLN run with full report
* ``grg audit``      audit-term trajectories over the configured n grid
* ``grg lemma1``     truncated-moment ratio table for a heavy-tailed model
* ``grg report``     re-render a finished run from its result.csv / audit.csv

Every graph comes from ``sample_graph_fast``, the one production
sampler.  ``--threads`` asks for worker processes (0 = one per core);
at most one per core and one per task are started.

Exit codes: 0 success; 1 usage error or any ``GrgError``; 2 numerical
failure (any ``ArithmeticError``, ``BracketingError`` among them), I/O or
memory failure.  ``--seed`` is the only way to change the seed of a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, GrgError, ParameterError
from .graph import descending_weights, sample_graph_fast, write_edge_list
from .weights import (LemmaRatios, lemma1_ratio_check, model_from_config, model_to_config,
                      sample_weights)

__all__ = ["main"]

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def parse_model_spec(spec: str):
    """Parse 'kind:key=value,key=value' into a weight model."""
    kind, _, rest = spec.partition(":")
    params = {"kind": kind.strip()}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ParameterError(f"bad model parameter {item!r} (expected key=value)")
            if key.strip() in params:
                raise ParameterError(f"model parameter {key.strip()!r} is given twice")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise ParameterError(f"bad numeric value in {item!r}") from None
    return model_from_config(params)


def _load_config(path: str, seed: int | None):
    from .report import config_from_dict, read_json

    config = config_from_dict(read_json(path, "config"))
    return config if seed is None else dataclasses.replace(config, master_seed=seed)


def _cmd_sample(args) -> int:
    model = parse_model_spec(args.model)
    weights = sample_weights(model, args.n, args.seed)
    if weights.sum_sq < sys.float_info.min:  # below it the squares lose digits or vanish
        raise ParameterError(f"weights' sum of squares {weights.sum_sq!r} is not a normal double")
    if args.edges is None:  # no per-vertex output, so the vertices may be relabelled
        weights = descending_weights(weights)
    graph = sample_graph_fast(weights, args.seed + 1, store_edges=args.edges is not None)
    summary = {
        "model": model_to_config(model),
        "n": graph.n,
        "seed": args.seed,
        "sampler": "fast",
        "edge_count": graph.edge_count,
        "edges_per_vertex": graph.edge_count / graph.n,
        "L_n": weights.sum_l,
        "sum_sq": weights.sum_sq,
        "degree_min": int(graph.degrees.min()),
        "degree_max": int(graph.degrees.max()),
        "degree_mean": float(graph.degrees.mean()),
        "candidates_examined": graph.candidates_examined,
    }
    _write_text(args.out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.edges:
        write_edge_list(graph, args.edges)
    return 0


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    """``grg experiment`` and ``grg audit``: simulate, derive, write the report."""
    from .limits import run_experiment
    from .report import emit_report

    config = _load_config(args.config, args.seed)
    if args.command == "experiment" and config.theorem == "AUDIT":
        raise ConfigError("use 'grg audit' for audit configs")
    if args.command == "audit" and config.theorem != "AUDIT":
        raise ConfigError("audit config must set theorem='AUDIT'")
    emit_report(run_experiment(config, threads=args.threads), args.out)
    sys.stdout.write(f"{'audit' if args.command == 'audit' else 'report'} written to {args.out}\n")
    return 0


def _cmd_lemma1(args) -> int:
    model = parse_model_spec(args.model)
    try:
        x_grid = [float(x) for x in args.x.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--x must be comma-separated numbers, got {args.x!r}") from None
    if not x_grid:
        raise ConfigError("need at least one x value")
    ratios = lemma1_ratio_check(model, x_grid)
    lines = [",".join(LemmaRatios._fields)] + [",".join(map(repr, r)) for r in ratios]
    _write_text(args.out, "\n".join(lines) + "\n")
    if any(abs(r.ratio_tail_alt - 1.0) > 0.05 for r in ratios):
        sys.stderr.write(
            "note: the alternative tail constant (2-alpha)/(alpha-1) disagrees with "
            "the exact tail moment; the Karamata constant alpha/(alpha-1) is the "
            "consistent one (see ratio_tail_alt).\n"
        )
    return 0


def _cmd_report(args) -> int:
    """Re-render a finished run from its own table; no graph is sampled."""
    from .report import emit_report, read_run

    out = args.out or args.run
    emit_report(read_run(args.run, threads=args.threads), out)
    sys.stdout.write(f"report regenerated in {out}\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="grg", description="generalized random graph experiments")
    parser.add_argument("--version", action="version", version=f"grg {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("sample", help="sample one graph")
    p.add_argument("--model", required=True, help="e.g. pareto:alpha=1.5,xm=1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="weight seed; the graph seed is seed+1")
    p.add_argument("--out", default=None, help="summary JSON path (stdout if omitted)")
    p.add_argument("--edges", default=None, help="optional edge-list dump path")
    p.set_defaults(handler=_cmd_sample)

    for name, help_text in (
        ("experiment", "run a configured limit-law experiment"),
        ("audit", "run a configured proof audit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--threads", type=int, default=0, help="worker processes (0 = auto)")
        p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("lemma1", help="truncated-moment ratio table")
    p.add_argument("--model", required=True, help="heavy-tailed model spec")
    p.add_argument("--x", required=True, help="comma-separated truncation points")
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_lemma1)

    p = sub.add_parser("report", help="re-render an existing run directory")
    p.add_argument("--run", required=True, help="directory containing manifest.json")
    p.add_argument("--out", default=None, help="target directory (defaults to --run)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes for the T2 weight re-draw (0 = auto)")
    p.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "threads", 0) < 0:
            raise ConfigError("--threads must be >= 0")
        return args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ArithmeticError as exc:  # BracketingError too; it must come before GrgError
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except GrgError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
