"""Outside-in span recorder for the grg layers.

Runs one grg command with every public function of each layer module
wrapped in a timing span, then writes the spans and counters as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json sample --model pareto:alpha=1.5,xm=1 --n 1000

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span, or -1 for the root (``cli.main``).  Every ``grg.*``
module attribute that refers to a wrapped function is rebound to the
wrapper, so calls inside a module (``limits._audit_one`` calling
``proof_audit``) are caught as well as calls across modules.  Spans are
kept in memory and written once, after the command returns.

Counters are read off each layer's return values, never from inside
the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("weights", "graph", "stable", "stats", "limits", "seeding", "report", "cli")


def _count_graph(counts, args, kwargs, graph):
    counts["graph.candidates"] += graph.candidates_examined
    counts["graph.edges"] += graph.edge_count
    counts["graph.vertices"] += graph.n


def _count_draws(counts, args, kwargs, weights):
    counts["weights.draws"] += weights.n


def _count_audit_pairs(counts, args, kwargs, terms):
    counts["limits.audit_pairs"] += terms.n * terms.n


def _count_ks_one(counts, args, kwargs, result):
    counts["stats.ks_points"] += len(args[0])


def _count_ks_two(counts, args, kwargs, result):
    counts["stats.ks_points"] += len(args[0]) + len(args[1])


def _count_report(counts, args, kwargs, manifest):
    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    counts["report.files"] += len(manifest.outputs)
    counts["report.bytes_written"] += sum((out_dir / f).stat().st_size for f in manifest.outputs)


COUNTERS = {
    "graph.sample_graph_fast": _count_graph,
    "graph.sample_graph_naive": _count_graph,
    "weights.sample_weights": _count_draws,
    "limits.proof_audit": _count_audit_pairs,
    "stats.ks_one_sample": _count_ks_one,
    "stats.ks_two_sample": _count_ks_two,
    "report.emit_report": _count_report,
}


class SpanRecorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.functions: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer and rebind its references."""
        for layer in LAYERS:
            importlib.import_module(f"grg.{layer}")
        modules = [m for key, m in sys.modules.items() if key == "grg" or key.startswith("grg.")]
        for layer in LAYERS:
            module = sys.modules[f"grg.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.functions.append(name)
                traced = self.wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, traced)

    def dump(self, path) -> None:
        payload = {"functions": self.functions, "spans": self.spans, "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(payload), encoding="ascii")


def self_times(spans) -> dict[str, list]:
    """Per function name: [calls, self seconds], self = duration minus child spans."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, _, start, end) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += (end - start) - child[i]
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import grg.cli

    recorder = SpanRecorder()
    recorder.install()
    try:
        return grg.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
