"""Bucket thinning vs the pairwise reference: cost at growing n.

The pairwise sampler touches all n(n-1)/2 pairs.  The fast path sorts
the weights once, groups them into quarter-binade buckets, draws
candidate pairs of each pair of buckets under the envelope of its
largest weights, and thins them to the exact edge probabilities, so the
number of examined candidates stays proportional to n plus the number
of edges even when the weights are heavy tailed.

Each row also times the weight draw (``sample_weights``, exact totals
included) beside the graph, so the two layers of ``grg sample`` show
separately, and the tracemalloc peak of the graph sampler per vertex,
the weights it is given included (a second, traced call): 8 bytes of
weights, 16 of sorted weights, vertex order and degree tally, and one
candidate pass of a few MB, which dominates at small n.  The last two
columns time and trace the same graph drawn from the weights in
descending order, as ``grg sample`` draws it: no sorted copy and no
vertex order, so 8 bytes of weights and the int32 tally, which is the
degrees.  Last, the peak RSS of one ``grg sample`` process for
ParetoLog(1.5) at n = 10^6, read with ``os.wait4`` when it exits.
"""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import grg
from grg import (ExponentialWeights, ParetoLogWeights, ParetoWeights, sample_graph_fast,
                 sample_weights)
from grg.graph import descending_weights

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import sample_graph_naive  # noqa: E402


def graph_peak_per_vertex(model, n: int, descending: bool = False) -> float:
    """tracemalloc peak of sample_graph_fast per vertex, counting the weights."""
    tracemalloc.start()
    try:
        wv = sample_weights(model, n, seed=12345)
        if descending:
            wv = descending_weights(wv)
        tracemalloc.reset_peak()
        sample_graph_fast(wv, 67890)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def sample_peak_rss_mb(spec: str, n: int, seed: int) -> float:
    """Peak RSS of one `grg sample` child process, in MB, as the kernel reports it at exit.

    Linux counts in a child's peak the peak of the image that its exec replaced, which
    a vfork shares with this process, so this runs before this process holds large arrays.
    """
    src = str(Path(grg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "grg.cli", "sample", "--model", spec,
                             "--n", str(n), "--seed", str(seed)],
                            env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if status != 0:
        raise SystemExit(f"grg sample exited with status {status}")
    return usage.ru_maxrss / 1024.0  # kB on Linux


sample_rss = sample_peak_rss_mb("paretolog:alpha=1.5,xm=1", 10**6, 12345)
print(f"{'model':>18} {'n':>9} {'sampler':>7} {'edges':>9} {'candidates':>11} "
      f"{'weights s':>9} {'graph s':>8} {'peak B/v':>9} {'desc s':>7} {'desc B/v':>9}")
for model, label, sizes in (
    (ExponentialWeights(1.0), "Exponential(1)", (2000, 20_000, 10**6)),
    (ParetoWeights(1.5, 1.0), "Pareto(1.5)", (2000, 20_000, 10**6)),
    (ParetoLogWeights(1.5, 1.0), "ParetoLog(1.5)", (10**6,)),
):
    for n in sizes:
        t0 = time.perf_counter()
        wv = sample_weights(model, n, seed=12345)
        t1 = time.perf_counter()
        g = sample_graph_fast(wv, 67890)
        t2 = time.perf_counter()
        desc = descending_weights(wv)
        t3 = time.perf_counter()
        sample_graph_fast(desc, 67890)
        t4 = time.perf_counter()
        print(f"{label:>18} {n:>9} {'fast':>7} {g.edge_count:>9} "
              f"{g.candidates_examined:>11} {t1 - t0:>9.3f} {t2 - t1:>8.3f} "
              f"{graph_peak_per_vertex(model, n):>9.1f} {t4 - t3:>7.3f} "
              f"{graph_peak_per_vertex(model, n, descending=True):>9.1f}")
        if n <= 20_000:
            t0 = time.perf_counter()
            g = sample_graph_naive(wv, 67890)
            dt = time.perf_counter() - t0
            print(f"{label:>18} {n:>9} {'naive':>7} {g.edge_count:>9} "
                  f"{g.candidates_examined:>11} {'':>9} {dt:>8.3f}")


print()
print(f"grg sample, ParetoLog(1.5) at n = 10^6: peak RSS {sample_rss:.1f} MB")
print()
print("candidate counts track n + edges; the pairwise sampler is quadratic")
print("and refuses n beyond 20000 by precondition.  Per vertex, the fast")
print("sampler's peak falls towards 24 bytes as n outgrows one candidate pass,")
print("and towards 12 on weights in descending order, which skip the permutation.")
