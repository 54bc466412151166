"""Numerical audit of the bound terms behind the limit proofs.

The characteristic-function route to both limit theorems controls the
edge count through a handful of explicit weight functionals: a
self-loop correction, a cubic expansion term, a quadratic remainder,
and four pair sums normalized by a_n.  Each must drift to zero as n
grows for the argument to close.  The audit evaluates all of them
exactly on sampled weight vectors (the pair sums, diagonal included,
through power sums of W_i W_j / L, without an n x n loop) and tracks
their medians along an n-grid that reaches n = 1e6, in a few seconds.
With 10 weight draws per n, t_c, which the few largest weights drive,
is the slowest and noisiest term: its median falls by only about half
over four decades of n, and not at every step.

The two pair-moment terms at the end are exact expectations, not
estimates.  They behave differently: the large-product term decays
along the grid, while the small-product term E[W1^2 W2^2; W1 W2 <= n]/a_n
is exactly (4.5 sqrt(n)(ln n - 2) + 9)/a_n at alpha = 1.5, which rises
until n ~ 3000 before its slow decay sets in.  The printed verdicts
simply record that.
"""

import time

from grg import ExperimentConfig, ParetoWeights, run_experiment

cfg = ExperimentConfig(
    ParetoWeights(1.5, 1.0), (100, 1000, 10_000, 100_000, 1_000_000), 10,
    master_seed=555, theorem="AUDIT", t_values=(1.0,),
)
t0 = time.perf_counter()
res = run_experiment(cfg)
elapsed = time.perf_counter() - t0

names = ("selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d")
print("=" * 123)
print("median audit terms at t = 1 (10 weight draws per n, c_n = a_n/2)")
print("=" * 123)
header = f"{'n':>8} {'a_n':>9}" + "".join(f"{name:>15}" for name in names)
print(header)
for point in res.runs:
    row, med = point.row, point.row["medians"]["1.0"]
    print(f"{row['n']:>8} {row['a_n']:>9.1f}" + "".join(f"{med[name]:>15.5f}" for name in names))

trends = res.trends["median_trends_decreasing"]["1.0"]
print()
print("strictly decreasing medians:", trends)
print(f"audit time for the whole grid: {elapsed:.1f} s")

print()
print("exact pair-moment terms:")
print(f"{'n':>8} {'small-product term':>20} {'large-product term':>20}")
for point in res.runs:
    row = point.row
    print(f"{row['n']:>8} {row['pair_moment_small']:>20.4f} {row['pair_moment_large']:>20.4f}")
print("trend verdicts:", res.trends["pair_moment_trends_decreasing"])
