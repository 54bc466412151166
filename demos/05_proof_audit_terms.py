"""Numerical audit of the bound terms behind the limit proofs.

The characteristic-function route to both limit theorems controls the
edge count through a handful of explicit weight functionals: a
self-loop correction, a cubic expansion term, a quadratic remainder,
and four pair sums normalized by a_n.  Each must drift to zero as n
grows for the argument to close.  The audit evaluates all of them
exactly (O(n^2) double sums, diagonal included) on sampled weight
vectors and tracks their medians along an n-grid.

The two pair-moment expectations estimated at the end behave
differently: the large-product term decays on this grid, while the
small-product term E[W1^2 W2^2; W1 W2 <= n]/a_n is exactly
(4.5 sqrt(n)(ln n - 2) + 9)/a_n at alpha = 1.5, which rises until
n ~ 3000 before its slow decay sets in.  The printed verdicts simply
record that.
"""

from grg import ExperimentConfig, ParetoWeights, run_proof_audit

cfg = ExperimentConfig(
    ParetoWeights(1.5, 1.0), (100, 1000, 10_000), 20,
    master_seed=555, theorem="AUDIT", t_values=(1.0,),
)
res = run_proof_audit(cfg)

names = ("selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d")
print("=" * 76)
print("median audit terms at t = 1 (20 weight draws per n, c_n = a_n/2)")
print("=" * 76)
header = f"{'n':>7} {'a_n':>8}" + "".join(f"{name:>11}" for name in names)
print(header)
for point in res.runs:
    med = point.medians()[1.0]
    row = f"{point.n:>7} {point.a_n:>8.1f}" + "".join(f"{med[name]:>11.5f}" for name in names)
    print(row)

trends = res.median_trends()[1.0]
print()
print("strictly decreasing medians:", all(trends.values()))

print()
print("pair-moment estimates (1e6 common draws per n):")
print(f"{'n':>7} {'small-product term':>20} {'large-product term':>20}")
for point in res.runs:
    print(f"{point.n:>7} {point.pair_moment_small:>20.4f} {point.pair_moment_large:>20.4f}")
print("trend verdicts:", res.pair_moment_trends())
