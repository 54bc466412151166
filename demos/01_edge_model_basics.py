"""Tour of the edge model: pair probabilities, sampling, exact law.

Every unordered pair {i, j} of vertices is an edge independently with
probability W_i W_j / (L + W_i W_j), where L is the total weight.  Two
things make this model pleasant to test against:

* constant weights n*lam/(n - lam) reproduce the classical uniform
  random graph with p = lam/n exactly, and
* for small n the edge count has a computable law (a Poisson binomial
  over the pair indicators), which the sampler and the pairwise test
  oracle in ``tests/oracles.py`` must both match.
"""

import sys
from pathlib import Path

import numpy as np

from grg import ConstantWeights, ParetoWeights, WeightVector, sample_graph_fast, sample_weights

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import exact_pmf, pair_probabilities, sample_graph_naive  # noqa: E402

print("=" * 64)
print("constant weights reduce to the uniform random graph")
print("=" * 64)
wv = sample_weights(ConstantWeights(2.0), 10, seed=0)
print(f"weight value  : {wv.values[0]} (= 10*2/8)")
print(f"total weight  : {wv.sum_l}")
print(f"p_ij          : {pair_probabilities(wv)[0]} (= lam/n = 0.2)")

print()
print("=" * 64)
print("exact edge-count law vs both samplers, weights (1, 2, 3)")
print("=" * 64)
wv = WeightVector.from_values([1.0, 2.0, 3.0])
pmf = exact_pmf(wv)
print(f"exact pmf     : {np.round(pmf, 4)}  (x24 = {np.round(pmf * 24)})")

reps = 40_000
for sampler in (sample_graph_naive, sample_graph_fast):
    counts = np.zeros(4)
    for seed in range(reps):
        counts[sampler(wv, seed).edge_count] += 1
    tv = 0.5 * np.abs(counts / reps - pmf).sum()
    print(f"{sampler.__name__:20s}: {np.round(counts / reps, 4)}  TV = {tv:.4f}")

print()
print("=" * 64)
print("a heavier draw: Pareto(alpha=1.5) weights, n = 2000")
print("=" * 64)
wv = sample_weights(ParetoWeights(1.5, 1.0), 2000, seed=42)
g = sample_graph_fast(wv, seed=43)
deg = g.degrees
print(f"edges         : {g.edge_count}  (E_n/n = {g.edge_count / g.n:.3f}, EW/2 = 1.5)")
print(f"degrees       : min {deg.min()}, mean {deg.mean():.2f}, max {deg.max()}")
print(f"handshake     : sum(degrees) = {deg.sum()} = 2 * {g.edge_count}")
print(f"heaviest vertex weight {wv.values.max():.1f} has degree {deg[np.argmax(wv.values)]}")
