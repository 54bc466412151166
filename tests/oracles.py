"""Reference implementations that the tests and demos check the package against.

Given the weights, the edge count E_n is a sum of independent
Bernoulli(p_ij) indicators, p_ij = W_i W_j / (L + W_i W_j), one per pair
i < j.  ``sample_graph_naive`` draws every indicator, O(n^2), so it
checks ``grg.sample_graph_fast`` by sampling the same law another way;
``exact_pmf`` gives that law exactly for small n.
"""

import numpy as np

from grg import GraphSample, ParameterError, SizeError, WeightVector

_SEED_MASK = (1 << 64) - 1

# The pairwise sampler is quadratic; refuse sizes where it would grind.
NAIVE_MAX_N = 20_000


def sample_graph_naive(
    weights: WeightVector, seed: int, store_edges: bool = False
) -> GraphSample:
    """Independent Bernoulli draw for every pair; exact but O(n^2)."""
    n = weights.n
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    if n > NAIVE_MAX_N:
        raise SizeError(
            f"pairwise sampler is capped at n={NAIVE_MAX_N}; use the fast sampler"
        )
    w = weights.values
    l_n = weights.sum_l
    rng = np.random.default_rng(seed & _SEED_MASK)
    degrees = np.zeros(n, dtype=np.int64)
    pieces = [np.empty((0, 2), dtype=np.int64)] if store_edges else None
    edge_count = 0
    for i in range(n - 1):
        tail = w[i + 1 :]
        prod = w[i] * tail
        p = prod / (l_n + prod)
        hit = rng.random(n - 1 - i) < p
        k = int(hit.sum())
        if k:
            edge_count += k
            degrees[i] += k
            degrees[i + 1 :][hit] += 1
            if pieces is not None:
                j = i + 1 + np.nonzero(hit)[0]
                pieces.append(np.stack((np.full(k, i), j), axis=1))
    return GraphSample(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        candidates_examined=n * (n - 1) // 2,
        edges=None if pieces is None else np.concatenate(pieces),
    )


def pair_probabilities(weights: WeightVector) -> np.ndarray:
    """Dense p_ij over i < j, row by row."""
    w = weights.values
    prod = np.outer(w, w)[np.triu_indices(weights.n, 1)]
    return prod / (weights.sum_l + prod)


def exact_pmf(weights: WeightVector) -> np.ndarray:
    """The exact law of E_n given the weights: the pair indicators convolved in order."""
    pmf = np.array([1.0])
    for p in pair_probabilities(weights):
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf
