"""The random graph itself: edge probabilities, samplers, exact oracle.

Given weights W_1..W_n with total L, each unordered pair {i, j} is an
edge independently with probability p_ij = W_i W_j / (L + W_i W_j).
Two samplers realize that law:

* ``sample_graph_naive`` draws every pair;  O(n^2), the reference path.
* ``sample_graph_fast`` sorts the weights and skip-samples under the
  envelope q = min(1, W_i W_j / L), re-tightened at every landed index;
  expected O(n + edge_count) candidate examinations.

``exact_edge_count_pmf`` gives the exact conditional edge-count law for
small n by convolving the per-pair Bernoulli indicators, and serves as
the distributional oracle for both samplers.  ``conditional_edge_mean``
gives its mean, E[E_n | W] = sum_{i<j} p_ij, at any n without forming
the n x n pair matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, SizeError
from .weights import WeightVector

__all__ = [
    "GraphSample",
    "EdgeCountPmf",
    "NAIVE_MAX_N",
    "edge_probability",
    "sample_graph_naive",
    "sample_graph_fast",
    "exact_edge_count_pmf",
    "conditional_edge_mean",
    "write_edge_list",
]

_SEED_MASK = (1 << 64) - 1

# The pairwise sampler is quadratic; refuse sizes where it would grind.
NAIVE_MAX_N = 20_000

# Exact pmf convolution is capped at 66 edge indicators.
PMF_MAX_N = 12

# conditional_edge_mean sums p = y/(1+y), y = W_i W_j / L, by its power
# series wherever y <= _SERIES_CUT; _SERIES_TERMS terms leave a relative
# truncation error below _SERIES_CUT**_SERIES_TERMS = 2**-56 per pair.
_SERIES_CUT = 1.0 / 16.0
_SERIES_TERMS = 14

# Pairs above the series cut are evaluated exactly, this many at a time.
_PAIR_BLOCK = 1 << 22


@dataclass(eq=False)
class GraphSample:
    """One realized graph, reduced to the statistics the experiments use."""

    n: int
    edge_count: int
    degrees: np.ndarray
    seed: int
    sampler_tag: str
    candidates_examined: int
    edges: list[tuple[int, int]] | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class EdgeCountPmf:
    """Exact conditional law of the edge count given the weights."""

    probabilities: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.probabilities)), self.probabilities))


def edge_probability(w_i: float, w_j: float, l_n: float) -> float:
    """p_ij = w_i w_j / (l_n + w_i w_j); symmetric, in [0, 1)."""
    if not (l_n > 0):
        raise DomainError(f"total weight must be positive, got {l_n}")
    if w_i < 0 or w_j < 0:
        raise DomainError("weights must be nonnegative")
    prod = w_i * w_j
    return prod / (l_n + prod)


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
    edges: list[tuple[int, int]] | None = [] if store_edges else None
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
            if edges is not None:
                edges.extend((i, i + 1 + int(j)) for j in np.nonzero(hit)[0])
    return GraphSample(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        seed=seed,
        sampler_tag="naive",
        candidates_examined=n * (n - 1) // 2,
        edges=edges,
    )


def sample_graph_fast(
    weights: WeightVector, seed: int, store_edges: bool = False
) -> GraphSample:
    """Skip sampling over descending weights; same law as the naive path.

    Within a row the envelope value cached from the previous landing
    dominates the true envelope at every later index (the weights are
    sorted), so geometric gaps under the cached value plus acceptance
    p/q are exact.  Where the envelope saturates at 1 the loop degrades
    to a direct Bernoulli per pair.
    """
    n = weights.n
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    order = np.argsort(-weights.values, kind="stable")
    v = weights.values[order].tolist()
    l_n = weights.sum_l
    rnd = random.Random(seed & _SEED_MASK)
    rr = rnd.random
    log = math.log
    log1p = math.log1p
    deg_sorted = [0] * n
    edges_sorted: list[tuple[int, int]] | None = [] if store_edges else None
    edge_count = 0
    candidates = 0
    for i in range(n - 1):
        vi = v[i]
        j = i + 1
        q = vi * v[j] / l_n
        if q > 1.0:
            q = 1.0
        while j < n:
            if q < 1.0:
                if q <= 0.0:
                    break
                u = 1.0 - rr()
                j += int(log(u) / log1p(-q))
                if j >= n:
                    break
            candidates += 1
            prod = vi * v[j]
            p = prod / (l_n + prod)
            if rr() * q < p:
                edge_count += 1
                deg_sorted[i] += 1
                deg_sorted[j] += 1
                if edges_sorted is not None:
                    edges_sorted.append((i, j))
            q = prod / l_n
            if q > 1.0:
                q = 1.0
            j += 1
    degrees = np.zeros(n, dtype=np.int64)
    degrees[order] = deg_sorted
    edges = None
    if edges_sorted is not None:
        orig = order.tolist()
        edges = [
            (a, b) if a < b else (b, a)
            for a, b in ((orig[i], orig[j]) for i, j in edges_sorted)
        ]
    return GraphSample(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        seed=seed,
        sampler_tag="fast",
        candidates_examined=candidates,
        edges=edges,
    )


def exact_edge_count_pmf(weights: WeightVector) -> EdgeCountPmf:
    """Exact pmf of the edge count by convolving the pair indicators."""
    n = weights.n
    if n > PMF_MAX_N:
        raise SizeError(f"exact pmf is capped at n={PMF_MAX_N}")
    w = weights.values
    l_n = weights.sum_l
    pmf = np.array([1.0])
    for i in range(n - 1):
        for j in range(i + 1, n):
            p = edge_probability(w[i], w[j], l_n)
            nxt = np.zeros(len(pmf) + 1)
            nxt[:-1] = pmf * (1.0 - p)
            nxt[1:] += pmf * p
            pmf = nxt
    return EdgeCountPmf(pmf)


def conditional_edge_mean(weights: WeightVector) -> float:
    """E[E_n | W] = sum_{i<j} p_ij, exact to rounding, without an n x n array.

    With u = W / sqrt(L) each pair has p = y / (1 + y), y = u_i u_j, and
    the sum over ordered pairs (diagonal included) is halved after the
    diagonal is removed.  A pair with y <= 1/16 is summed through the
    alternating series y - y^2 + y^3 - ..., which factorizes into power
    sums of u.  Every pair with a member u_i <= (1/16) / max(u) is such a
    pair, so those vertices enter only through their power sums.  The
    other vertices (the tail) are sorted; within the tail the small
    pairs of each row form a prefix, summed by prefix sums of powers,
    and the few pairs with y > 1/16 are added exactly.  Cost is
    O(n + t log t + #{y > 1/16}) for a tail of t vertices.
    """
    n = weights.n
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    u = weights.values / math.sqrt(weights.sum_l)
    low = u <= _SERIES_CUT / float(u.max())
    head = u[low]
    tail = np.sort(u[~low])
    cut = np.searchsorted(tail, _SERIES_CUT / tail, side="right")
    head_k = head.copy()
    tail_k = tail.copy()
    prefix = np.zeros(len(tail) + 1)
    series = 0.0
    sign = 1.0
    for _ in range(_SERIES_TERMS):
        s_head = float(head_k.sum())
        s_tail = float(tail_k.sum())
        np.cumsum(tail_k, out=prefix[1:])
        # head x all, tail x head, then the small pairs inside the tail
        series += sign * (s_head * (s_head + 2.0 * s_tail) + float(tail_k @ prefix[cut]))
        head_k *= head
        tail_k *= tail
        sign = -sign
    large = 0.0
    counts = len(tail) - cut
    rows = max(1, _PAIR_BLOCK // max(1, len(tail)))
    for lo in range(0, len(tail), rows):
        c = counts[lo : lo + rows]
        i = np.repeat(np.arange(lo, lo + len(c)), c)
        j = np.arange(int(c.sum())) + np.repeat(cut[lo : lo + rows] - (np.cumsum(c) - c), c)
        y = tail[i] * tail[j]
        large += float((y / (1.0 + y)).sum())
    diag = u * u
    return 0.5 * (series + large - float((diag / (1.0 + diag)).sum()))


def write_edge_list(sample: GraphSample, path) -> None:
    """Dump edges as '<i> <j>' lines, 0-indexed, ascending lexicographic."""
    if sample.edges is None:
        raise ParameterError("graph was sampled without store_edges=True")
    with open(path, "w", encoding="ascii") as fh:
        for i, j in sorted(sample.edges):
            fh.write(f"{i} {j}\n")
