"""The random graph itself: edge probabilities, samplers, exact oracle.

Given weights W_1..W_n with total L, each unordered pair {i, j} is an
edge independently with probability p_ij = W_i W_j / (L + W_i W_j).
Two samplers realize that law:

* ``sample_graph_naive`` draws every pair;  O(n^2), the reference path.
* ``sample_graph_fast`` thins candidates drawn under a bucket envelope,
  in numpy (the envelope idea of Batagelj & Brandes, PRE 2005, and
  Miller & Hagberg, WAW 2011).  The weights are sorted in descending
  order and grouped into buckets of a quarter binade of w/w_max, so a
  bucket is a contiguous range whose first weight is its largest.  A
  block is the product of two buckets, or the strict upper triangle of
  one; with y = max_A max_B / L every pair of the block has
  p <= q = y/(1+y).  A block of m pairs with y < 1 draws Poisson(m mu)
  uniform positions, mu = log(1 + y), and keeps the distinct ones, so
  each pair is a candidate with probability 1 - e^(-mu) = q,
  independently of the others; a block with y >= 1 takes every pair as
  a candidate (q = 1).  Each candidate is an edge with probability p/q.
  Within a block p varies by at most a factor sqrt(2) in y, so the
  expected number of candidates is O(n + edge_count).  Up to n = 11 all
  pairs form one block with q = 1.

``exact_edge_count_pmf`` gives the exact conditional edge-count law for
small n by convolving the per-pair Bernoulli indicators, and serves as
the distributional oracle for both samplers.  ``conditional_edge_mean``
gives its mean, E[E_n | W] = sum_{i<j} p_ij, at any n without forming
the n x n pair matrix, from the pair power sums of ``pair_power_sums``.
"""

from __future__ import annotations

import itertools
import math
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
    "pair_power_sums",
    "write_edge_list",
]

_SEED_MASK = (1 << 64) - 1

# The pairwise sampler is quadratic; refuse sizes where it would grind.
NAIVE_MAX_N = 20_000

# Exact pmf convolution is capped at 66 edge indicators.
PMF_MAX_N = 12

# pair_power_sums sums y^k, y = W_i W_j / L, over the pairs with y <= _SERIES_CUT;
# there conditional_edge_mean sums p = y/(1+y) by its series, whose _SERIES_TERMS
# terms truncate below _SERIES_CUT**_SERIES_TERMS = 2**-56 relative per pair.
_SERIES_CUT = 1.0 / 16.0
_SERIES_TERMS = 14
_SERIES_SIGNS = (-1.0) ** np.arange(_SERIES_TERMS)

# Pairs above the series cut are evaluated exactly, this many at a time.
_PAIR_BLOCK = 1 << 22

# The fast sampler draws and thins at most about this many candidate
# pairs per numpy pass, which bounds its memory.
_CHUNK = 1 << 17

# Weight buckets are quarter binades of w/w_max: these are their lower
# edges, over 64 binades; the last bucket is open-ended.
_LEVELS = 2.0 ** (-np.arange(1, 257) / 4)

# Up to this n the fast sampler takes all pairs as one block with
# envelope 1: n(n-1)/2 <= 5n candidates, inside the 5(n + E) bound.
# _COLEX_I/_COLEX_J list the pairs i < j ordered by j, so the pairs of
# an n-vertex graph are the first n(n-1)/2 entries.
_ALL_PAIRS_MAX_N = 11
_COLEX_J, _COLEX_I = np.tril_indices(_ALL_PAIRS_MAX_N, -1)


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
    """Bucket thinning in numpy; the same law as the naive path.

    Every pair is a candidate independently with probability q, the
    envelope of its block, and a candidate is an edge with probability
    p/q (see the module docstring).  Candidates are drawn and thinned
    at most about ``_CHUNK`` at a time, so memory stays O(n + _CHUNK);
    ``candidates_examined`` counts them.
    """
    n = weights.n
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    l_n = weights.sum_l
    rng = np.random.default_rng(seed & _SEED_MASK)
    if n <= _ALL_PAIRS_MAX_N:
        order = None
        v = weights.values
        m = n * (n - 1) // 2
        chunks = [(_COLEX_I[:m], _COLEX_J[:m], 1.0)]
    else:
        order = np.argsort(-weights.values)
        v = weights.values[order]
        chunks = _bucket_candidates(v, l_n, rng)
    degrees = np.zeros(n, dtype=np.int64)
    edges: list[tuple[int, int]] | None = [] if store_edges else None
    candidates = edge_count = 0
    for i, j, q in chunks:
        prod = v[i] * v[j]
        hit = rng.random(len(i)) * q < prod / (l_n + prod)
        i, j = i[hit], j[hit]
        candidates += len(hit)
        edge_count += len(i)
        degrees += np.bincount(np.concatenate((i, j)), minlength=n)
        if edges is not None:
            if order is not None:
                i, j = order[i], order[j]
            edges.extend(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    if order is not None:
        degrees[order] = degrees.copy()
    return GraphSample(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        seed=seed,
        sampler_tag="fast",
        candidates_examined=candidates,
        edges=edges,
    )


def _bucket_candidates(v: np.ndarray, l_n: float, rng: np.random.Generator):
    """Yield ``(i, j, q)``: candidate pairs of sorted indices and their envelopes.

    Each block's flat positions (row-major for a product, the pairs
    (c, c + r + 1 mod s) for a triangle of size s) are cut into
    segments of about ``_CHUNK/2`` expected draws, and whole segments
    go to one chunk, so no position is drawn in two chunks.  The numpy
    calls per graph grow with the number of chunks, never with the
    number of buckets.
    """
    n = len(v)
    # bucket k starts after the weights above v[0] * 2^(-k/4)
    first = np.append(0, n - np.searchsorted(v[::-1], v[0] * _LEVELS, side="right"))
    first = first[np.append(True, first[1:] != first[:-1]) & (first < n)]
    size = np.append(first[1:], n) - first
    ar = np.arange(len(first))
    a, b = np.nonzero(ar[:, None] <= ar)
    diag = a == b
    row0, col0, width = first[a], first[b], size[b]
    pairs = np.where(diag, width * (width - 1) // 2, size[a] * width)
    y = v[row0] * v[col0] / l_n
    dense = y >= 1.0
    q = np.where(dense, 1.0, y / (1.0 + y))
    mu = np.where(dense, 1.0, np.log1p(y))  # expected draws per position
    base = np.cumsum(pairs) - pairs

    # segments of about _CHUNK/2 expected draws: block, flat start, length, count
    nseg = np.ceil(pairs * mu / (_CHUNK // 2)).astype(np.int64)
    seg_len = -(-pairs // np.maximum(nseg, 1))
    block = np.repeat(np.arange(len(pairs)), nseg)
    start = (np.arange(len(block)) - np.repeat(np.cumsum(nseg) - nseg, nseg)) * seg_len[block]
    length = np.maximum(np.minimum(seg_len[block], pairs[block] - start), 0)
    start += base[block]
    seg_dense = dense[block]
    count = np.where(seg_dense, length, rng.poisson(length * mu[block]))
    slot = np.cumsum(count) - count

    # whole segments per chunk, so no position is drawn in two chunks
    cuts = np.searchsorted(slot, np.arange(0, int(count.sum()), _CHUNK)).tolist()
    for s0, s1 in zip(cuts, cuts[1:] + [len(count)]):
        seg = np.repeat(np.arange(s0, s1), count[s0:s1])
        if len(seg) == 0:
            continue
        offset = rng.integers(length[seg])
        dense_slot = seg_dense[seg]
        offset[dense_slot] = (np.arange(len(seg)) + slot[s0] - slot[seg])[dense_slot]
        # segments hold disjoint increasing key ranges, so the sort keeps
        # every key beside its segment
        key = np.sort(start[seg] + offset)
        new = np.concatenate(([True], key[1:] != key[:-1]))
        k = block[seg[new]]
        r, c = np.divmod(key[new] - base[k], width[k])
        # rectangle: row r, column c; triangle: the pair (c, c + r + 1 mod size)
        i = row0[k] + np.where(diag[k], c, r)
        j = np.where(diag[k], row0[k] + (c + r + 1) % width[k], col0[k] + c)
        yield i, j, q[k]


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


def pair_power_sums(weights: WeightVector, terms: int):
    """Power sums of y = W_i W_j / L over the ordered pairs, diagonal included.

    Returns ``(sums, large)``: ``sums[k - 1]`` sums y^k, k = 1..terms,
    over the pairs with y <= 1/16; ``large`` yields the y of every other
    pair, about ``_PAIR_BLOCK`` at a time.  With u = W / sqrt(L), a vertex
    with u_i <= (1/16) / max(u) is in small pairs only and enters through
    power sums of u; the other vertices are sorted, and the small pairs of
    each such row, a prefix, enter through prefix sums.  A vertex whose
    u^terms would overflow has all its pairs in ``large``.
    """
    u = weights.values / math.sqrt(weights.sum_l)
    huge = u > 2.0 ** (900.0 / terms)  # keeps n^2 u^terms below the float range
    v = u[~huge] if huge.any() else u
    low = v <= _SERIES_CUT / float(v.max(initial=_SERIES_CUT))  # v is empty if all are huge
    tail = np.sort(v[~low])
    cut = np.searchsorted(tail, _SERIES_CUT / tail, side="right")
    base = np.concatenate((v[low], tail))
    powers = base.copy()  # the head's powers, then the tail's, through two views
    head_k, tail_k = powers[: len(v) - len(tail)], powers[len(v) - len(tail) :]
    prefix = np.zeros(len(tail) + 1)
    sums = np.empty(terms)
    for k in range(terms):
        s_head, s_tail = float(head_k.sum()), float(tail_k.sum())
        np.cumsum(tail_k, out=prefix[1:])
        # head x all, tail x head, then the small pairs inside the tail
        sums[k] = s_head * (s_head + 2.0 * s_tail) + float(tail_k @ prefix[cut])
        powers *= base
    # a huge vertex x pairs with every vertex, and every other vertex with x
    rows = ((x * u, x * v) for x in u[huge].tolist())
    return sums, itertools.chain(_large_pairs(tail, cut), itertools.chain.from_iterable(rows))


def _large_pairs(tail: np.ndarray, cut: np.ndarray):
    """Yield u_i u_j over the pairs of each sorted tail row past its cut."""
    counts = len(tail) - cut
    ends = np.append(0, np.cumsum(counts))  # pairs in the rows before each row
    lo = int(np.searchsorted(ends, 0, side="right")) - 1  # the rows before lo have none
    while lo < len(tail):
        # rows lo..hi-1 hold at most _PAIR_BLOCK pairs, or just row lo
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _PAIR_BLOCK, side="right")) - 1)
        c = counts[lo:hi]
        j = np.arange(ends[hi] - ends[lo]) + np.repeat(cut[lo:hi] - (ends[lo:hi] - ends[lo]), c)
        yield tail[np.repeat(np.arange(lo, hi), c)] * tail[j]
        lo = hi


def conditional_edge_mean(weights: WeightVector) -> float:
    """E[E_n | W] = sum_{i<j} p_ij, exact to rounding, without an n x n array.

    p = y/(1+y) = y - y^2 + ... over the small pairs of :func:`pair_power_sums`.
    """
    if weights.n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={weights.n}")
    sums, large_pairs = pair_power_sums(weights, _SERIES_TERMS)
    series = float(np.cumsum(sums * _SERIES_SIGNS)[-1])  # y - y^2 + ..., in order of k
    large = sum(float((y / (1.0 + y)).sum()) for y in large_pairs)
    diag = (weights.values / math.sqrt(weights.sum_l)) ** 2
    return 0.5 * (series + large - float((diag / (1.0 + diag)).sum()))


def write_edge_list(sample: GraphSample, path) -> None:
    """Dump edges as '<i> <j>' lines, 0-indexed, ascending lexicographic."""
    if sample.edges is None:
        raise ParameterError("graph was sampled without store_edges=True")
    with open(path, "w", encoding="ascii") as fh:
        for i, j in sorted(sample.edges):
            fh.write(f"{i} {j}\n")
