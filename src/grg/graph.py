"""The random graph itself: the sampler and the conditional edge mean.

Given weights W_1..W_n with total L, each unordered pair {i, j} is an
edge independently with probability p_ij = W_i W_j / (L + W_i W_j).
``sample_graph_fast``, the one sampler, which every command and
experiment runs, thins candidates drawn under a bucket envelope, in
numpy (the envelope idea of Batagelj & Brandes, PRE 2005, and Miller &
Hagberg, WAW 2011).  The weights are sorted in descending order and
grouped into buckets of a quarter binade of w/w_max, so a bucket is a
contiguous range whose first weight is its largest.  A block is the
product of two buckets, or the strict upper triangle of one; with
y = max_A max_B / L every pair of the block has p <= q = y/(1+y).  A
block of m pairs with y < 1 draws Poisson(m mu) uniform positions,
mu = log(1 + y), and keeps the distinct ones, so each pair is a
candidate with probability 1 - e^(-mu) = q, independently of the
others; a block with y >= 1 takes every pair as a candidate (q = 1).
Each candidate is an edge with probability p/q.  Within a block p
varies by at most a factor sqrt(2) in y, so the expected number of
candidates is O(n + edge_count).  Up to n = 11 all pairs form one block
with q = 1.

``conditional_edge_mean`` gives E[E_n | W] = sum_{i<j} p_ij at any n
without forming the n x n pair matrix, from the pair sums of
``pair_sums``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .weights import WeightVector

__all__ = [
    "GraphSample",
    "sample_graph_fast",
    "conditional_edge_mean",
    "pair_sums",
    "write_edge_list",
]

_SEED_MASK = (1 << 64) - 1

# pair_sums sums p = y/(1+y), y p and p^2, y = W_i W_j / L, over the pairs with
# y <= _SERIES_CUT by their series in y^k, k = 1..16, one row each of _PAIR_SERIES.
# The first term left out, at most 16 y^17 (of p^2), is below 2^-56 y^2 per pair.
_SERIES_CUT = 1.0 / 16.0
_PAIR_SERIES = np.array([
    [(-1.0) ** (k + 1), (-1.0) ** k * (k >= 2), (-1.0) ** k * (k - 1)] for k in range(1, 17)
]).T

# Pairs above the series cut are evaluated exactly, this many at a time.
_PAIR_BLOCK = 1 << 22

# The fast sampler draws about this many candidate pairs per numpy pass, whole
# segments of at most _CHUNK/2 expected draws each, so a pass can hold up to
# about 1.5 times as many: their int64 keys, about 0.8 MB at 2^16.  It decodes
# and thins a pass _THIN_BLOCK keys at a time, so no other pass-sized array is
# held while it thins.
_CHUNK = 1 << 16
_THIN_BLOCK = 1 << 14

# write_edge_list formats this many lines per write.
_WRITE_BLOCK = 1 << 16

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
    """One realized graph, reduced to the statistics the experiments use.

    ``degrees`` is the sampler's degree tally: int32 below 2^31 vertices, int64 from there.
    A hub's square passes 2^31 from degree 46,341, so cast with ``astype(np.int64)``
    before products or powers such as ``degrees @ degrees``.
    """

    n: int
    edge_count: int
    degrees: np.ndarray
    candidates_examined: int
    edges: np.ndarray | None = field(default=None, repr=False)  # (E, 2) ints, rows i < j, unsorted


def sample_graph_fast(
    weights: WeightVector, seed: int, store_edges: bool = False
) -> GraphSample:
    """Bucket thinning in numpy: every pair is an edge with probability p_ij, independently.

    Every pair is a candidate independently with probability q, the
    envelope of its block, and a candidate is an edge with probability
    p/q (see the module docstring).  Candidates are drawn about ``_CHUNK``
    at a time and thinned ``_THIN_BLOCK`` at a time, with the uniforms of
    each sub-block drawn as they are needed; ``candidates_examined`` counts
    them.  The degrees are the tally, int32 (int64 from 2^31 vertices).
    Besides the 8 bytes per vertex of the weights, it holds that tally, the
    int64 keys of one candidate pass with one sub-block decoded from them
    and, for weights not in descending order, their sorted copy and int32
    vertex order: with the weights, a tracemalloc peak of 14.7 bytes per
    vertex on descending ParetoLog(1.5) weights at n = 1e6 and 13.1 at 4e6,
    26.7 and 25.1 unsorted, each in a fresh process.  No pass-sized
    temporary is freed, so glibc does not trim the heap top after every
    pass and fault it back in (see ``descending_weights``).
    """
    n = weights.n
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    l_n = weights.sum_l
    rng = np.random.default_rng(seed & _SEED_MASK)
    itype = np.int32 if n < 1 << 31 else np.int64  # of the vertex order and degree tally
    small, m = n <= _ALL_PAIRS_MAX_N, n * (n - 1) // 2
    v = weights.values  # thinned as it is when in descending order, or n <= 11
    order = None if small or not (v[1:] > v[:-1]).any() else np.argsort(-v).astype(itype)
    v = v if order is None else v[order]
    chunks = [(_COLEX_I[:m], _COLEX_J[:m], 1.0)] if small else _bucket_candidates(v, l_n, rng)
    tally = np.zeros(n, dtype=itype)
    pieces = [np.empty((0, 2), dtype=itype)] if store_edges else None
    candidates = edge_count = 0
    for i, j, q in chunks:
        p = v[i]
        p *= v[j]
        p /= p + l_n
        u = rng.random(len(i))  # a pass's uniforms, drawn a sub-block at a time
        u *= q
        hit = u < p
        i, j = i[hit], j[hit]
        candidates += len(hit)
        edge_count += len(i)
        # O(hits), not O(n), per sub-block; adding a Python 1 to int32 is 30 times slower
        np.add.at(tally, i, itype(1))
        np.add.at(tally, j, itype(1))
        if pieces is not None:
            i, j = (i, j) if order is None else (order[i], order[j])
            pieces.append(np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1))
        del p, q, u, i, j, hit  # not held while the next sub-block is decoded
    del v
    degrees = tally
    if order is not None:  # back to the caller's labels, once the sorted copy is released
        degrees = np.empty(n, dtype=itype)
        degrees[order] = tally
    return GraphSample(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        candidates_examined=candidates,
        edges=None if pieces is None else np.concatenate(pieces),
    )


def descending_weights(weights: WeightVector, in_place: bool = False) -> WeightVector:
    """The weights in descending order, which ``sample_graph_fast`` thins with no permutation.

    It draws the same graph as from ``weights``, relabelled in that order; up to n = 11,
    where it does not sort, ``weights`` come back as they are.  By default the values are a
    new array, so ``weights`` keep their order.  With ``in_place=True``, for a caller that
    owns its draw, they are sorted where they are, ascending, and viewed reversed: 8 bytes
    per vertex less.  No weight array is then freed, so glibc keeps its default mmap and
    trim thresholds; that costs no page faults only because ``sample_graph_fast`` thins in
    sub-blocks and frees no temporary large enough to trim the heap top.
    """
    if weights.n <= _ALL_PAIRS_MAX_N:
        return weights
    values = weights.values
    if in_place:
        values.sort()
    else:
        values = np.sort(values)
    return WeightVector(values[::-1], weights.sum_l, weights.sum_sq)


def _bucket_candidates(v: np.ndarray, l_n: float, rng: np.random.Generator):
    """Yield ``(i, j, q)``: candidate pairs of sorted indices and their envelopes.

    Each block's flat positions (row-major for a product, the pairs
    (c, c + r + 1 mod s) for a triangle of size s) are cut into
    segments of about ``_CHUNK/2`` expected draws, and whole segments
    go to one chunk, so no position is drawn in two chunks.  A chunk's
    keys are drawn in one call and sorted; then they are deduplicated,
    decoded and yielded ``_THIN_BLOCK`` at a time, a key equal to the last
    of the previous sub-block dropped too.  The numpy calls per graph grow
    with the number of sub-blocks, never with the number of buckets.
    """
    n = len(v)
    # bucket k starts after the weights above v[0] * 2^(-k/4)
    first = np.append(0, n - np.searchsorted(v[::-1], v[0] * _LEVELS, side="right"))
    first = first[np.append(True, first[1:] != first[:-1]) & (first < n)]
    size = np.append(first[1:], n) - first
    a, b = np.triu_indices(len(first))  # the bucket pairs a <= b, row-major
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
    ends = slot + count
    for s0, s1 in zip(cuts, cuts[1:] + [len(count)]):
        seg = np.repeat(np.arange(s0, s1), count[s0:s1])
        if len(seg) == 0:
            continue
        key = rng.integers(length[seg])  # drawn for enumerated segments too
        d = np.flatnonzero(seg_dense[seg])  # an enumerated segment's keys are its slots
        key[d] = d + slot[s0] - slot[seg[d]]
        key += start[seg]
        del d
        # segments hold disjoint increasing key ranges, so the sort keeps
        # every key beside its segment
        key.sort()
        # A one-sub-block chunk keeps its segment index; in a longer one each sub-block
        # rebuilds its own, so only the keys span the chunk.  One-path decodes measured
        # worse: rebuilding always (+8-12% per call at n = 200 and 5,000), a searchsorted
        # block lookup (243 -> 269 ms on ParetoLog(1.5) at n = 1e6), the chunk's index kept
        # (minor faults 7.8k -> 14.6k), and sub-blocks of whole segments (+1.3 MB RSS).
        split = len(key) > _THIN_BLOCK
        if split:
            del seg
        for lo in range(0, len(key), _THIN_BLOCK):
            sub = key[lo : lo + _THIN_BLOCK]
            if split:  # the segments of slots g0..g1-1, each repeated for its slots there
                g0, g1 = slot[s0] + lo, slot[s0] + lo + len(sub)
                a = s0 + int(np.searchsorted(ends[s0:s1], g0, side="right"))
                b = s0 + int(np.searchsorted(slot[s0:s1], g1))
                seg = np.repeat(np.arange(a, b),
                                np.minimum(ends[a:b], g1) - np.maximum(slot[a:b], g0))
            new = np.concatenate(([lo == 0 or sub[0] != key[lo - 1]], sub[1:] != sub[:-1]))
            k = block[seg[new]]
            r = sub[new]
            r -= base[k]
            w, tri = width[k], diag[k]
            # rectangle: row r, column c; triangle: the pair (c + r + 1 mod w, c),
            # where c + r + 1 < 2w, as its rows and columns start together
            r, c = np.divmod(r, w)
            np.add(r, c + 1, out=r, where=tri)
            np.subtract(r, w, out=r, where=tri & (r >= w))
            del sub, seg, new, w, tri  # not held while the caller thins the sub-block
            r += row0[k]
            c += col0[k]
            yield r, c, q[k]
            del k, r, c  # nor while the next sub-block is decoded
        del key  # nor while the next chunk is drawn


def pair_sums(weights: WeightVector) -> tuple[float, float, float]:
    """Sums of p, y p and p^2 over the ordered pairs, diagonal included, exact to rounding.

    Here y = W_i W_j / L and p = y/(1+y).  Each row of ``_PAIR_SERIES``
    weights the power sums of :func:`_pair_power_sums`, summed in order of
    k; the large pairs are added to a total that starts at zero, one block
    at a time, and then to the series.
    """
    sums, large_pairs = _pair_power_sums(weights)
    series = np.cumsum(_PAIR_SERIES * sums, axis=1)[:, -1]
    large = np.zeros(3)
    for y in large_pairs:
        p = y / (1.0 + y)
        large += [p.sum(), (y * p).sum(), (p * p).sum()]
    return tuple((series + large).tolist())


def _pair_power_sums(weights: WeightVector):
    """Power sums of y = W_i W_j / L over the ordered pairs, diagonal included.

    Returns ``(sums, large)``: ``sums[k - 1]`` sums y^k, k = 1..16, over
    the pairs with y <= 1/16; ``large`` yields the y of every other pair,
    about ``_PAIR_BLOCK`` at a time.  With u = W / sqrt(L), a vertex with
    u_i <= (1/16) / max(u) is in small pairs only and enters through power
    sums of u; the other vertices are sorted, and the small pairs of each
    such row, a prefix, enter through prefix sums.  A vertex whose u^16
    would overflow has all its pairs in ``large``.
    """
    terms = _PAIR_SERIES.shape[1]
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

    Half the sum of p over the ordered pairs from :func:`pair_sums`, less
    the diagonal terms d/(1+d), d = W_i^2 / L, kept in [0, n(n-1)/2]: where
    every p rounds to 1, the difference can round past the pair count.
    """
    if weights.n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={weights.n}")
    diag = (weights.values / math.sqrt(weights.sum_l)) ** 2
    mean = 0.5 * (pair_sums(weights)[0] - float((diag / (1.0 + diag)).sum()))
    return min(max(mean, 0.0), float(weights.n * (weights.n - 1) // 2))


def write_edge_list(sample: GraphSample, path) -> None:
    """Dump edges as '<i> <j>' lines, 0-indexed, ascending lexicographic."""
    if sample.edges is None:
        raise ParameterError("graph was sampled without store_edges=True")
    key = sample.edges[:, 0].astype(np.int64) * sample.n + sample.edges[:, 1]
    key.sort()  # i n + j orders the pairs as (i, j) does, since j < n
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, len(key), _WRITE_BLOCK):
            i, j = np.divmod(key[start : start + _WRITE_BLOCK], sample.n)
            fh.write("".join(f"{a} {b}\n" for a, b in zip(i.tolist(), j.tolist())))
