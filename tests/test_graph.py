"""Graph samplers against exact pair probabilities and the exact pmf."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import grg.graph
import grg.weights
from grg import (
    ConstantWeights,
    ExponentialWeights,
    GammaWeights,
    LogNormalWeights,
    ParameterError,
    ParetoLogWeights,
    ParetoWeights,
    SizeError,
    WeightVector,
    conditional_edge_mean,
    ks_two_sample,
    sample_graph_fast,
    sample_weights,
    write_edge_list,
)
from grg.cli import main as cli_main
from grg.graph import descending_weights
from grg.limits import replication_weights
from grg.seeding import derive_seed
from oracles import NAIVE_MAX_N, exact_pmf, pair_probabilities, sample_graph_naive


def brute_force_pmf(values):
    """Enumerate all 2^m edge configurations; the reference law."""
    w = list(values)
    n = len(w)
    l_n = math.fsum(w)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    probs = [w[i] * w[j] / (l_n + w[i] * w[j]) for i, j in pairs]
    pmf = np.zeros(len(pairs) + 1)
    for config in itertools.product([0, 1], repeat=len(pairs)):
        weight = 1.0
        for on, p in zip(config, probs):
            weight *= p if on else 1.0 - p
        pmf[sum(config)] += weight
    return pmf


def empirical_pmf(sampler, weights, n_seeds, max_count):
    counts = np.zeros(max_count + 1)
    for seed in range(n_seeds):
        counts[sampler(weights, seed).edge_count] += 1
    return counts / n_seeds


class TestExactPmf:
    def test_single_edge(self):
        pmf = exact_pmf(WeightVector.from_values([1.0, 1.0]))
        np.testing.assert_allclose(pmf, [2 / 3, 1 / 3])

    def test_three_equal_weights_binomial(self):
        pmf = exact_pmf(WeightVector.from_values([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(pmf, np.array([27, 27, 9, 1]) / 64)

    def test_mixed_weights(self):
        # p12=1/4, p13=1/3, p23=1/2 -> [6, 11, 6, 1]/24
        pmf = exact_pmf(WeightVector.from_values([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(pmf, np.array([6, 11, 6, 1]) / 24)

    @pytest.mark.parametrize("values", [[0.5, 1, 2, 4], [1, 1, 2, 3, 5], [2, 2, 2, 2, 2, 2]])
    def test_against_brute_force(self, values):
        pmf = exact_pmf(WeightVector.from_values(values))
        np.testing.assert_allclose(pmf, brute_force_pmf(values), atol=1e-12)

    def test_normalization_and_mean(self):
        wv = WeightVector.from_values([0.3, 1.1, 2.2, 0.7, 5.0])
        pmf = exact_pmf(wv)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert abs(pmf_mean(pmf) - pair_probabilities(wv).sum()) < 1e-10


def pmf_mean(pmf):
    return float(np.dot(np.arange(len(pmf)), pmf))


class TestConditionalEdgeMean:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_matches_exact_pmf_mean(self, n):
        for model in (ExponentialWeights(1.0), ParetoWeights(1.5, 1.0)):
            wv = sample_weights(model, n, seed=n)
            expected = pmf_mean(exact_pmf(wv))
            assert conditional_edge_mean(wv) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            ConstantWeights(2.0),
            ExponentialWeights(1.0),
            LogNormalWeights(0.0, 1.0),
            GammaWeights(2.0, 1.5),
            ParetoWeights(1.5, 1.0),
            ParetoLogWeights(1.5, 1.0),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_matches_dense_sum(self, model):
        for seed in (1, 2):
            wv = sample_weights(model, 2000, seed)
            assert conditional_edge_mean(wv) == pytest.approx(pair_probabilities(wv).sum(),
                                                              rel=1e-12)

    def test_pairs_above_the_series_cut(self):
        """Dominant weights put most pairs past the series; still exact."""
        values = np.concatenate([np.full(40, 500.0), np.linspace(0.1, 3.0, 300)])
        wv = WeightVector.from_values(values)
        assert conditional_edge_mean(wv) == pytest.approx(pair_probabilities(wv).sum(),
                                                          rel=1e-12)

    def test_weights_whose_powers_overflow(self):
        """A vertex with u^14 past the float range has its pairs summed exactly."""
        for values in ([1e50, 3.0, 2.0, 1.0, 1e-3], [1e50, 1e49, 3.0, 1e-3, 1e-9], [1e60, 1e60]):
            wv = WeightVector.from_values(values)
            assert conditional_edge_mean(wv) == pytest.approx(pair_probabilities(wv).sum(),
                                                              rel=1e-12)

    def test_large_pairs_in_small_blocks(self, monkeypatch):
        """Large pairs split into blocks of a few rows, and rows longer than a block."""
        values = np.concatenate([np.full(40, 500.0), np.linspace(0.1, 3.0, 300)])
        wv = WeightVector.from_values(values)
        expected = conditional_edge_mean(wv)
        for block in (1, 7, 100):
            monkeypatch.setattr(grg.graph, "_PAIR_BLOCK", block)
            assert conditional_edge_mean(wv) == pytest.approx(expected, rel=1e-13)
            assert conditional_edge_mean(wv) == pytest.approx(pair_probabilities(wv).sum(),
                                                              rel=1e-12)

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_constant_weights(self, n):
        """Weights n lam/(n - lam) give p = lam/n, so the mean is (n-1) lam/2."""
        lam = 2.0
        wv = WeightVector.from_values(np.full(n, n * lam / (n - lam)))
        assert conditional_edge_mean(wv) == pytest.approx((n - 1) * lam / 2, rel=1e-12)

    @pytest.mark.parametrize("values", [
        [1.9992771060427144e16, 1.9992771058285404e16],  # Gamma(2e16, 1) at n = 2, seed 1
        [2.686e17, 2.80181e19, 4.6797e19],
    ], ids=["n2", "n3"])
    def test_never_above_the_pair_count(self, values):
        """Where every p rounds to 1, the mean is n(n-1)/2, not an ulp above it."""
        wv = WeightVector.from_values(values)
        assert conditional_edge_mean(wv) == len(values) * (len(values) - 1) // 2

    def test_rejects_single_vertex(self):
        wv = WeightVector.from_values([1.0])
        for fn in (conditional_edge_mean, lambda w: sample_graph_fast(w, 0)):
            with pytest.raises(ParameterError):
                fn(wv)


class TestSamplers:
    def test_handshake_both_samplers(self):
        wv = sample_weights(ExponentialWeights(1.0), 300, seed=17)
        for sampler in (sample_graph_naive, sample_graph_fast):
            g = sampler(wv, 99)
            assert int(g.degrees.sum()) == 2 * g.edge_count
            assert 0 <= g.edge_count <= 300 * 299 // 2

    def test_single_pair_frequencies(self):
        """n=2: both code paths hit the exact edge probability 3/7."""
        wv = WeightVector.from_values([3.0, 1.0])
        p_exact = 3.0 / 7.0
        for base, sampler in ((0, sample_graph_naive), (50_000, sample_graph_fast)):
            hits = sum(sampler(wv, base + s).edge_count for s in range(50_000))
            assert abs(hits / 50_000 - p_exact) < 0.01, sampler

    def test_single_edge_frequency(self):
        """Unit weights, n=2: edge probability 1/3 over 3e4 seeds."""
        wv = WeightVector.from_values([1.0, 1.0])
        hits = sum(sample_graph_naive(wv, s).edge_count for s in range(30_000))
        assert abs(hits / 30_000 - 1 / 3) < 0.01

    def test_equal_weights_binomial_mean(self):
        """Unit weights, n=3: mean edge count 3/4 over 1e4 seeds."""
        wv = WeightVector.from_values([1.0, 1.0, 1.0])
        total = sum(sample_graph_naive(wv, s).edge_count for s in range(10_000))
        assert abs(total / 10_000 - 0.75) < 0.02

    def test_er_expected_edges(self):
        """Constant lam=2, n=10: every p_ij = 0.2, so E[edges] = 9."""
        wv = sample_weights(ConstantWeights(2.0), 10, seed=0)
        total = sum(sample_graph_naive(wv, s).edge_count for s in range(10_000))
        assert abs(total / 10_000 - 9.0) < 0.15

    def test_mean_degree_er(self):
        """Constant lam=2, n=10: mean degree 2*9/10 = 1.8 over replications."""
        wv = sample_weights(ConstantWeights(2.0), 10, seed=0)
        acc = 0.0
        for s in range(10_000):
            acc += float(sample_graph_fast(wv, s).degrees.mean())
        assert abs(acc / 10_000 - 1.8) < 0.05

    def test_tv_against_exact_pmf_n6(self):
        """Empirical pmfs over 1e5 seeds within TV 0.02 of the exact law at n=6."""
        wv = WeightVector.from_values([0.4, 0.8, 1.0, 1.5, 2.5, 6.0])
        exact = exact_pmf(wv)
        for sampler in (sample_graph_naive, sample_graph_fast):
            emp = empirical_pmf(sampler, wv, 100_000, len(exact) - 1)
            assert 0.5 * np.abs(emp - exact).sum() <= 0.02, sampler

    def test_sampler_equivalence_ks(self):
        """Two-sample KS between edge-count laws of the two samplers.

        One fixed exponential weight vector at n=200, 1e4 replications
        per sampler; the lattice-valued statistics make the test
        conservative, so 0.01 stays reliable.
        """
        wv = sample_weights(ExponentialWeights(1.0), 200, seed=8)
        a = np.array([sample_graph_naive(wv, s).edge_count for s in range(10_000)])
        b = np.array([sample_graph_fast(wv, 10_000 + s).edge_count for s in range(10_000)])
        res = ks_two_sample(a, b)
        assert res.p_value > 0.01, res

    def test_fast_degrees_in_original_order(self):
        """A dominant first vertex must keep its degree after unsorting."""
        values = np.array([0.2, 0.2, 50.0, 0.2, 0.2])  # heavy vertex at index 2
        wv = WeightVector.from_values(values)
        g = sample_graph_fast(wv, 4, store_edges=True)
        assert g.degrees[2] == max(g.degrees)
        recomputed = np.zeros(5, dtype=int)
        for i, j in g.edges:
            assert i < j
            recomputed[i] += 1
            recomputed[j] += 1
        assert np.array_equal(recomputed, g.degrees)

    def test_fast_large_heavy_tailed_run(self):
        """Pareto(1.5) at n=1e6 completes with E_n/(n*EW/2) inside (0.9, 1.1)."""
        from grg import ParetoWeights

        wv = sample_weights(ParetoWeights(1.5, 1.0), 10**6, seed=777)
        g = sample_graph_fast(wv, 778)
        ratio = g.edge_count / (10**6 * 1.5)
        assert 0.9 < ratio < 1.1, ratio

    def test_determinism_and_instrumentation(self):
        wv = sample_weights(ExponentialWeights(1.0), 500, seed=21)
        g1 = sample_graph_fast(wv, 34)
        g2 = sample_graph_fast(wv, 34)
        assert g1.edge_count == g2.edge_count
        assert np.array_equal(g1.degrees, g2.degrees)
        assert g1.candidates_examined == g2.candidates_examined > 0

    def test_naive_size_cap(self):
        wv = WeightVector(np.ones(NAIVE_MAX_N + 1), float(NAIVE_MAX_N + 1), float(NAIVE_MAX_N + 1))
        with pytest.raises(SizeError):
            sample_graph_naive(wv, 0)

    def test_edge_list_dump(self, tmp_path):
        wv = WeightVector.from_values([1.0, 2.0, 3.0, 4.0])
        g = sample_graph_naive(wv, 12, store_edges=True)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert len(lines) == g.edge_count
        parsed = [tuple(map(int, line.split())) for line in lines]
        assert parsed == sorted(parsed)
        assert all(0 <= i < j < 4 for i, j in parsed)

    def test_edge_list_requires_flag(self):
        g = sample_graph_naive(WeightVector.from_values([1.0, 1.0]), 5)
        with pytest.raises(ParameterError):
            write_edge_list(g, "/tmp/never.txt")


def assert_pair_frequencies(weights, reps=5000):
    """Each pair's edge frequency over ``reps`` fast graphs matches p_ij.

    Pairs with reps p(1-p) >= 5 must have a mean squared z-score within
    0.25 of 1; the others are pooled, within 4 standard deviations.
    """
    p = pair_probabilities(weights)
    counts = np.zeros((weights.n, weights.n))
    for s in range(reps):
        i, j = sample_graph_fast(weights, s, store_edges=True).edges.T
        counts[i, j] += 1
    hits = counts[np.triu_indices(weights.n, 1)]
    spread = reps * p * (1.0 - p)
    z2 = (hits - reps * p) ** 2 / np.maximum(spread, 1e-300)
    wide = spread >= 5.0
    assert wide.sum() > 100
    assert abs(z2[wide].mean() - 1.0) <= 0.25, z2[wide].mean()
    # the rare pairs pooled
    rare = reps * p[~wide].sum()
    assert abs(hits[~wide].sum() - rare) <= 4.0 * math.sqrt(rare)


class TestBucketThinning:
    """The fast sampler on weights that span many buckets, against the exact law."""

    @pytest.mark.parametrize(
        "model", [ParetoWeights(1.5, 1.0), ExponentialWeights(1.0)], ids=lambda m: type(m).__name__
    )
    def test_edge_count_mean_and_variance(self, model):
        """Mean E[E_n|W] and variance sum p(1-p) at n=300, each within 4 standard errors."""
        wv = sample_weights(model, 300, seed=2024)
        assert np.log2(wv.values.max() / wv.values.min()) > 5  # over 20 buckets
        p = pair_probabilities(wv)
        mean, var = conditional_edge_mean(wv), float((p * (1.0 - p)).sum())
        reps = 4000
        counts = np.array([sample_graph_fast(wv, s).edge_count for s in range(reps)])
        assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(var / reps)
        assert abs(counts.var(ddof=1) - var) <= 4.0 * var * math.sqrt(2.0 / (reps - 1))

    def test_pair_frequencies_across_chunks(self, monkeypatch):
        """Every pair's edge frequency matches p_ij when the candidates span many chunks.

        A dominant weight puts some blocks at envelope 1.  With 16
        candidates per chunk every block is cut into several segments.
        """
        monkeypatch.setattr(grg.graph, "_CHUNK", 16)
        rng = np.random.default_rng(3)
        wv = WeightVector.from_values(np.concatenate([[400.0, 250.0, 90.0],
                                                      rng.pareto(1.2, 37) + 0.05]))
        assert_pair_frequencies(wv)

    def test_pair_frequencies_with_mixed_chunks(self, monkeypatch):
        """Pair frequencies match p_ij when chunks differ in what they hold.

        Three huge weights put blocks at envelope 1, enumerated pair by
        pair.  With 32 candidates per chunk, some chunks hold enumerated
        segments, some triangle blocks (both ends in one bucket), some
        both and some neither, so the chunk loop's dense-slot offsets and
        triangle map each meet chunks with and without their blocks.
        """
        monkeypatch.setattr(grg.graph, "_CHUNK", 32)
        rng = np.random.default_rng(3)
        wv = WeightVector.from_values(np.concatenate([[1e4, 5e3, 2e3], rng.pareto(1.5, 60) + 0.05]))
        v = np.sort(wv.values)[::-1]
        ends = wv.n - np.searchsorted(v[::-1], v[0] * grg.graph._LEVELS, side="right")
        bucket = np.searchsorted(ends, np.arange(wv.n), side="right")  # of each sorted index
        kinds = set()
        candidates = grg.graph._bucket_candidates

        def recorded(*args):
            for i, j, q in candidates(*args):
                kinds.add((bool((q == 1.0).any()), bool((bucket[i] == bucket[j]).any())))
                yield i, j, q

        monkeypatch.setattr(grg.graph, "_bucket_candidates", recorded)
        assert_pair_frequencies(wv)
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("chunk", [16, 1 << 17])
    def test_enumerated_blocks_hold_every_pair_once(self, chunk, monkeypatch):
        """With y >= 1 for every pair, each pair is one candidate and p > 0.9.

        Log-uniform weights on [1e4, 1e5] fill 13 quarter binades, so the
        triangles of buckets of several vertices map every position.
        """
        monkeypatch.setattr(grg.graph, "_CHUNK", chunk)
        wv = WeightVector.from_values(np.geomspace(1e4, 1e5, 60))
        assert wv.values.min() ** 2 >= wv.sum_l
        seen = np.zeros((60, 60), dtype=bool)
        for seed in range(40):
            g = sample_graph_fast(wv, seed, store_edges=True)
            assert g.candidates_examined == 60 * 59 // 2
            assert len(np.unique(g.edges, axis=0)) == g.edge_count
            seen[tuple(g.edges.T)] = True
        assert seen[np.triu_indices(60, 1)].all()

    def test_stored_edges_rebuild_degrees(self, monkeypatch):
        """Also with 16 candidates per chunk, so that degrees add up over hundreds of chunks."""
        wv = sample_weights(ParetoWeights(1.5, 1.0), 2000, seed=5)
        for chunk in (grg.graph._CHUNK, 16):
            monkeypatch.setattr(grg.graph, "_CHUNK", chunk)
            g = sample_graph_fast(wv, 6, store_edges=True)
            edges = np.array(g.edges)
            assert len(edges) == g.edge_count > 0
            assert np.all(edges[:, 0] < edges[:, 1])
            assert len({tuple(e) for e in edges.tolist()}) == g.edge_count
            assert np.array_equal(np.bincount(edges.ravel(), minlength=2000), g.degrees)
            assert int(g.degrees.sum()) == 2 * g.edge_count
        assert g.candidates_examined > 100 * 16
        empty = sample_graph_fast(WeightVector.from_values(np.full(50, 1e-6)), 1, store_edges=True)
        assert empty.edges.shape == (0, 2) and empty.edge_count == 0

    def test_tiny_envelopes_do_not_overflow(self):
        """Envelopes of about 3e-22 between the light weights: no index overflow."""
        wv = WeightVector.from_values(np.concatenate([np.full(2000, 1e-9), [1e3, 1e3, 1e3]]))
        for seed in range(20):
            g = sample_graph_fast(wv, seed)
            assert int(g.degrees.sum()) == 2 * g.edge_count
            assert g.candidates_examined <= 5 * (wv.n + g.edge_count)


def sizes_and_in_place(*sizes):
    """``(n, in_place)`` for each size and both values of the flag; ids "300", "300-in_place"."""
    return [pytest.param(n, in_place, id=f"{n}-in_place" if in_place else str(n))
            for in_place in (False, True) for n in sizes]


class TestDescendingWeights:
    """Weights in descending order are thinned with no vertex permutation, to the same graph."""

    @staticmethod
    def assert_relabelled(wv, seed, in_place):
        """The descending weights give the same graph as ``wv``, its vertices in that order.

        Returns both graphs and the vertex order, taken before an in-place sort.
        """
        g = sample_graph_fast(wv, seed)
        order = np.argsort(-wv.values)
        desc = descending_weights(wv, in_place=in_place)
        assert np.all(desc.values[1:] <= desc.values[:-1])
        assert (desc.sum_l, desc.sum_sq) == (wv.sum_l, wv.sum_sq)
        h = sample_graph_fast(desc, seed, store_edges=True)
        assert (h.edge_count, h.candidates_examined) == (g.edge_count, g.candidates_examined)
        assert np.array_equal(np.bincount(h.edges.ravel(), minlength=wv.n), h.degrees)
        assert np.all(h.edges[:, 0] < h.edges[:, 1])
        return g, h, order

    @pytest.mark.parametrize("n, in_place", sizes_and_in_place(300, 20_000))
    @pytest.mark.parametrize(
        "model", [ParetoWeights(1.5, 1.0), ParetoLogWeights(1.5, 1.0), ExponentialWeights(1.0)],
        ids=lambda m: type(m).__name__,
    )
    def test_same_graph_as_the_permutation_path(self, model, n, in_place):
        wv = sample_weights(model, n, seed=n + 7)
        g, h, order = self.assert_relabelled(wv, n + 8, in_place)
        assert h.edge_count > 0
        assert np.array_equal(h.degrees, g.degrees[order])

    @pytest.mark.parametrize("n, in_place", sizes_and_in_place(300, 20_000))
    def test_constant_weights(self, n, in_place):
        """All ties: the weights are already descending, so both calls thin them as they are."""
        wv = sample_weights(ConstantWeights(3.0), n, seed=n)
        g, h, _ = self.assert_relabelled(wv, n + 1, in_place)
        assert h.edge_count > 0
        assert np.array_equal(h.degrees, g.degrees)

    def test_the_copy_is_a_new_array(self):
        """By default the caller's weights keep their order."""
        wv = sample_weights(ParetoWeights(1.5, 1.0), 1000, seed=3)
        drawn = wv.values.copy()
        desc = descending_weights(wv)
        assert not np.shares_memory(desc.values, wv.values)
        assert np.array_equal(wv.values, drawn)
        assert np.array_equal(desc.values, np.sort(drawn)[::-1])

    def test_in_place_sorts_the_callers_values(self):
        """A caller that owns its draw sorts it in place: its values end ascending, and the
        result is a reversed view of them, with no copy."""
        wv = sample_weights(ParetoWeights(1.5, 1.0), 1000, seed=3)
        drawn = wv.values.copy()
        desc = descending_weights(wv, in_place=True)
        assert np.array_equal(wv.values, np.sort(drawn))
        assert desc.values.base is wv.values and desc.values.strides == (-8,)
        assert np.array_equal(desc.values, wv.values[::-1])

    def test_up_to_eleven_vertices_are_not_sorted(self):
        """Up to n = 11 the sampler takes every pair in label order, so nothing is relabelled,
        in place or not."""
        wv = WeightVector.from_values([1.0, 3.0, 2.0, 5.0])
        for in_place in (False, True):
            assert descending_weights(wv, in_place=in_place) is wv
        assert wv.values.tolist() == [1.0, 3.0, 2.0, 5.0]

    def test_grg_sample_summary(self, tmp_path):
        """`grg sample` relabels its vertices and writes the summary of the draw-order graph."""
        model, n, seed = ParetoLogWeights(1.5, 1.0), 20_000, 11
        assert cli_main(["sample", "--model", "paretolog:alpha=1.5,xm=1", "--n", str(n),
                         "--seed", str(seed), "--out", str(tmp_path / "s.json")]) == 0
        wv = sample_weights(model, n, seed)
        assert np.any(wv.values[1:] > wv.values[:-1])  # drawn out of order
        g = sample_graph_fast(wv, seed + 1)
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary == {
            "model": {"kind": "paretolog", "alpha": 1.5, "xm": 1.0}, "n": n, "seed": seed,
            "sampler": "fast", "edge_count": g.edge_count, "edges_per_vertex": g.edge_count / n,
            "L_n": wv.sum_l, "sum_sq": wv.sum_sq, "degree_min": int(g.degrees.min()),
            "degree_max": int(g.degrees.max()), "degree_mean": float(g.degrees.mean()),
            "candidates_examined": g.candidates_examined,
        }


def traced_peaks(n):
    """tracemalloc peaks of sample_weights and of sample_graph_fast on Pareto(1.5) at n.

    The sampler's peak counts the weights it is given, 8 bytes per vertex.
    """
    tracemalloc.start()
    try:
        wv = sample_weights(ParetoWeights(1.5, 1.0), n, seed=n)
        weights_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        g = sample_graph_fast(wv, n + 1)
        sampler_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return weights_peak, sampler_peak, g


class TestSubBlocks:
    """A candidate pass is decoded and thinned in sub-blocks on one random stream."""

    @pytest.mark.parametrize("split", [1, 777, 8192, 50_000])
    def test_split_draws_equal_one_draw(self, split):
        """Split `rng.random` and array-bound `rng.integers` calls give the numbers and the
        generator state of one call, with bounds below and above 2^32.

        The sampler draws a pass's keys in one call and its uniforms a sub-block at a
        time; a numpy whose split draws differ would change every graph, and fails here.
        """
        bounds = np.random.default_rng(5).integers(1, 1 << 20, size=100_000)
        bounds[::3] = np.random.default_rng(6).integers(1 << 33, 1 << 50, size=len(bounds[::3]))
        for draw in (lambda rng, b: rng.random(len(b)), lambda rng, b: rng.integers(b)):
            one, two = np.random.default_rng(77), np.random.default_rng(77)
            whole = draw(one, bounds)
            parts = np.concatenate([draw(two, bounds[:split]), draw(two, bounds[split:])])
            assert np.array_equal(whole, parts)
            assert one.bit_generator.state == two.bit_generator.state

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_sub_block_size_leaves_the_graph(self, block, monkeypatch):
        """Sub-blocks of 1, 7 and 300 keys give the graph of one sub-block per pass.

        Passes of 2^10 draws cut the candidates into many passes, and duplicate keys
        meet across sub-block boundaries, where only the first is kept.
        """
        monkeypatch.setattr(grg.graph, "_CHUNK", 1 << 10)
        wv = sample_weights(ParetoLogWeights(1.5, 1.0), 2000, seed=21)
        got = {}
        for size in (1 << 30, block):
            monkeypatch.setattr(grg.graph, "_THIN_BLOCK", size)
            g = sample_graph_fast(wv, 22, store_edges=True)
            got[size] = (g.edge_count, g.candidates_examined, g.degrees.tolist(),
                         g.edges.tolist())
        assert got[block] == got[1 << 30]
        assert got[block][1] > 4 * (1 << 10)


class TestMemoryAndStreams:
    def test_peak_memory_per_vertex(self):
        """One large graph holds at most 26.5 bytes per vertex, plus one candidate pass.

        Per vertex, the argsort of the weights holds them, their negation and
        the int64 order (24 bytes); thinning holds the weights, their sorted copy
        and the int32 order and tally (24 bytes).  Measured: slopes of 23.1 (in a
        fresh process) and 24.2 (after other tests), and intercepts of 40 and
        26 * _CHUNK bytes (71 and 58 when each pass was decoded at once).  The
        bounds are the worst of these plus a margin of 8-10%; the intercept moves
        by 3 * _CHUNK for each byte per vertex of slope.  The weights themselves
        peak at 10 bytes per vertex (the values and a positivity mask) plus the
        temporaries of one block of exact sums.
        The degrees are the tally, in the sampler's index type.
        """
        sizes = (200_000, 800_000)
        (w0, s0, g0), (w1, s1, g1) = map(traced_peaks, sizes)
        slope = (s1 - s0) / (sizes[1] - sizes[0])
        intercept = s0 - slope * sizes[0]
        assert slope <= 26.5, (slope, intercept)
        assert intercept <= 44 * grg.graph._CHUNK, (slope, intercept)
        for n, w, g in zip(sizes, (w0, w1), (g0, g1)):
            assert w <= 10 * n + 64 * grg.weights._SUM_BLOCK, (n, w / n)
            assert g.degrees.dtype == np.int32
            assert int(g.degrees.sum()) == 2 * g.edge_count > n

    def test_descending_weights_peak(self):
        """On descending weights the sampler holds at most 16.0 bytes per vertex, weights included.

        The weights (8), the int32 tally, which is the degrees (4), and one
        pass of candidate keys with one sub-block decoded from it; a sorted copy
        and an int32 vertex order would add 12.  Measured at n = 10^6: 14.0
        bytes per vertex (14.6 in a fresh process; 16.2 and 16.9 when the whole
        pass was decoded at once); the bound leaves a margin of 9% over the worst.
        """
        n = 10**6
        tracemalloc.start()
        try:
            wv = descending_weights(sample_weights(ParetoLogWeights(1.5, 1.0), n, seed=4242))
            tracemalloc.reset_peak()
            g = sample_graph_fast(wv, 4243)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.0 * n, peak / n
        assert int(g.degrees.sum()) == 2 * g.edge_count > n

    def test_grg_sample_peak(self, capsys):
        """`grg sample` at n = 10^6 holds at most 15.5 bytes per vertex, in process.

        It sorts its own draw in place, so it never holds two weight arrays, and
        then holds the weights, the int32 tally and one pass of candidate keys.
        Measured on ParetoLog(1.5), seed 4242: 14.0 bytes per vertex (14.7 in a
        fresh process), against 16.3 (16.9) when it thinned a sorted copy and
        decoded each pass at once; the bound leaves a margin of 5% over the worst.
        """
        n = 10**6
        tracemalloc.start()
        try:
            assert cli_main(["sample", "--model", "paretolog:alpha=1.5,xm=1", "--n", str(n),
                             "--seed", "4242"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["n"] == n
        assert peak <= 15.5 * n, peak / n

    def test_paretolog_draw_peak(self):
        """ParetoLog weights peak at 11.8 bytes per vertex: one array, drawn and transformed in place.

        Measured at n = 10^6: 10.1 bytes per vertex (10.8 in a fresh process);
        the bound leaves a margin of 9% over the worst.
        """
        n = 10**6
        tracemalloc.start()
        try:
            sample_weights(ParetoLogWeights(1.5, 1.0), n, seed=4242)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11.8 * n, peak / n

    @pytest.mark.parametrize(
        "model, n, master_seed, expected",
        [
            (ParetoWeights(1.5, 1.0), 200, 314159,
             [(246, 278, 51755), (232, 259, 45563), (225, 258, 47328)]),
            (ParetoWeights(1.5, 1.0), 5000, 314159,
             [(7144, 8329, 34708428), (7273, 8528, 37851863), (7217, 8459, 35931043)]),
            (ExponentialWeights(1.0), 10_000, 90210,
             [(5264, 6199, 52347149), (5022, 5927, 50122199), (4841, 5808, 47978502)]),
            (ParetoLogWeights(1.5, 1.0), 5000, 314159,
             [(14157, 16621, 70282838), (14470, 16888, 74098468), (14731, 17144, 75525249)]),
        ],
        ids=["pareto-200", "pareto-5000", "exponential-10000", "paretolog-5000"],
    )
    def test_experiment_streams_are_pinned(self, model, n, master_seed, expected):
        """Edge count, candidates and sum_i i * deg_i of replications 0-2, drawn as experiments draw them.

        At these sizes a graph is one candidate pass of under 10,000
        draws, so the pass size and the dtypes of the tally leave these
        numbers as they are; whatever moves them moves T1/T2/LLN payloads.
        """
        got = []
        for rep in range(len(expected)):
            wv = replication_weights(model, n, master_seed, rep)
            g = sample_graph_fast(wv, derive_seed(master_seed, 2 * rep + 1))
            got.append((g.edge_count, g.candidates_examined, int(g.degrees @ np.arange(n))))
        assert got == expected

    @pytest.mark.parametrize("model, n, digest", [
        ("paretolog:alpha=1.5,xm=1", 3 * 2**16 + 5,
         "47e3d4bb172a9bc2492c0c77092f9c11f2c7db95791ca23074dad4544c0daf84"),
        ("pareto:alpha=1.5,xm=1", 200_000,
         "ceb39484c3ed39effe62995c59df2447377f568363d4f752a1a0a57e9b232ecf"),
    ], ids=["paretolog", "pareto"])
    def test_sample_summary_is_pinned(self, model, n, digest, tmp_path):
        """The sha256 of `grg sample` JSON at seed 7.

        ParetoLog's n leaves a last block of 5 exponential draws in its weights.
        """
        out = tmp_path / "summary.json"
        assert cli_main(["sample", "--model", model, "--n", str(n), "--seed", "7",
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_edge_dump_is_pinned(self, tmp_path):
        """The sha256 of a `grg sample --edges` dump of 4,091 lines: the sampler and the writer."""
        dump = tmp_path / "edges.txt"
        assert cli_main(["sample", "--model", "pareto:alpha=1.5,xm=1", "--n", "3000", "--seed",
                         "1", "--out", str(tmp_path / "summary.json"), "--edges", str(dump)]) == 0
        data = dump.read_bytes()
        assert data.count(b"\n") == 4091
        assert hashlib.sha256(data).hexdigest() == (
            "9c95be250f6002413ab66144984a194310a94f2fe2d323cfeb84b5aff48d6529")
