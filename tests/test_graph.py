"""Graph samplers against exact pair probabilities and the exact pmf."""

import itertools
import math

import numpy as np
import pytest

import grg.graph
from grg import (
    ConstantWeights,
    DomainError,
    ExponentialWeights,
    GammaWeights,
    LogNormalWeights,
    ParameterError,
    ParetoLogWeights,
    ParetoWeights,
    SizeError,
    WeightVector,
    conditional_edge_mean,
    edge_probability,
    exact_edge_count_pmf,
    ks_two_sample,
    sample_graph_fast,
    sample_graph_naive,
    sample_weights,
    write_edge_list,
)
from grg.graph import NAIVE_MAX_N


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


class TestEdgeProbability:
    def test_examples(self):
        assert edge_probability(1.0, 1.0, 3.0) == 0.25
        assert edge_probability(0.0, 5.0, 10.0) == 0.0

    def test_er_special_case(self):
        # constant weight 2.5 over n=10 vertices reproduces p = lam/n = 0.2
        assert edge_probability(2.5, 2.5, 25.0) == pytest.approx(0.2, abs=4 * math.ulp(0.2))

    def test_symmetry_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, l_n = rng.uniform(0.1, 50, 3)
            assert edge_probability(a, b, l_n) == edge_probability(b, a, l_n)
            assert edge_probability(a * 1.5, b, l_n) > edge_probability(a, b, l_n)

    def test_common_weight_scaling_increases_p(self):
        """Scaling every weight by s > 1 raises each pair probability."""
        w = np.array([0.5, 1.0, 2.0, 4.0])
        l_n = float(w.sum())
        for s in (1.5, 3.0, 10.0):
            for i, j in itertools.combinations(range(4), 2):
                assert edge_probability(s * w[i], s * w[j], s * l_n) > edge_probability(
                    w[i], w[j], l_n
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            edge_probability(1.0, 1.0, 0.0)


class TestExactPmf:
    def test_single_edge(self):
        pmf = exact_edge_count_pmf(WeightVector.from_values([1.0, 1.0]))
        np.testing.assert_allclose(pmf.probabilities, [2 / 3, 1 / 3])

    def test_three_equal_weights_binomial(self):
        pmf = exact_edge_count_pmf(WeightVector.from_values([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(pmf.probabilities, np.array([27, 27, 9, 1]) / 64)

    def test_mixed_weights(self):
        # p12=1/4, p13=1/3, p23=1/2 -> [6, 11, 6, 1]/24
        pmf = exact_edge_count_pmf(WeightVector.from_values([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(pmf.probabilities, np.array([6, 11, 6, 1]) / 24)

    @pytest.mark.parametrize("values", [[0.5, 1, 2, 4], [1, 1, 2, 3, 5], [2, 2, 2, 2, 2, 2]])
    def test_against_brute_force(self, values):
        pmf = exact_edge_count_pmf(WeightVector.from_values(values))
        np.testing.assert_allclose(pmf.probabilities, brute_force_pmf(values), atol=1e-12)

    def test_normalization_and_mean(self):
        wv = WeightVector.from_values([0.3, 1.1, 2.2, 0.7, 5.0])
        pmf = exact_edge_count_pmf(wv)
        assert abs(pmf.probabilities.sum() - 1.0) < 1e-12
        mean_direct = sum(
            edge_probability(wv.values[i], wv.values[j], wv.sum_l)
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert abs(pmf.mean - mean_direct) < 1e-10

    def test_size_cap(self):
        with pytest.raises(SizeError):
            exact_edge_count_pmf(WeightVector.from_values(np.ones(13)))


def dense_pair_sum(weights):
    """sum_{i<j} W_i W_j / (L + W_i W_j), one row at a time."""
    w = weights.values
    total = 0.0
    for i in range(weights.n - 1):
        prod = w[i] * w[i + 1 :]
        total += float((prod / (weights.sum_l + prod)).sum())
    return total


class TestConditionalEdgeMean:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_matches_exact_pmf_mean(self, n):
        for model in (ExponentialWeights(1.0), ParetoWeights(1.5, 1.0)):
            wv = sample_weights(model, n, seed=n)
            expected = exact_edge_count_pmf(wv).mean
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
            assert conditional_edge_mean(wv) == pytest.approx(dense_pair_sum(wv), rel=1e-12)

    def test_pairs_above_the_series_cut(self):
        """Dominant weights put most pairs past the series; still exact."""
        values = np.concatenate([np.full(40, 500.0), np.linspace(0.1, 3.0, 300)])
        wv = WeightVector.from_values(values)
        assert conditional_edge_mean(wv) == pytest.approx(dense_pair_sum(wv), rel=1e-12)

    def test_weights_whose_powers_overflow(self):
        """A vertex with u^14 past the float range has its pairs summed exactly."""
        for values in ([1e50, 3.0, 2.0, 1.0, 1e-3], [1e50, 1e49, 3.0, 1e-3, 1e-9], [1e60, 1e60]):
            wv = WeightVector.from_values(values)
            assert conditional_edge_mean(wv) == pytest.approx(dense_pair_sum(wv), rel=1e-12)

    def test_large_pairs_in_small_blocks(self, monkeypatch):
        """Large pairs split into blocks of a few rows, and rows longer than a block."""
        values = np.concatenate([np.full(40, 500.0), np.linspace(0.1, 3.0, 300)])
        wv = WeightVector.from_values(values)
        expected = conditional_edge_mean(wv)
        for block in (1, 7, 100):
            monkeypatch.setattr(grg.graph, "_PAIR_BLOCK", block)
            assert conditional_edge_mean(wv) == pytest.approx(expected, rel=1e-13)
            assert conditional_edge_mean(wv) == pytest.approx(dense_pair_sum(wv), rel=1e-12)

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_constant_weights(self, n):
        """Weights n lam/(n - lam) give p = lam/n, so the mean is (n-1) lam/2."""
        lam = 2.0
        wv = WeightVector.from_values(np.full(n, n * lam / (n - lam)))
        assert conditional_edge_mean(wv) == pytest.approx((n - 1) * lam / 2, rel=1e-12)

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
        exact = exact_edge_count_pmf(wv).probabilities
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


def pair_probabilities(weights):
    """Dense p_ij over i < j, for checks at small n."""
    w = weights.values
    prod = np.outer(w, w)[np.triu_indices(weights.n, 1)]
    return prod / (weights.sum_l + prod)


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
        p = pair_probabilities(wv)
        reps = 5000
        counts = np.zeros((wv.n, wv.n))
        for s in range(reps):
            i, j = np.array(sample_graph_fast(wv, s, store_edges=True).edges).reshape(-1, 2).T
            counts[i, j] += 1
        hits = counts[np.triu_indices(wv.n, 1)]
        spread = reps * p * (1.0 - p)
        z2 = (hits - reps * p) ** 2 / np.maximum(spread, 1e-300)
        wide = spread >= 5.0
        assert wide.sum() > 100
        assert abs(z2[wide].mean() - 1.0) <= 0.25, z2[wide].mean()
        # the rare pairs pooled
        rare = reps * p[~wide].sum()
        assert abs(hits[~wide].sum() - rare) <= 4.0 * math.sqrt(rare)

    def test_stored_edges_rebuild_degrees(self):
        wv = sample_weights(ParetoWeights(1.5, 1.0), 2000, seed=5)
        g = sample_graph_fast(wv, 6, store_edges=True)
        edges = np.array(g.edges)
        assert len(edges) == g.edge_count > 0
        assert np.all(edges[:, 0] < edges[:, 1])
        assert len({tuple(e) for e in edges.tolist()}) == g.edge_count
        assert np.array_equal(np.bincount(edges.ravel(), minlength=2000), g.degrees)
        empty = sample_graph_fast(WeightVector.from_values(np.full(50, 1e-6)), 1, store_edges=True)
        assert empty.edges == [] and empty.edge_count == 0

    def test_tiny_envelopes_do_not_overflow(self):
        """Envelopes of about 3e-22 between the light weights: no index overflow."""
        wv = WeightVector.from_values(np.concatenate([np.full(2000, 1e-9), [1e3, 1e3, 1e3]]))
        for seed in range(20):
            g = sample_graph_fast(wv, seed)
            assert int(g.degrees.sum()) == 2 * g.edge_count
            assert g.candidates_examined <= 5 * (wv.n + g.edge_count)
