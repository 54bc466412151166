"""Experiment orchestration: statistics, runs, audit terms, determinism."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import grg.graph
import grg.limits
from grg import (
    BracketingError,
    ConfigError,
    ConstantWeights,
    DomainError,
    ExperimentConfig,
    ExponentialWeights,
    GammaWeights,
    HypothesisError,
    LogNormalWeights,
    ParetoLogWeights,
    ParetoWeights,
    UnsupportedModelError,
    WeightVector,
    analytic_moments,
    compute_norming,
    conditional_edge_mean,
    derive_seed,
    ks_two_sample,
    normal_limit_statistic,
    pair_sums,
    proof_audit,
    run_experiment,
    sample_weights,
    stable_limit_statistic,
)
from grg.limits import audit_pair_moments, derive_result, simulate
from grg.report import config_from_dict
from grg.weights import truncated_first_moment_tail, truncated_second_moment

SIX_MODELS = [
    ConstantWeights(2.0),
    ExponentialWeights(1.0),
    LogNormalWeights(0.0, 1.0),
    GammaWeights(2.0, 1.5),
    ParetoWeights(1.5, 1.0),
    ParetoLogWeights(1.5, 1.0),
]


def _dense_audit(weights):
    """The audit pair sums over the full n x n pair matrix, a block of rows at a time.

    Returns (sum p, sum y p, sum p^2) over all ordered pairs, diagonal
    included, with y = W_i W_j / L and p = y / (1 + y).
    """
    w = weights.values
    l_n = weights.sum_l
    sum_b = sum_c = sum_d = 0.0
    block = max(1, min(2048, (1 << 22) // weights.n))
    for lo in range(0, weights.n, block):
        prod = w[lo : lo + block, None] * w[None, :]
        ratio = prod / (l_n + prod)
        sum_b += float(ratio.sum())
        sum_c += float((prod * ratio).sum()) / l_n
        sum_d += float((ratio * ratio).sum())
    return sum_b, sum_c, sum_d


def _pdf(model):
    """The density: scipy.stats for Pareto, -d/dw of the survival for ParetoLog."""
    a, xm = model.alpha, model.xm
    if isinstance(model, ParetoWeights):
        return stats.pareto(a, scale=xm).pdf
    return lambda w: (w / xm) ** (-a - 1.0) * (a * (1.0 + math.log(w / xm)) - 1.0) / xm * (w >= xm)


def _quad(fn, lo, hi) -> float:
    return integrate.quad(fn, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=300)[0]


def _quadrature_pair_moments(model, n, a_n):
    """The pair moments as 1-d quadratures over W1 of closed-form truncated moments of W2.

    Past W1 = n/xm every W2 >= xm exceeds the cut, which adds
    EW * E[W; W >= n/xm] to the large moment.
    """
    xm, pdf = model.xm, _pdf(model)
    small = _quad(lambda w: pdf(w) * w * w * truncated_second_moment(model, n / w), xm, n / xm)
    large = _quad(lambda w: pdf(w) * w * truncated_first_moment_tail(model, n / w), xm, n / xm)
    large += analytic_moments(model).ew * truncated_first_moment_tail(model, n / xm)
    return small / a_n, n * large / a_n


def _assert_matches_dense(weights):
    terms = proof_audit(weights, 1.0, 1.0, 1.0)
    dense = _dense_audit(weights)
    np.testing.assert_allclose([terms.t_b, terms.t_c, terms.t_d], dense, rtol=1e-12, atol=0)


class TestPairSums:
    def test_pairs_at_the_series_cut(self):
        """Pairs at y = 1/16 exactly and 2^-44 either side of it."""
        quarter = np.array([4.0, 4.0, 4.0 + 2.0**-38, 4.0 - 2.0**-38])
        wv = WeightVector.from_values(np.concatenate([quarter, np.ones(240)]))
        assert wv.sum_l == 256.0
        y = np.outer(quarter, quarter) / wv.sum_l
        assert (y == 1 / 16).any() and (y > 1 / 16).any() and (y < 1 / 16).any()
        np.testing.assert_allclose(pair_sums(wv), _dense_audit(wv), rtol=1e-12, atol=0)

    def test_huge_vertex(self):
        """W / sqrt(L) of about 2^66 puts every pair of that vertex outside the series."""
        wv = WeightVector.from_values(np.concatenate([[1e40], np.ones(200)]))
        np.testing.assert_allclose(pair_sums(wv), _dense_audit(wv), rtol=1e-12, atol=0)

    def test_large_pairs_in_many_blocks(self, monkeypatch):
        monkeypatch.setattr(grg.graph, "_PAIR_BLOCK", 64)
        values = np.concatenate([np.full(40, 500.0), np.linspace(0.1, 3.0, 300)])
        wv = WeightVector.from_values(values)
        np.testing.assert_allclose(pair_sums(wv), _dense_audit(wv), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [ExponentialWeights(1.0), ParetoWeights(1.5, 1.0)],
                             ids=lambda m: type(m).__name__)
    def test_p_row_is_twice_the_conditional_mean_plus_the_diagonal(self, model):
        wv = sample_weights(model, 3000, seed=4)
        d = wv.values**2 / wv.sum_l
        expected = 2.0 * conditional_edge_mean(wv) + float((d / (1.0 + d)).sum())
        assert pair_sums(wv)[0] == pytest.approx(expected, rel=1e-15, abs=0)


class TestStatistics:
    def test_normal_statistic_example(self):
        val = normal_limit_statistic(9, 10, 1.0, 1.0)
        np.testing.assert_allclose(val, 8.0 / math.sqrt(30.0))

    def test_normal_statistic_centered(self):
        assert normal_limit_statistic(25, 10, 5.0, 2.0) == 0.0

    def test_stable_statistic_examples(self):
        assert stable_limit_statistic(75, 50, 3.0, 25.0) == 0.0
        assert stable_limit_statistic(100, 50, 3.0, 25.0) == 2.0

    def test_affine_slopes(self):
        """Both statistics move by exactly 2/denominator per extra edge."""
        for e in (0, 17, 400):
            d1 = normal_limit_statistic(e + 1, 100, 1.0, 1.0) - normal_limit_statistic(
                e, 100, 1.0, 1.0
            )
            np.testing.assert_allclose(d1, 2.0 / math.sqrt(300.0))
            d2 = stable_limit_statistic(e + 1, 100, 3.0, 40.0) - stable_limit_statistic(
                e, 100, 3.0, 40.0
            )
            np.testing.assert_allclose(d2, 2.0 / 40.0)

    def test_degenerate_denominators(self):
        with pytest.raises(DomainError):
            normal_limit_statistic(1, 10, 0.0, 0.0)
        with pytest.raises(DomainError):
            stable_limit_statistic(1, 10, 1.0, 0.0)


class TestConfigValidation:
    def test_zero_replications(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ExponentialWeights(1.0), (100,), 0, 1, "LLN")

    def test_limit_laws_need_replications(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ExponentialWeights(1.0), (100,), 50, 1, "T1")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ExponentialWeights(1.0), (100,), 100, 1, "T3")

    @pytest.mark.parametrize("n_grid", [(), (1, 100), (0,)])
    def test_grid_needs_two_vertices(self, n_grid):
        with pytest.raises(ConfigError, match="every n >= 2"):
            ExperimentConfig(ExponentialWeights(1.0), n_grid, 100, 1, "LLN")

    def test_audit_needs_t_values(self):
        with pytest.raises(ConfigError, match="at least one t value"):
            ExperimentConfig(ParetoWeights(1.5, 1.0), (100,), 2, 1, "AUDIT", t_values=())

    @pytest.mark.parametrize("n_grid", [(5000, 200), (200, 200), (100, 300, 200)])
    def test_grid_must_increase(self, n_grid):
        """Trend verdicts read along the grid, so a grid out of order is refused."""
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentConfig(ExponentialWeights(1.0), n_grid, 100, 1, "LLN")

    def test_bad_sampler(self):
        """A config may omit "sampler" or name the one sampler; any other value is refused."""
        raw = {"model": {"kind": "exponential", "rate": 1.0}, "n_grid": [100],
               "replications": 100, "master_seed": 1, "theorem": "T1"}
        assert config_from_dict(raw) == config_from_dict({**raw, "sampler": "fast"})
        for sampler in ("naive", "magic", None):
            with pytest.raises(ConfigError, match="'sampler'"):
                config_from_dict({**raw, "sampler": sampler})

    def test_hypothesis_violations(self):
        heavy = ExperimentConfig(ParetoWeights(1.5, 1.0), (100,), 100, 1, "T1")
        with pytest.raises(HypothesisError):
            run_experiment(heavy)
        light = ExperimentConfig(ParetoWeights(2.5, 1.0), (100,), 100, 1, "T2")
        with pytest.raises(HypothesisError):
            run_experiment(light)
        no_mean = ExperimentConfig(ParetoWeights(0.9, 1.0), (100,), 100, 1, "LLN")
        with pytest.raises(HypothesisError, match="finite mean"):
            run_experiment(no_mean)


class TestGaussianRun:
    def test_er_special_case_accepts(self):
        """Constant weights (variance 0): denominator 2EW keeps the limit valid."""
        cfg = ExperimentConfig(ConstantWeights(2.0), (2000,), 500, 1234, "T1")
        res = run_experiment(cfg)
        assert res.runs[0].row["ks_p"] > 0.01, res.runs[0].row

    def test_statistic_mean_is_small(self):
        """Sample mean near 0; the O(1/sqrt(n)) centering bias stays inside 0.35."""
        cfg = ExperimentConfig(ExponentialWeights(1.0), (500,), 400, 5150, "T1")
        res = run_experiment(cfg)
        assert abs(res.runs[0].row["mean"]) < 0.35

    def test_deterministic_and_thread_invariant(self):
        cfg = ExperimentConfig(ExponentialWeights(1.0), (120,), 100, 77, "T1")
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=2)
        for name in ("statistic", "edge_count"):
            np.testing.assert_array_equal(a.runs[0].columns[name], b.runs[0].columns[name])


class TestStableRun:
    def test_paired_statistics_and_trend_fields(self):
        cfg = ExperimentConfig(ParetoWeights(1.5, 1.0), (100, 400), 150, 90, "T2")
        res = run_experiment(cfg)
        assert len(res.runs) == 2
        col, a_n = res.runs[0].columns, res.runs[0].row["a_n"]
        # the weight statistic is (L - n EW)/a_n for the same replications
        np.testing.assert_allclose(col["weight_statistic"], (col["L_n"] - 100 * 3.0) / a_n)
        np.testing.assert_allclose(col["statistic"], (2.0 * col["edge_count"] - 100 * 3.0) / a_n)
        assert res.runs[0].row["n_effective"] == pytest.approx(75.0)
        assert res.trends["trend"]["values"] == [r.row["ks_d"] for r in res.runs]

    def test_deficits_and_compensated_ks(self):
        """Deficits rebuilt from the weights; compensated KS thread invariant."""
        model = ParetoWeights(1.5, 1.0)
        cfg = ExperimentConfig(model, (100, 400), 120, 42, "T2")
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=2)
        for ra, rb in zip(a.runs, b.runs):
            np.testing.assert_array_equal(ra.columns["deficit"], rb.columns["deficit"])
            assert ra.row == rb.row
            col, a_n = ra.columns, ra.row["a_n"]
            means = np.array([
                conditional_edge_mean(sample_weights(model, ra.n, derive_seed(42, 2 * rep)))
                for rep in range(cfg.replications)
            ])
            np.testing.assert_allclose(
                col["deficit"], (col["L_n"] - 2.0 * means) / a_n, rtol=1e-12, atol=1e-12
            )
            compensated = col["statistic"] + col["deficit"]
            np.testing.assert_allclose(
                compensated,
                (2.0 * col["edge_count"] - 2.0 * means + col["L_n"] - ra.n * 3.0) / a_n,
                rtol=1e-12, atol=1e-12,
            )
            ks = ks_two_sample(col["weight_statistic"], compensated)
            assert (ks.d_stat, ks.p_value) == (ra.row["ks_d_compensated"],
                                               ra.row["ks_p_compensated"])

    def test_median_stabilizes_in_n(self):
        """Edge-statistic medians at n and 2n differ by less than 0.2."""
        cfg = ExperimentConfig(ParetoWeights(1.5, 1.0), (2000, 4000), 400, 1618, "T2")
        res = run_experiment(cfg)
        medians = [r.row["edge_stat_median"] for r in res.runs]
        assert abs(medians[1] - medians[0]) < 0.2, medians


class TestLlnRun:
    def test_exponential_half(self):
        cfg = ExperimentConfig(ExponentialWeights(1.0), (10_000,), 100, 90210, "LLN")
        res = run_experiment(cfg)
        row = res.runs[0].row
        assert row["target"] == 0.5
        assert abs(row["mean_ratio"] - 0.5) < 0.02

    def test_constant_matches_exact_expectation(self):
        """Pure ER: E[E_n]/n = (n-1) lam / (2n)."""
        n, lam = 1000, 2.0
        cfg = ExperimentConfig(ConstantWeights(lam), (n,), 60, 31337, "LLN")
        res = run_experiment(cfg)
        exact = (n - 1) * lam / (2 * n)
        assert abs(res.runs[0].row["mean_ratio"] - exact) < 0.05

    def test_pareto_heavy_tail_mean(self):
        """Pareto(1.5): E_n/n sits near EW/2 = 1.5 at n = 1e5."""
        cfg = ExperimentConfig(ParetoWeights(1.5, 1.0), (10**5,), 50, 271828, "LLN")
        res = run_experiment(cfg)
        assert abs(res.runs[0].row["mean_ratio"] - 1.5) < 0.1, res.runs[0].row


class TestProofAudit:
    def test_unit_weights_closed_forms(self):
        """All weights 1, n=100, t=1, c_n=5, a_n=10: hand-computed values."""
        wv = WeightVector.from_values(np.ones(100))
        terms = proof_audit(wv, t=1.0, c_n=5.0, a_n=10.0)
        np.testing.assert_allclose(terms.selfloop_bound, 0.4)
        np.testing.assert_allclose(terms.i1_bound, 100.0 / 1500.0)
        np.testing.assert_allclose(terms.i3_bound, 1.0 / 25.0)
        np.testing.assert_allclose(terms.t_a, 0.1)
        np.testing.assert_allclose(terms.t_b, 1e4 / 101.0 / 100.0)
        np.testing.assert_allclose(terms.t_c, 1e4 / (100.0 * 101.0) / 10.0)
        np.testing.assert_allclose(terms.t_d, 1e4 / 101.0**2 / 100.0)

    def test_terms_nonnegative_and_finite(self):
        models = [
            ParetoWeights(1.2, 1.0),
            ParetoWeights(1.9, 0.5),
            ExponentialWeights(2.0),
        ]
        for model in models:
            wv = sample_weights(model, 500, seed=3)
            for t in (-2.5, 0.0, 1.0):
                terms = proof_audit(wv, t=t, c_n=7.0, a_n=14.0)
                for name in (
                    "selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d",
                ):
                    val = getattr(terms, name)
                    assert math.isfinite(val) and val >= 0.0, (model, t, name)

    def test_diagonal_included(self):
        """n=1... 2 vertices: the double sums count (1,1), (1,2), (2,1), (2,2)."""
        wv = WeightVector.from_values([1.0, 1.0])
        terms = proof_audit(wv, 1.0, 1.0, 1.0)
        # sum_ij w_i w_j/(L + w_i w_j) with L=2: 4 * (1/3)
        np.testing.assert_allclose(terms.t_b, 4.0 / 3.0)

    @pytest.mark.parametrize("model", SIX_MODELS, ids=lambda m: type(m).__name__)
    def test_matches_dense_loop(self, model):
        for seed in (1, 2):
            _assert_matches_dense(sample_weights(model, 2000, seed))

    def test_pairs_above_the_series_cut(self):
        """50 dominant weights put 2,500 ordered pairs past the series cut."""
        values = np.concatenate([np.ones(2000), np.full(50, 1e3)])
        _assert_matches_dense(WeightVector.from_values(values))

    @pytest.mark.parametrize("c_n, a_n", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan)])
    def test_normings_must_be_positive(self, c_n, a_n):
        with pytest.raises(DomainError, match="normings must be positive"):
            proof_audit(WeightVector.from_values(np.ones(10)), 1.0, c_n, a_n)

    def test_weights_whose_powers_overflow(self):
        for values in ([1e32, 3.0, 2.0, 1.0, 1e-3], [1e50, 1e49, 3.0, 1e-3, 1e-9], [1e60, 1e60]):
            _assert_matches_dense(WeightVector.from_values(values))

    def test_large_n_is_finite(self):
        """No size cap: Pareto(1.5) at n = 1e5 gives finite terms."""
        wv = sample_weights(ParetoWeights(1.5, 1.0), 10**5, seed=8)
        a_n = compute_norming(ParetoWeights(1.5, 1.0), 10**5)
        terms = proof_audit(wv, 1.0, 0.5 * a_n, a_n)
        for name in ("selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d"):
            assert math.isfinite(getattr(terms, name)), name

    def test_audit_run_trends(self):
        """Small grid: every audited median decreases with n."""
        cfg = ExperimentConfig(
            ParetoWeights(1.5, 1.0), (100, 1000), 10, 555, "AUDIT", (0.5, 1.0)
        )
        res = run_experiment(cfg)
        trends = res.trends["median_trends_decreasing"]
        for t in ("0.5", "1.0"):
            assert all(trends[t].values()), trends[t]

    def test_audit_threads_invariant(self):
        cfg = ExperimentConfig(ParetoWeights(1.5, 1.0), (100,), 6, 555, "AUDIT")
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=2)
        np.testing.assert_array_equal(a.runs[0].columns["t_c"], b.runs[0].columns["t_c"])

    def test_audit_requires_heavy_tail(self):
        cfg = ExperimentConfig(ExponentialWeights(1.0), (100,), 5, 1, "AUDIT")
        with pytest.raises(HypothesisError):
            run_experiment(cfg)


class TestPairMoments:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("n", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("xm", [1.0, 2.0])
    def test_pareto_closed_forms(self, alpha, n, xm):
        """Pareto(alpha, xm): Z = W1 W2 / xm^2 has density alpha^2 z^(-alpha-1) log z, z >= 1."""
        a_n, m = 7.0, n / xm**2
        small, large = audit_pair_moments(ParetoWeights(alpha, xm), n, a_n)
        a2, b, c = alpha**2, 2.0 - alpha, alpha - 1.0
        exact_small = a2 * (m**b * (math.log(m) / b - 1.0 / b**2) + 1.0 / b**2)
        exact_large = a2 * m ** (1.0 - alpha) * (math.log(m) / c + 1.0 / c**2)
        assert small * a_n == pytest.approx(xm**4 * exact_small, rel=1e-9)
        assert large * a_n / n == pytest.approx(xm**2 * exact_large, rel=1e-9)

    def test_paretolog_against_double_quadrature(self):
        """ParetoLog(1.5, 1) at n = 1e3 against a 2-d integral over w1 w2 <= n."""
        alpha, n = 1.5, 1e3
        model = ParetoLogWeights(alpha, 1.0)
        pdf = _pdf(model)

        def below(power):
            """E[(W1 W2)^power; W1 W2 <= n], in log coordinates r, s."""

            def integrand(s, r):
                return math.exp((power + 1.0) * (r + s)) * pdf(math.exp(r)) * pdf(math.exp(s))

            return integrate.dblquad(integrand, 0.0, math.log(n), 0.0, lambda r: math.log(n) - r,
                                     epsabs=0, epsrel=1e-11)[0]

        small, large = audit_pair_moments(model, n, 1.0)
        ew = analytic_moments(model).ew
        assert small == pytest.approx(below(2.0), rel=1e-8)
        assert large / n == pytest.approx(ew * ew - below(1.0), rel=1e-8)

    @pytest.mark.parametrize("cls", [ParetoWeights, ParetoLogWeights])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.95])
    @pytest.mark.parametrize("xm", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, cls, alpha, xm):
        model = cls(alpha, xm)
        for n in (10, 1e2, 1e4, 1e6):
            np.testing.assert_allclose(audit_pair_moments(model, n, 3.0),
                                       _quadrature_pair_moments(model, n, 3.0), rtol=1e-11)

    @pytest.mark.parametrize("cls", [ParetoWeights, ParetoLogWeights])
    def test_cut_below_the_support(self, cls):
        """With n <= xm^2 every pair exceeds the cut: the small moment is 0, the large n (EW)^2."""
        model = cls(1.5, 2.0)
        for n in (3.0, 4.0):
            small, large = audit_pair_moments(model, n, 1.0)
            assert small == 0.0
            assert large == pytest.approx(n * analytic_moments(model).ew ** 2, rel=1e-14)
            np.testing.assert_allclose((small, large), _quadrature_pair_moments(model, n, 1.0),
                                       rtol=1e-11)

    @pytest.mark.parametrize("model", [ExponentialWeights(1.0), LogNormalWeights(0.0, 1.0),
                                       GammaWeights(2.0, 1.5), ParetoWeights(0.9, 1.0)])
    def test_needs_a_power_law_tail(self, model):
        with pytest.raises(UnsupportedModelError):
            audit_pair_moments(model, 100, 1.0)

    @pytest.mark.parametrize("xm", [1e-78, 1e-100])
    def test_tiny_xm_is_refused(self, xm):
        """xm**4 is subnormal or 0 below xm = 1.22e-77; pair_moment_small was then off or 0.0."""
        with pytest.raises(ArithmeticError, match=r"xm\*\*4 of .* smallest normal double"):
            audit_pair_moments(ParetoWeights(1.5, xm), 100, 1.0)

    def test_mixture_law_stays_in_weights(self):
        """limits states no mixture sum of its own: it imports none of the mixture helpers."""
        tree = ast.parse(Path(grg.limits.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "weights"
                    for alias in node.names}
        assert imported and not imported & {"_log_gamma_mixture", "_exp_gamma_below",
                                            "_gamma_upper"}, imported


class TestNormings:
    """``simulate`` computes every n's a_n before the first draw; ``derive_result`` reads it."""

    def test_missing_root_is_refused_before_any_draw(self, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("a draw came before the normings")

        monkeypatch.setattr(grg.limits, "sample_weights", drawn)
        monkeypatch.setattr(grg.limits, "sample_graph_fast", drawn)
        cfg = ExperimentConfig(ParetoWeights(1.5, 1.0), (2, 5000), 100, 8, "T2")
        with pytest.raises(BracketingError, match="n=2"):
            run_experiment(cfg)

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(ParetoWeights(1.5, 1.0), (100, 400), 100, 90, "T2"),
        ExperimentConfig(ParetoWeights(1.5, 1.0), (100, 1000), 3, 555, "AUDIT", (0.5, 1.0)),
    ], ids=["T2", "AUDIT"])
    def test_derive_result_computes_no_norming(self, monkeypatch, cfg):
        expected = [run.row for run in run_experiment(cfg).runs]
        table = simulate(cfg)

        def solved(*args, **kwargs):
            raise AssertionError("derive_result computed a norming")

        monkeypatch.setattr(grg.limits, "compute_norming", solved)
        assert [run.row for run in derive_result(cfg, table).runs] == expected


class TestDispatch:
    def test_run_experiment_routes(self):
        cfg = ExperimentConfig(ExponentialWeights(1.0), (200,), 100, 11, "LLN")
        res = run_experiment(cfg)
        assert res.runs[0].n == 200

    def test_empty_result_refused_before_writing(self, tmp_path):
        from grg import emit_report
        from grg.limits import ExperimentResult

        cfg = ExperimentConfig(ExponentialWeights(1.0), (200,), 100, 11, "LLN")
        empty = ExperimentResult(cfg, [], {})
        out = tmp_path / "report"
        with pytest.raises(ConfigError):
            emit_report(empty, out)
        assert not out.exists()
