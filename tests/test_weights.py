"""Weight models: sampling, moments, truncated moments, norming."""

import math

import numpy as np
import pytest
from scipy import integrate

from grg import (
    BracketingError,
    ConstantWeights,
    ExponentialWeights,
    GammaWeights,
    LogNormalWeights,
    ParameterError,
    ParetoLogWeights,
    ParetoWeights,
    UnsupportedModelError,
    WeightVector,
    analytic_moments,
    compute_norming,
    lemma1_ratio_check,
    model_from_config,
    model_to_config,
    sample_weights,
    tail_params,
    truncated_first_moment_tail,
    truncated_second_moment,
)


class TestSampling:
    def test_constant_resolves_to_er_weight(self):
        """lam=2, n=10 gives the constant 20/8 = 2.5 and L = 25."""
        wv = sample_weights(ConstantWeights(2.0), 10, seed=123)
        np.testing.assert_allclose(wv.values, 2.5)
        assert wv.sum_l == 25.0

    def test_constant_needs_lam_below_n(self):
        with pytest.raises(ParameterError):
            sample_weights(ConstantWeights(12.0), 10, seed=0)

    def test_determinism(self):
        m = ParetoWeights(1.5, 1.0)
        a = sample_weights(m, 10_000, seed=99)
        b = sample_weights(m, 10_000, seed=99)
        assert np.array_equal(a.values, b.values)
        assert a.sum_l == b.sum_l and a.sum_sq == b.sum_sq

    def test_pareto_support(self):
        wv = sample_weights(ParetoWeights(1.5, 1.0), 10_000, seed=7)
        assert wv.values.min() >= 1.0

    def test_exponential_sample_mean(self):
        """Mean of 1e5 unit-exponential draws is within 1 +- 0.02 (3 sigma)."""
        wv = sample_weights(ExponentialWeights(1.0), 10**5, seed=11)
        assert abs(wv.values.mean() - 1.0) < 0.02

    def test_needs_two_vertices(self):
        with pytest.raises(ParameterError):
            sample_weights(ExponentialWeights(1.0), 1, seed=0)

    def test_sums_are_exact(self):
        wv = sample_weights(ParetoWeights(1.5, 1.0), 10**5, seed=3)
        assert abs(wv.sum_l - math.fsum(wv.values)) == 0.0
        assert wv.sum_sq >= wv.sum_l**2 / wv.n  # Cauchy-Schwarz

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ParameterError):
            WeightVector.from_values([1.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0, math.inf],
            [1.0, math.nan],
            [1e200, 1.0],  # finite weights whose squares overflow
            [1e308, 1e308],  # finite weights whose sum overflows
        ],
    )
    def test_rejects_nonfinite_values_and_totals(self, values):
        with pytest.raises(ParameterError):
            WeightVector.from_values(values)

    def test_overflowing_pareto_draw_is_rejected(self):
        """alpha=0.01 overflows some draws to inf instead of giving L = inf."""
        with pytest.raises(ParameterError):
            sample_weights(ParetoWeights(0.01, 1.0), 1000, seed=3)


class TestAnalyticMoments:
    def test_pareto_heavy(self):
        mom = analytic_moments(ParetoWeights(1.5, 1.0))
        assert mom.ew == 3.0
        assert math.isinf(mom.ew2) and math.isinf(mom.var_w)

    def test_pareto_light(self):
        mom = analytic_moments(ParetoWeights(3.0, 2.0))
        np.testing.assert_allclose(mom.ew, 3.0)
        np.testing.assert_allclose(mom.ew2, 12.0)

    def test_exponential(self):
        assert analytic_moments(ExponentialWeights(1.0)) == (1.0, 1.0, 2.0)

    def test_constant_resolved(self):
        mom = analytic_moments(ConstantWeights(2.0), n=10)
        assert mom == (2.5, 0.0, 6.25)

    def test_constant_needs_n(self):
        with pytest.raises(ParameterError):
            analytic_moments(ConstantWeights(2.0))

    def test_lognormal_and_gamma_match_quadrature(self):
        for model in (LogNormalWeights(0.3, 0.8), GammaWeights(2.5, 0.7)):
            mom = analytic_moments(model)
            ew = integrate.quad(lambda w: w * float(model.density(np.array([w]))[0]), 0, np.inf)[0]
            ew2 = integrate.quad(lambda w: w * w * float(model.density(np.array([w]))[0]), 0, np.inf)[0]
            np.testing.assert_allclose([mom.ew, mom.ew2], [ew, ew2], rtol=1e-8)

    def test_paretolog_mean_matches_quadrature(self):
        model = ParetoLogWeights(1.7, 2.0)
        mom = analytic_moments(model)
        ew = integrate.quad(
            lambda w: w * float(model.density(np.array([w]))[0]), 2.0, np.inf
        )[0]
        np.testing.assert_allclose(mom.ew, ew, rtol=1e-7)
        assert math.isinf(mom.ew2)


class TestTruncatedMoments:
    def test_pareto_closed_form(self):
        m = ParetoWeights(1.5, 1.0)
        # int_1^x w^2 * 1.5 w^-2.5 dw = 3(sqrt(x) - 1)
        np.testing.assert_allclose(truncated_second_moment(m, 100.0), 27.0)
        assert truncated_second_moment(m, 1.0) == 0.0

    def test_pareto_tail_closed_form(self):
        m = ParetoWeights(1.5, 1.0)
        np.testing.assert_allclose(truncated_first_moment_tail(m, 100.0), 0.3)
        np.testing.assert_allclose(truncated_first_moment_tail(m, 1.0), 3.0)

    def test_exponential_quadrature_recovers_full_moment(self):
        """At x = 50 the truncated second moment is EW^2 = 2 up to 1e-8."""
        val = truncated_second_moment(ExponentialWeights(1.0), 50.0)
        assert abs(val - 2.0) < 1e-8

    def test_exponential_tail_closed_form_oracle(self):
        # E[W; W >= x] = (x + 1) e^-x for the unit exponential
        val = truncated_first_moment_tail(ExponentialWeights(1.0), 10.0)
        np.testing.assert_allclose(val, 11.0 * math.exp(-10.0), rtol=1e-8)

    def test_second_moment_reconstruction_light_tail(self):
        """Truncation plus the exact tail reconstructs EW^2 for alpha > 2."""
        m = ParetoWeights(3.0, 2.0)
        x = 37.0
        # tail second moment of a pure power law: a xm^a x^(2-a)/(a-2)
        tail2 = 3.0 * 2.0**3 * x ** (2.0 - 3.0) / (3.0 - 2.0)
        mom = analytic_moments(m)
        np.testing.assert_allclose(truncated_second_moment(m, x) + tail2, mom.ew2, rtol=1e-9)

    def test_monotonicity(self):
        m = LogNormalWeights(0.0, 1.0)
        grid = [0.5, 1.0, 2.0, 5.0, 20.0]
        second = [truncated_second_moment(m, x) for x in grid]
        tail = [truncated_first_moment_tail(m, x) for x in grid]
        assert all(a <= b for a, b in zip(second, second[1:]))
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_boundary_exponent_closed_forms(self):
        """alpha = 2 hits the logarithmic branches of both power-law models."""
        for model in (ParetoWeights(2.0, 1.5), ParetoLogWeights(2.0, 1.5)):
            for x in (3.0, 50.0):
                quad = integrate.quad(
                    lambda w: w * w * float(model.density(np.array([w]))[0]),
                    1.5, x, epsabs=1e-12,
                )[0]
                np.testing.assert_allclose(truncated_second_moment(model, x), quad, rtol=1e-12)

    def test_paretolog_closed_forms_match_quadrature(self):
        model = ParetoLogWeights(1.5, 3.0)
        for x in (5.0, 40.0, 300.0):
            quad2 = integrate.quad(
                lambda w: w * w * float(model.density(np.array([w]))[0]), 3.0, x,
                epsabs=1e-12, limit=300,
            )[0]
            np.testing.assert_allclose(truncated_second_moment(model, x), quad2, rtol=1e-9)
            quad1 = integrate.quad(
                lambda w: w * float(model.density(np.array([w]))[0]), x, np.inf,
                epsabs=1e-12, limit=300,
            )[0]
            np.testing.assert_allclose(truncated_first_moment_tail(model, x), quad1, rtol=1e-7)

    def test_constant_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            truncated_second_moment(ConstantWeights(2.0), 1.0)


class TestParetoLog:
    def test_survival_is_valid(self):
        model = ParetoLogWeights(1.5, 2.0)
        xs = np.geomspace(2.0, 1e8, 400)
        s = model.survival(xs)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 0)
        assert np.all((s >= 0) & (s <= 1))

    def test_survival_at_infinity(self):
        """The closed form is 0 * inf at x = inf; the survival there is 0, with no warning."""
        model = ParetoLogWeights(1.5, 2.0)
        with np.errstate(all="raise"):
            assert float(model.survival(np.inf)) == 0.0
            np.testing.assert_array_equal(model.survival([1.0, np.inf, 2.0]), [1.0, 0.0, 1.0])

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ParameterError):
            ParetoLogWeights(0.9, 2.0)

    def test_sampling_matches_survival(self):
        """KS of 2e4 draws against the analytic CDF accepts at 0.01."""
        from grg import ks_one_sample

        model = ParetoLogWeights(1.5, 2.0)
        wv = sample_weights(model, 20_000, seed=61)
        res = ks_one_sample(wv.values, lambda x: 1.0 - model.survival(x))
        assert res.p_value > 0.01, res

    def test_inverse_survival_round_trip(self):
        """survival(x(u)) = u to 1e-13 relative, from u = 1 (x = xm) down to u = 1e-300."""
        from grg.weights import _pareto_log_inverse_survival

        model = ParetoLogWeights(1.5, 2.0)
        u = np.concatenate([[1.0, 1e-300], np.geomspace(1e-300, 1.0, 601),
                            1.0 - np.random.default_rng(4).random(1000)])
        x = _pareto_log_inverse_survival(model, u)
        assert x[0] == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(model.survival(x), u, rtol=1e-13, atol=0)

    def test_tail_params_logarithmic(self):
        tp = tail_params(ParetoLogWeights(1.5, 2.0))
        assert tp.h_kind == "logarithmic"
        np.testing.assert_allclose(tp.h(2.0 * math.e), 2.0)


class TestLemmaRatios:
    def test_pure_pareto_ratios(self):
        m = ParetoWeights(1.5, 1.0)
        rows = lemma1_ratio_check(m, [100.0, 10_000.0])
        np.testing.assert_allclose(rows[0].ratio_second, 0.9)
        np.testing.assert_allclose(rows[1].ratio_second, 0.99)
        # Karamata tail constant is exact for a pure power law
        np.testing.assert_allclose([r.ratio_tail_karamata for r in rows], 1.0, atol=1e-12)
        # the alternative printed constant is off by alpha/(2-alpha) = 3
        np.testing.assert_allclose([r.ratio_tail_alt for r in rows], 3.0, rtol=1e-12)

    def test_ratio_second_monotone_to_one(self):
        rows = lemma1_ratio_check(ParetoWeights(1.5, 1.0), np.geomspace(10, 1e6, 12))
        seq = [r.ratio_second for r in rows]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert abs(seq[-1] - 1.0) < 0.01

    def test_needs_tail_model(self):
        with pytest.raises(UnsupportedModelError):
            lemma1_ratio_check(ExponentialWeights(1.0), [10.0])

    @pytest.mark.parametrize("x", [math.inf, math.nan, 1e400, -math.inf])
    def test_refuses_nonfinite_truncation_point(self, x):
        with pytest.raises(ParameterError):
            lemma1_ratio_check(ParetoWeights(1.5, 1.0), [100.0, x])

    def test_refuses_underflowing_asymptote(self):
        """The tail constant c = xm^alpha underflows to 0 for a tiny xm."""
        with pytest.raises(ParameterError):
            lemma1_ratio_check(ParetoWeights(1.5, 1e-250), [10.0])

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_needs_alpha_in_open_interval(self, alpha):
        with pytest.raises(UnsupportedModelError):
            lemma1_ratio_check(ParetoWeights(alpha, 1.0), [10.0])


class TestNorming:
    def test_bracket_example(self):
        """At n=1000, alpha=1.5 the root of a^2 = 3000(sqrt(a)-1) sits in (197, 199)."""
        g = lambda a: a * a - 3000.0 * (math.sqrt(a) - 1.0)
        assert g(197.0) < 0 < g(199.0)
        a = compute_norming(ParetoWeights(1.5, 1.0), 1000)
        assert 197.0 < a < 199.0

    def test_defining_equality(self):
        for n in (100, 10_000, 10**6):
            m = ParetoWeights(1.5, 1.0)
            a = compute_norming(m, n)
            resid = abs(a * a - n * truncated_second_moment(m, a)) / (a * a)
            assert resid <= 1e-8, (n, resid)

    def test_regular_variation_ratio(self):
        """a_{2n}/a_n approaches 2^(1/alpha)."""
        m = ParetoWeights(1.5, 1.0)
        r = compute_norming(m, 2 * 10**6) / compute_norming(m, 10**6)
        assert abs(r / 2 ** (1 / 1.5) - 1.0) < 0.02

    def test_paretolog_norming(self):
        model = ParetoLogWeights(1.5, 2.0)
        n = 5000
        a = compute_norming(model, n)
        resid = abs(a * a - n * truncated_second_moment(model, a)) / (a * a)
        assert resid <= 1e-8

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            compute_norming(ParetoWeights(1.5, 1.0), 0)
        with pytest.raises(UnsupportedModelError):
            compute_norming(ExponentialWeights(1.0), 100)
        with pytest.raises(UnsupportedModelError):
            compute_norming(ParetoWeights(2.5, 1.0), 100)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            ConstantWeights(2.0),
            ExponentialWeights(0.5),
            LogNormalWeights(0.1, 1.2),
            GammaWeights(2.0, 0.3),
            ParetoWeights(1.5, 1.0),
            ParetoLogWeights(1.8, 4.0),
        ],
    )
    def test_round_trip(self, model):
        assert model_from_config(model_to_config(model)) == model

    def test_lambda_alias(self):
        assert model_from_config({"kind": "constant", "lambda": 2.0}) == ConstantWeights(2.0)

    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            model_from_config({"kind": "cauchy"})
