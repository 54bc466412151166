"""Weight models: sampling, moments, truncated moments, norming."""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import grg.weights
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
    truncated_first_moment_tail,
    truncated_second_moment,
)
from grg.weights import _gamma_upper, _log_gamma_mixture

# (alpha, xm) pairs of the ParetoLog draw tests, from alpha just above 1,
# where the Gamma(2, alpha) component has weight almost 1, to alpha = 100.
PARETOLOG_GRID = [(alpha, xm) for alpha in (1.0001, 1.001, 1.01, 1.1, 1.5, 1.95, 2.0, 10.0, 100.0)
                  for xm in (0.5, 1.0, 2.0, 3.0)]

ALL_MODELS = [ConstantWeights(2.0), ExponentialWeights(1.0), LogNormalWeights(0.0, 1.5),
              GammaWeights(0.5, 2.0), ParetoWeights(1.5, 1.0), ParetoLogWeights(1.5, 1.0)]

# sha256 of test_tail_numbers_are_pinned's reprs.
TAIL_NUMBERS_SHA256 = "3f2e7a0111e015f733f6630cb6d15641f48ada255c870655a279e423cc83314f"

# Positive finite doubles from the subnormals up to 1e300, whose squares overflow.
POSITIVE_DOUBLES = st.floats(min_value=5e-324, max_value=1e300)
# One value in each of 1000 binades, 2^-500 to 2^499.
MANY_BINADES = ((np.random.default_rng(1).random(1000) + 1.0) * 2.0 ** np.arange(-500, 500)).tolist()


def pdf(model):
    """Each model's density from outside grg: scipy.stats, or -d/dw of the ParetoLog survival."""
    if isinstance(model, ParetoLogWeights):
        a, xm = model.alpha, model.xm
        return lambda w: (w / xm) ** (-a - 1.0) * (a * (1.0 + math.log(w / xm)) - 1.0) / xm
    if isinstance(model, ParetoWeights):
        return stats.pareto(model.alpha, scale=model.xm).pdf
    if isinstance(model, LogNormalWeights):
        return stats.lognorm(model.sigma, scale=math.exp(model.mu)).pdf
    return stats.gamma(model.shape, scale=model.scale).pdf


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
        for model in ALL_MODELS:
            wv = sample_weights(model, 10**5, seed=3)
            assert wv.sum_l == math.fsum(wv.values), model
            assert wv.sum_sq == math.fsum(wv.values * wv.values), model
            if not isinstance(model, ConstantWeights):  # equality there, up to rounding
                assert wv.sum_sq >= wv.sum_l**2 / wv.n  # Cauchy-Schwarz

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["default-block", "block-1", "block-7"])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(values=st.lists(POSITIVE_DOUBLES, min_size=1, max_size=300))
    @example(values=[1.0])
    @example(values=[5e-324])
    @example(values=[1.0 + 2.0**-52] * 3000)
    @example(values=[2.0**-1074 * k for k in range(1, 400)] + [2.0**-1022, 1.5])
    @example(values=MANY_BINADES)
    @example(values=MANY_BINADES[::9] * 7)
    def test_totals_equal_fsum(self, block, values):
        """sum_l and sum_sq are math.fsum of the values and of their squares, bit for bit.

        Arrays whose square total overflows are refused instead.  Blocks
        of 1 and 7 values put block boundaries inside every array.
        """
        arr = np.array(values)
        with np.errstate(over="ignore"):
            squares = arr * arr
        try:
            totals = math.fsum(arr), math.fsum(squares)
        except OverflowError:
            totals = (math.inf, math.inf)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(grg.weights, "_SUM_BLOCK", block)
            if not all(map(math.isfinite, totals)):
                with pytest.raises(ParameterError):
                    WeightVector.from_values(arr)
                return
            wv = WeightVector.from_values(arr)
        assert (wv.sum_l, wv.sum_sq) == totals

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

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("values", [[1.0, 2.0, math.inf], [1e200, 1.0], [1e308, 1e308]])
    def test_binade_sums_reject_nonfinite_totals(self, values, block, monkeypatch):
        """The same refusals with the values split over blocks of one and seven."""
        monkeypatch.setattr(grg.weights, "_SUM_BLOCK", block)
        with pytest.raises(ParameterError):
            WeightVector.from_values(values * 50)

    @pytest.mark.parametrize("cls", [ParetoWeights, ParetoLogWeights])
    def test_subnormal_xm_is_rejected(self, cls):
        """Every draw is at least xm, so a normal xm keeps the draws off the subnormal grid.

        At xm = 1e-150 the squares are normal too, and the draw comes back; at the
        smallest normal xm they underflow, and ``sample_weights`` refuses the draw.
        """
        with pytest.raises(ParameterError, match="normal double"):
            cls(1.5, 1e-320)
        wv = sample_weights(cls(1.5, 1e-150), 100, seed=1)
        assert wv.values.min() >= 1e-150 and wv.sum_sq >= sys.float_info.min
        with pytest.raises(ParameterError, match="sum of squares 0.0 is not a normal double"):
            sample_weights(cls(1.5, sys.float_info.min), 100, seed=1)

    @pytest.mark.parametrize("model", [
        ConstantWeights(1e-160), ExponentialWeights(1e250), LogNormalWeights(-400.0, 1.0),
        GammaWeights(2.0, 1e-200), ParetoWeights(2.0, 2.3e-288), ParetoLogWeights(1.5, 7.4e-214),
    ], ids=lambda m: type(m).__name__)
    def test_sum_of_squares_below_the_normal_range_is_refused(self, model):
        """A sum of squares below the smallest normal double is 0.0 or has lost digits
        (Constant(1e-160) gives 9.99989e-318 for 1e-317), so the draw is refused."""
        with pytest.raises(ParameterError, match="is not a normal double"):
            sample_weights(model, 1000, seed=0)

    def test_overflowing_pareto_draw_is_rejected(self):
        """Pareto alpha=0.01 and Exponential rate=1e-308 overflow some draws to inf instead of
        giving L = inf; the overflow raises ParameterError, not a RuntimeWarning."""
        for model in (ParetoWeights(0.01, 1.0), ExponentialWeights(1e-308)):
            with pytest.raises(ParameterError):
                sample_weights(model, 1000, seed=3)


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
            mom, f = analytic_moments(model), pdf(model)
            ew = integrate.quad(lambda w: w * f(w), 0, np.inf)[0]
            ew2 = integrate.quad(lambda w: w * w * f(w), 0, np.inf)[0]
            np.testing.assert_allclose([mom.ew, mom.ew2], [ew, ew2], rtol=1e-8)

    def test_paretolog_mean_matches_quadrature(self):
        """E[W] at alpha = 1.7 and 2.5; E[W^2] and Var W, finite only above alpha = 2."""
        heavy = ParetoLogWeights(1.7, 2.0)
        ew = integrate.quad(lambda w: w * pdf(heavy)(w), 2.0, np.inf)[0]
        np.testing.assert_allclose(analytic_moments(heavy).ew, ew, rtol=1e-7)
        assert math.isinf(analytic_moments(heavy).ew2)
        light = ParetoLogWeights(2.5, 2.0)
        ew, ew2 = (integrate.quad(lambda w: w**k * pdf(light)(w), 2.0, np.inf)[0] for k in (1, 2))
        mom = analytic_moments(light)
        np.testing.assert_allclose([mom.ew, mom.ew2, mom.var_w], [ew, ew2, ew2 - ew * ew],
                                   rtol=1e-7)


    @pytest.mark.parametrize("model", [
        LogNormalWeights(2.0, 5e-324),  # found by tests/test_contract.py
        LogNormalWeights(2.0, 1e-8),
        ParetoWeights(1e9, 1.0),
        ParetoLogWeights(1e9, 1.0),
    ], ids=repr)
    def test_a_tiny_variance_is_not_negative(self, model):
        """EW^2 - EW * EW rounds below 0 here; Var W is kept at 0."""
        assert analytic_moments(model).var_w == 0.0


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
        assert truncated_first_moment_tail(ParetoWeights(0.8, 1.0), 100.0) == math.inf

    def test_exponential_quadrature_recovers_full_moment(self):
        """The full EW^2 = 2 is analytic; the truncated second moment has no light-tailed path."""
        ew2 = integrate.quad(lambda w: w * w * math.exp(-w), 0.0, 50.0)[0]
        assert abs(analytic_moments(ExponentialWeights(1.0)).ew2 - ew2) < 1e-8
        with pytest.raises(UnsupportedModelError):
            truncated_second_moment(ExponentialWeights(1.0), 50.0)

    def test_exponential_tail_closed_form_oracle(self):
        # E[W; W >= x] = (x + 1) e^-x for the unit exponential, but only power laws have a tail here
        tail = integrate.quad(lambda w: w * math.exp(-w), 10.0, np.inf)[0]
        np.testing.assert_allclose(tail, 11.0 * math.exp(-10.0), rtol=1e-8)
        with pytest.raises(UnsupportedModelError):
            truncated_first_moment_tail(ExponentialWeights(1.0), 10.0)

    def test_light_tails_unsupported(self):
        """Only the power-law models have closed forms; lemma 1 and the norming take no others."""
        for model in (ExponentialWeights(1.0), LogNormalWeights(0.0, 1.0), GammaWeights(2.0, 1.5)):
            for moment in (truncated_second_moment, truncated_first_moment_tail):
                with pytest.raises(UnsupportedModelError):
                    moment(model, 10.0)

    def test_second_moment_reconstruction_light_tail(self):
        """Truncation plus the exact tail reconstructs EW^2 for alpha > 2."""
        m = ParetoWeights(3.0, 2.0)
        x = 37.0
        # tail second moment of a pure power law: a xm^a x^(2-a)/(a-2)
        tail2 = 3.0 * 2.0**3 * x ** (2.0 - 3.0) / (3.0 - 2.0)
        mom = analytic_moments(m)
        np.testing.assert_allclose(truncated_second_moment(m, x) + tail2, mom.ew2, rtol=1e-9)

    def test_monotonicity(self):
        m = ParetoLogWeights(1.5, 0.8)
        grid = [0.5, 1.0, 2.0, 5.0, 20.0]
        second = [truncated_second_moment(m, x) for x in grid]
        tail = [truncated_first_moment_tail(m, x) for x in grid]
        assert all(a <= b for a, b in zip(second, second[1:]))
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_boundary_exponent_closed_forms(self):
        """At and near alpha = 2 the series of the mixture sum serves both power-law models."""
        for model in (cls(alpha, 1.5) for alpha in (2.0, 1.999, 1.9999999)
                      for cls in (ParetoWeights, ParetoLogWeights)):
            f = pdf(model)
            for x in (3.0, 50.0):
                quad = integrate.quad(lambda w: w * w * f(w), 1.5, x, epsabs=1e-12)[0]
                np.testing.assert_allclose(truncated_second_moment(model, x), quad, rtol=1e-12)

    def test_paretolog_closed_forms_match_quadrature(self):
        model = ParetoLogWeights(1.5, 3.0)
        f = pdf(model)
        for x in (5.0, 40.0, 300.0):
            quad2 = integrate.quad(lambda w: w * w * f(w), 3.0, x, epsabs=1e-12, limit=300)[0]
            np.testing.assert_allclose(truncated_second_moment(model, x), quad2, rtol=1e-9)
            quad1 = integrate.quad(lambda w: w * f(w), x, np.inf, epsabs=1e-12, limit=300)[0]
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
        """KS of 2e4 draws against the analytic CDF accepts at 0.01, from alpha near 1 to 10."""
        from grg import ks_one_sample

        for model, seed in ((ParetoLogWeights(1.5, 2.0), 61), (ParetoLogWeights(1.0001, 1.5), 7101),
                            (ParetoLogWeights(2.0, 1.5), 7102), (ParetoLogWeights(10.0, 1.5), 7103)):
            wv = sample_weights(model, 20_000, seed=seed)
            res = ks_one_sample(wv.values, lambda x: 1.0 - model.survival(x))
            assert res.p_value > 0.01, (model, res)

    def test_draws_are_finite_and_at_least_xm(self):
        for alpha, xm in PARETOLOG_GRID:
            values = sample_weights(ParetoLogWeights(alpha, xm), 10_000, seed=7104).values
            assert np.all(values >= xm) and np.all(np.isfinite(values)), (alpha, xm)

    def test_overflowing_draw_is_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                sample_weights(ParetoLogWeights(1.5, 1e300), 1000, seed=3)

    def test_log_mixture_survival(self):
        """p e^(-alpha c) + q e^(-alpha c) (1 + alpha c) is survival(xm e^c) to 1e-15.

        The reference carries its own rounding, alpha (1 + c) ulps from the
        power and the log of w / xm (1.4e-14 at alpha = 10, c = 18), which is
        added to the bound; c stops where the survival leaves the normal range.
        """
        grid = np.concatenate([[0.0], np.geomspace(1e-8, 50.0, 200)])
        for alpha, xm in PARETOLOG_GRID:
            model = ParetoLogWeights(alpha, xm)
            mixture = _log_gamma_mixture(model)
            assert mixture.keys() == {1, 2}
            c = grid[alpha * grid <= 700.0]
            got = np.array([sum(w * _gamma_upper(k, alpha * ci) for k, w in mixture.items())
                            for ci in c])
            ref = model.survival(xm * np.exp(c))
            bound = (1e-15 + alpha * (1.0 + c) * np.finfo(float).eps) * ref
            assert np.all(np.abs(got - ref) <= bound), (alpha, xm)



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

    def test_refuses_overflowing_asymptote(self):
        """x / xm overflows in h(x) = 1 + log(x/xm), while E[W^2; W <= x] is finite."""
        assert math.isfinite(truncated_second_moment(ParetoLogWeights(1.5, 1e-10), 1e308))
        with pytest.raises(ParameterError):
            lemma1_ratio_check(ParetoLogWeights(1.5, 1e-10), [1e308])

    @pytest.mark.parametrize("model, x", [(ParetoLogWeights(1.5, 1.0), 0.1),
                                          (ParetoWeights(1.5, 1.0), 0.5),
                                          (ParetoLogWeights(1.8, 2.3), math.nextafter(2.3, 0.0))],
                             ids=["paretolog-h-negative", "pareto", "paretolog-one-ulp-below"])
    def test_refuses_truncation_point_below_xm(self, model, x):
        """The tail form c x^(-alpha) h(x) holds only from xm on; below it, h may be negative."""
        with pytest.raises(ParameterError, match="x >= xm"):
            lemma1_ratio_check(model, [10.0, x])
        assert lemma1_ratio_check(model, [model.xm])[0].x == model.xm

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

    def test_near_boundary_norming(self):
        """The root at alpha = 1.999, against a 50-digit mpmath root of the same equation."""
        a = compute_norming(ParetoLogWeights(1.999, 1.0), 5)
        assert abs(a / 4.1559178645989708 - 1.0) <= 1e-13, a

    def test_tail_numbers_are_pinned(self):
        """Lemma 1 rows, a_n at n = 10 ... 10^9 and the audit's pair moments, bit for bit.

        Two of the models have a non-dyadic xm, so every x / xm, log and xm
        power is rounded; the sha256 of the reprs fixes the order of those
        roundings as well as the values.
        """
        from grg.limits import audit_pair_moments

        out = []
        for model in (ParetoWeights(1.5, 1.0), ParetoWeights(1.2, 0.37),
                      ParetoLogWeights(1.5, 1.0), ParetoLogWeights(1.8, 2.3)):
            xs = np.concatenate([model.xm * np.geomspace(1.0, 1e12, 25),
                                 np.geomspace(3.0, 3e11, 11)])
            out.append(lemma1_ratio_check(model, xs))
            for n in (10**k for k in range(1, 10)):
                a_n = compute_norming(model, n)
                out.append((a_n, audit_pair_moments(model, n, a_n)))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == TAIL_NUMBERS_SHA256

    @pytest.mark.parametrize("kind", [ParetoWeights, ParetoLogWeights])
    def test_root_scales_with_xm(self, kind):
        """a^2 = n E[W^2; W <= a] has no scale of its own, so a_n is xm times a_n at xm = 1,
        down to the smallest xm whose square is a normal double."""
        for xm in (1e-150, 1.5e-154, 1e150):
            a_n = compute_norming(kind(1.5, xm), 100)
            assert abs(a_n / (xm * compute_norming(kind(1.5, 1.0), 100)) - 1.0) <= 1e-13, xm

    @pytest.mark.parametrize("xm", [1.49e-154, 1e-160, 1e-200, 1e-250])
    def test_tiny_xm_is_refused(self, xm):
        """Below that xm both sides underflow to 0 near the root: at xm = 1e-200 the bracket
        walk stopped at 1.57e-162, where the root is 4.0e-199."""
        with pytest.raises(ArithmeticError, match=r"norming a_n .* at n=100 underflows"):
            compute_norming(ParetoWeights(1.5, xm), 100)

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
