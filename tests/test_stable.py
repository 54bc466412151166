"""Stable law: Nolan's CDF against a Gil-Pelaez oracle, and the CMS sampler.

The oracle inverts the characteristic function by the Gil-Pelaez formula with
QUADPACK: plain quadrature for |z| <= 2, Fourier-weighted quadrature (QAWF)
up to |z| = 5000, and the first-order power-law tail beyond.  It is accurate
to about 1e-6, and ``TestCharFn`` and the closed-form cases of ``TestCdf``
check it where the answer is known.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from grg import (
    DomainError,
    ParameterError,
    StableParams,
    ks_one_sample,
    sample_stable,
    stable_cdf_batch,
)


def _char_fn(t: float, alpha: float, beta: float) -> complex:
    """Characteristic function of S_alpha(1, beta, 0); for alpha = 1 only with beta = 0."""
    decay = abs(t) ** alpha
    return cmath.exp(complex(-decay, decay * beta * math.copysign(1.0, t)
                             * math.tan(math.pi * alpha / 2.0)))


def _tail_constant(alpha: float) -> float:
    """1 - F(z) ~ c (1 + beta) z^-alpha and F(-z) ~ c (1 - beta) z^-alpha as z -> inf."""
    return math.sin(math.pi * alpha / 2.0) * math.gamma(alpha) / math.pi


def _oracle_cdf(z: float, alpha: float, beta: float) -> float:
    """F(z) of S_alpha(1, beta, 0) by Gil-Pelaez inversion, absolute error about 1e-6."""
    if abs(z) >= 5000.0:
        c = _tail_constant(alpha)
        return 1.0 - c * (1.0 + beta) * z**-alpha if z > 0 else c * (1.0 - beta) * (-z) ** -alpha
    if abs(z) <= 2.0:  # few oscillations: integrate Im(phi(t) e^(-itz))/t directly
        def integrand(t):
            return (_char_fn(t, alpha, beta) * cmath.exp(-1j * t * z)).imag / t if t > 0 else 0.0

        out = integrate.quad(integrand, 0.0, 41.4 ** (1.0 / alpha), limit=400, epsabs=1e-10,
                             full_output=1)
        assert len(out) == 3, out[3]
        return 0.5 - out[0] / math.pi
    # split off the sine integral of 1/t, pi/2 * sgn(z); Fourier quadrature of the rest
    def g_cos(t):
        return _char_fn(t, alpha, beta).imag / t if t > 0 else 0.0

    def g_sin(t):
        return (_char_fn(t, alpha, beta).real - 1.0) / t if t > 0 else 0.0

    out_c, out_s = (integrate.quad(g, 0.0, np.inf, weight=w, wvar=z, limlst=200, limit=200,
                                   full_output=1) for g, w in ((g_cos, "cos"), (g_sin, "sin")))
    assert len(out_c) == 3 and len(out_s) == 3, "Fourier quadrature failed"
    return 0.5 + math.copysign(0.5, z) - (out_c[0] - out_s[0]) / math.pi


class TestCharFn:
    """The oracle's characteristic function, which its Gil-Pelaez inversion integrates."""

    def test_value_at_zero(self):
        for alpha, beta in ((1.5, 0.7), (1.0, 0.0), (2.0, 0.0)):
            assert _char_fn(0.0, alpha, beta) == 1.0 + 0.0j

    def test_gaussian_branch(self):
        np.testing.assert_allclose(_char_fn(1.0, 2.0, 0.0), math.exp(-1.0), rtol=1e-12)

    def test_cauchy_branch(self):
        np.testing.assert_allclose(_char_fn(2.0, 1.0, 0.0), math.exp(-2.0), rtol=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            alpha, beta, t = rng.uniform(0.3, 2.0), rng.uniform(-1, 1), rng.uniform(-20, 20)
            assert abs(_char_fn(float(t), float(alpha), float(beta))) <= 1.0 + 1e-12

    def test_continuity_at_zero(self):
        for t in (1e-9, -1e-9, 1e-6):
            assert abs(_char_fn(t, 1.3, 1.0) - 1.0) < 1e-5

    def test_parameter_domains(self):
        for bad in ((2.5, 0.0), (2.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.5, 1.5), (math.nan, 0.0)):
            with pytest.raises(ParameterError):
                StableParams(*bad)
        for scale, location in ((0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                                (1.0, -math.inf), (1.0, math.nan)):
            with pytest.raises(ParameterError):
                StableParams(1.5, 0.0, scale, location)


_ALPHAS = (1.1, 1.2, 1.5, 1.8, 1.9)
_BETAS = (-1.0, 0.0, 0.5, 1.0)
_GRID = np.geomspace(1e-3, 200.0, 24)
_GRID = np.concatenate([-_GRID[::-1], _GRID])


def _cdf(x, p: StableParams) -> float:
    return float(stable_cdf_batch([x], p)[0])


class TestCdf:
    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_matches_gil_pelaez_oracle(self, alpha):
        for beta in _BETAS:
            new = stable_cdf_batch(_GRID, StableParams(alpha, beta))
            old = np.array([_oracle_cdf(float(z), alpha, beta) for z in _GRID])
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-6, err_msg=f"beta={beta}")

    def test_symmetric_median(self):
        assert _cdf(0.0, StableParams(1.7, 0.0)) == pytest.approx(0.5, abs=1e-9)

    def test_cauchy_quartile(self):
        """The oracle at alpha = 1, beta = 0, the Cauchy law: F(1) = 3/4."""
        assert _oracle_cdf(1.0, 1.0, 0.0) == pytest.approx(0.75, abs=1e-8)

    def test_gaussian_branch_quantile(self):
        """The oracle at alpha = 2, the N(0, 2) law: F(2.7718) = Phi(2.7718/sqrt(2)) = 0.975."""
        assert _oracle_cdf(2.7718, 2.0, 0.0) == pytest.approx(0.975, abs=1e-5)

    def test_symmetry(self):
        p = StableParams(1.5, 0.0)
        for x in (0.3, 1.0, 4.0, 40.0):
            assert _cdf(x, p) + _cdf(-x, p) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_reflection(self, alpha):
        """F(z; beta) = 1 - F(-z; -beta), here at z = 0 too."""
        zs = np.concatenate([_GRID, [0.0]])
        for beta in (-1.0, -0.3, 0.5, 1.0):
            np.testing.assert_allclose(stable_cdf_batch(zs, StableParams(alpha, beta)),
                                       1.0 - stable_cdf_batch(-zs, StableParams(alpha, -beta)),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_continuity_at_zero(self, alpha):
        for beta in (-1.0, 0.0, 0.6, 1.0):
            p = StableParams(alpha, beta)
            at_zero = 0.5 - math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha / math.pi
            assert _cdf(0.0, p) == pytest.approx(at_zero, abs=1e-15)
            near = stable_cdf_batch([-1e-9, -1e-12, 1e-12, 1e-9], p)
            np.testing.assert_allclose(near, at_zero, rtol=0, atol=1e-7)

    def test_location_scale_shift(self):
        base = StableParams(1.4, 0.6)
        moved = StableParams(1.4, 0.6, scale=2.5, location=-1.0)
        for z in (-2.0, 0.0, 1.3):
            assert _cdf(z, base) == pytest.approx(_cdf(2.5 * z - 1.0, moved), abs=1e-7)

    def test_far_tails(self):
        for alpha in (1.1, 1.5, 1.9):
            p = StableParams(alpha, 0.0)
            assert _cdf(-1e6, p) <= 0.001
            assert _cdf(1e6, p) >= 0.999

    def test_oscillatory_regime_matches_tail_expansion(self):
        """At z = 500, where the inversion integrand oscillates, the CDF meets the first-order tail."""
        p = StableParams(1.5, 0.0)
        tail = math.sin(math.pi * 0.75) * math.gamma(1.5) / math.pi * 500.0**-1.5
        assert _cdf(500.0, p) == pytest.approx(1.0 - tail, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("z, rtol", [(500.0, 1e-2), (1e6, 1e-5)])
    def test_first_order_tail(self, alpha, z, rtol):
        """F(-z) and 1 - F(z) against c (1 -+ beta) z^-alpha, relative to the tail itself.

        The bound covers the second-order term (4e-3 at alpha = 1.1 and z = 500).  1 - F(z)
        also gets 1e-15 for the rounding of F(z) next to 1 (2e-12 from 1 at alpha = 1.9, z = 1e6).
        """
        c = _tail_constant(alpha)
        for beta in (-0.5, 0.0, 0.5):
            f = stable_cdf_batch([-z, z], StableParams(alpha, beta))
            assert f[0] == pytest.approx(c * (1.0 - beta) * z**-alpha, rel=rtol, abs=0.0), beta
            assert 1.0 - f[1] == pytest.approx(c * (1.0 + beta) * z**-alpha, rel=rtol,
                                               abs=1e-15), beta

    def test_non_finite_input(self):
        p = StableParams(1.5, 0.3)
        np.testing.assert_array_equal(stable_cdf_batch([-np.inf, np.inf], p), [0.0, 1.0])
        with pytest.raises(DomainError):
            stable_cdf_batch([0.1, np.nan], p)

    def test_batch_is_isotonic_and_matches_pointwise(self):
        p = StableParams(1.3, 1.0)
        xs = np.concatenate([np.linspace(-30, 30, 700), [0.123] * 3])
        vals = stable_cdf_batch(xs, p)
        order = np.argsort(xs)
        assert np.all(np.diff(vals[order]) >= 0)
        for idx in (0, 150, 400, 699):
            assert vals[idx] == pytest.approx(_oracle_cdf(float(xs[idx]), 1.3, 1.0), abs=1e-6)

    def test_batch_spans_blocks(self):
        """A batch of several evaluation blocks gives each point its own value."""
        p = StableParams(1.6, 0.5)
        xs = np.linspace(-25, 25, 5000)
        vals = stable_cdf_batch(xs, p)
        for idx in (100, 2500, 4900):
            assert vals[idx] == pytest.approx(_oracle_cdf(float(xs[idx]), 1.6, 0.5), abs=1e-6)
        np.testing.assert_array_equal(vals[::-1], stable_cdf_batch(xs[::-1], p))

    def test_batch_degenerate_grid(self):
        """Many copies of one point get one value."""
        p = StableParams(1.5, 0.0)
        vals = stable_cdf_batch(np.full(1000, 1.7), p)
        np.testing.assert_allclose(vals, _oracle_cdf(1.7, 1.5, 0.0), rtol=0, atol=1e-6)
        assert np.all(vals == vals[0])


class TestSampler:
    def test_determinism(self):
        p = StableParams(1.5, 1.0, 2.0, -1.0)
        assert sample_stable(p, 1, seed=7)[0] == sample_stable(p, 1, seed=7)[0]

    def test_positive_skew_direction(self):
        """beta=1 with alpha in (1,2): mean stays at 0, median goes negative."""
        xs = sample_stable(StableParams(1.5, 1.0), 10**5, seed=33)
        assert np.median(xs) < 0.0
        assert abs(np.mean(xs)) < 0.5  # heavy tails make the mean noisy

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_self_consistency_grid(self, alpha, beta):
        """KS of 1e5 CMS draws against the CDF accepts at 0.01."""
        p = StableParams(alpha, beta)
        xs = sample_stable(p, 10**5, seed=2024)
        res = ks_one_sample(xs, lambda v: stable_cdf_batch(v, p))
        assert res.p_value > 0.01, (alpha, beta, res)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            sample_stable(StableParams(1.5, 0.0), 0, seed=1)
