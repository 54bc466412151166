"""Kolmogorov-Smirnov tests and the normal CDF."""

import math

import numpy as np
import pytest

from grg import (
    DomainError,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    normal_cdf,
)

# Samples that every KS test refuses: a non-finite value, or no value at all.
BAD_SAMPLES = [[0.1, np.nan, 0.3], [0.1, np.inf, 0.3], [0.1, -np.inf, 0.3], []]
BAD_IDS = ["nan", "inf", "-inf", "empty"]


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_upper_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_reference_value_tight(self):
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_against_scipy_ndtr(self):
        from scipy.special import ndtr

        grid = np.linspace(-40.0, 40.0, 8001)
        np.testing.assert_allclose(normal_cdf(grid), ndtr(grid), rtol=0, atol=1e-15)
        assert isinstance(normal_cdf(0.0), float) and normal_cdf(0.0) == 0.5
        assert isinstance(normal_cdf(np.float64(-1.5)), float)


class TestKolmogorovSeries:
    def test_reference_value(self):
        # 10-term truncation of 2*sum (-1)^(k-1) exp(-2 k^2 lam^2) at lam=1.36
        oracle = 2.0 * sum(
            (-1) ** (k - 1) * math.exp(-2 * k * k * 1.36**2) for k in range(1, 11)
        )
        assert kolmogorov_sf(1.36) == pytest.approx(oracle, abs=1e-12)
        assert kolmogorov_sf(1.36) == pytest.approx(0.049, abs=5e-4)

    def test_limits(self):
        assert kolmogorov_sf(1e-12) == 1.0
        assert kolmogorov_sf(10.0) < 1e-80


class TestOneSample:
    def test_two_point_example(self):
        """{0.25, 0.75} against Uniform(0,1): both gaps give D = 0.25."""
        res = ks_one_sample([0.25, 0.75], lambda x: np.clip(np.asarray(x, dtype=float), 0, 1))
        assert res.d_stat == pytest.approx(0.25)
        assert res.n_effective == 2

    def test_non_monotone_cdf_rejected(self):
        with pytest.raises(DomainError):
            ks_one_sample([1.0, 2.0, 3.0], lambda x: -np.asarray(x, dtype=float))

    @pytest.mark.parametrize("sample", BAD_SAMPLES, ids=BAD_IDS)
    def test_non_finite_sample_rejected(self, sample):
        """A NaN gave D = nan and p = 0 without complaint; an empty sample is refused too."""
        with pytest.raises(DomainError):
            ks_one_sample(sample, normal_cdf)

    def test_p_value_self_consistency(self):
        """Samples drawn from the target: p > 0.001 in at least 999/1000 runs."""
        rng = np.random.default_rng(42)
        ok = sum(
            ks_one_sample(rng.standard_normal(10_000), normal_cdf).p_value > 0.001
            for _ in range(1000)
        )
        assert ok >= 999, ok


class TestTwoSample:
    @pytest.mark.parametrize("sample", BAD_SAMPLES, ids=BAD_IDS)
    def test_non_finite_sample_rejected(self, sample):
        """A NaN sorted to the end and gave D = 0.33, p = 0.99 without complaint."""
        with pytest.raises(DomainError):
            ks_two_sample(sample, [0.2, 0.5])
        with pytest.raises(DomainError):
            ks_two_sample([0.2, 0.5], sample)

    def test_identical_samples(self):
        xs = [0.0, 1.0, 1.0, 3.5]
        assert ks_two_sample(xs, xs).d_stat == 0.0

    def test_disjoint_samples(self):
        res = ks_two_sample([0.0], [1.0])
        assert res.d_stat == 1.0
        assert res.n_effective == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(300), rng.standard_normal(500) + 0.3
        r1, r2 = ks_two_sample(a, b), ks_two_sample(b, a)
        assert r1 == r2

    def test_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(400), rng.standard_normal(400) * 1.4
        base = ks_two_sample(a, b).d_stat
        for f in (np.exp, np.arctan, lambda x: x**3):
            assert ks_two_sample(f(a), f(b)).d_stat == pytest.approx(base, abs=1e-15)

    def test_split_halves_self_consistency(self):
        """Two halves of one normal sample: p > 0.01 in >= 98% of runs."""
        rng = np.random.default_rng(777)
        ok = 0
        for _ in range(200):
            xs = rng.standard_normal(20_000)
            ok += ks_two_sample(xs[:10_000], xs[10_000:]).p_value > 0.01
        assert ok >= 196, ok

    def test_lattice_data_supported(self):
        rng = np.random.default_rng(8)
        a = rng.poisson(30, 2000)
        b = rng.poisson(30, 2000)
        res = ks_two_sample(a, b)
        assert 0.0 <= res.d_stat <= 1.0 and res.p_value > 0.0
