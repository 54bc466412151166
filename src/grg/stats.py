"""Kolmogorov-Smirnov tests and the normal CDF.

P-values use the asymptotic Kolmogorov series with Stephens' small-n
correction lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D, where ne is
the sample size for the one-sample test and n*m/(n+m) for two samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "KsResult",
    "ks_one_sample",
    "ks_two_sample",
    "normal_cdf",
    "kolmogorov_sf",
    "median",
]


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float
    n_effective: float


def _sorted_sample(sample) -> np.ndarray:
    """A sorted float copy of a sample, which must be non-empty and finite."""
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise DomainError("empty sample")
    if not np.isfinite(xs).all():
        raise DomainError("sample holds a non-finite value")
    return xs


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc(-x / math.sqrt(2.0)), dtype=float)
    return float(out) if out.ndim == 0 else out


def kolmogorov_sf(lam: float) -> float:
    """Tail of the Kolmogorov distribution, 2*sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 201):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _ks_p_value(d: float, n_effective: float) -> float:
    rn = math.sqrt(n_effective)
    return kolmogorov_sf((rn + 0.12 + 0.11 / rn) * d)


def ks_one_sample(sample, cdf) -> KsResult:
    """One-sample KS of a sample against a continuous callable CDF.

    Both one-sided gaps are evaluated at every jump point, which is the
    exact supremum for a continuous CDF.  The CDF must be monotone on the
    sample grid; a decreasing stretch raises DomainError since it would
    silently corrupt the statistic, as would a NaN or an infinity in the
    sample.
    """
    xs = _sorted_sample(sample)
    n = len(xs)
    f = np.asarray(cdf(xs), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise DomainError("cdf is not monotone on the sample grid")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus, 0.0))
    return KsResult(d, _ks_p_value(d, n), float(n))


def ks_two_sample(a, b) -> KsResult:
    """Two-sample KS; symmetric in its arguments.  Both samples must be finite."""
    a, b = _sorted_sample(a), _sorted_sample(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = len(a) * len(b) / (len(a) + len(b))
    return KsResult(d, _ks_p_value(d, n_eff), n_eff)


def median(values) -> float:
    """np.median of a finite sample, without the numpy.ma import that np.median costs."""
    xs = np.sort(np.asarray(values, dtype=float))
    return float((xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2.0)  # x + x is exact
