"""Alpha-stable laws S_alpha(scale, beta, location), 1 < alpha < 2: CDF and CMS sampler.

phi(t) = exp(i*location*t - |scale*t|^alpha * (1 - i*beta*sgn(t)*tan(pi*alpha/2))).  The CDF is
Nolan's integral (Nolan 1997, "Numerical calculation of stable densities and distribution
functions"): F(z) = 1 - (1/pi) int_{-theta0}^{pi/2} exp(-z^(alpha/(alpha-1)) V(theta)) dtheta
for z = (x - location)/scale > 0, F(0) = 1/2 - theta0/pi and F(z; beta) = 1 - F(-z; -beta),
where theta0 = arctan(beta tan(pi alpha/2))/alpha and V(theta) = cos(alpha theta0)^(1/(alpha-1))
(cos theta / sin(alpha(theta0 + theta)))^(alpha/(alpha-1)) cos(alpha theta0 + (alpha-1) theta)
/ cos theta.  It runs over t, theta = pi/2 - width e^-t, by Gauss-Legendre nodes on pieces cut
at fixed t and where log g = log(z^(alpha/(alpha-1)) V) crosses fixed levels (a log V table).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["StableParams", "stable_cdf_batch", "sample_stable"]

_SEED_MASK = (1 << 64) - 1
_LEVELS = np.array([4.0, 2.0, 0.0, -2.0, -6.0, -12.0])  # below the first, exp(-g) < 2e-24
_FIXED_T = np.array([2.0, 8.0, 50.0])  # t ends at 50, which leaves out width*e^-50 near pi/2
_TABLE_T = np.geomspace(1e-14, _FIXED_T[-1], 1200)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_BLOCK = 1024


@dataclass(frozen=True)
class StableParams:
    alpha: float
    beta: float
    scale: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0 and -1.0 <= self.beta <= 1.0):
            raise ParameterError(f"need 1 < alpha < 2 and -1 <= beta <= 1, got {self}")
        if not (0.0 < self.scale < math.inf and math.isfinite(self.location)):
            raise ParameterError(f"need 0 < scale < inf and a finite location, got {self}")


def _log_v(t, a: float, theta0: float):
    """log V and log(dtheta/dt) at theta = pi/2 - u, u = width*e^-t, with d = pi - a*width:
    sin(a*(theta0 + theta)) = sin(d + a*u) = sin(a*(width - u)), cos(...) = sin(d + (a-1)*u)."""
    width = math.pi / 2.0 + theta0
    d, u = max(0.0, math.pi - a * width), width * np.exp(-t)
    near = np.minimum(d + a * u, -a * width * np.expm1(-t))
    return (math.log(math.cos(a * theta0)) / (a - 1.0) + np.log(np.sin(u)) / (a - 1.0)
            - a / (a - 1.0) * np.log(np.sin(near)) + np.log(np.sin(d + (a - 1.0) * u)),
            math.log(width) - t)


def _upper_tail(z: np.ndarray, alpha: float, theta0: float) -> np.ndarray:
    """1 - F(z) for finite z > 0, where theta0 is odd in beta."""
    table = np.maximum.accumulate(_log_v(_TABLE_T, alpha, theta0)[0][::-1])  # rising as t falls
    out = np.empty_like(z)
    for start in range(0, len(z), _BLOCK):
        log_zk = alpha / (alpha - 1.0) * np.log(z[start:start + _BLOCK])[:, None]
        cuts = np.interp(_LEVELS - log_zk, table, _TABLE_T[::-1])
        edges = np.sort(np.concatenate([cuts, np.maximum(_FIXED_T, cuts[:, :1])], axis=1), axis=1)
        half = (edges[:, 1:] - edges[:, :-1]) / 2.0
        t = ((edges[:, 1:] + edges[:, :-1]) / 2.0)[:, :, None] + half[:, :, None] * _NODES
        log_v, log_jac = _log_v(t, alpha, theta0)
        log_g = np.minimum(log_zk[:, :, None] + log_v, 700.0)  # exp(-e^700) = 0, no overflow
        f = np.exp(log_jac - np.exp(log_g))
        out[start:start + _BLOCK] = ((f @ _WEIGHTS) * half).sum(axis=1)
    return out / math.pi


def stable_cdf_batch(xs, p: StableParams) -> np.ndarray:
    """CDF at each of ``xs``: +inf maps to 1 and -inf to 0; NaN raises DomainError."""
    z = (np.asarray(xs, dtype=float) - p.location) / p.scale
    if np.isnan(z).any():
        raise DomainError("the stable CDF of NaN is undefined")
    theta0 = math.atan(p.beta * math.tan(math.pi * p.alpha / 2.0)) / p.alpha
    out = np.where(z > 0.0, 1.0, 0.0)
    out[z == 0.0] = 0.5 - theta0 / math.pi
    pos, neg = (0.0 < z) & (z < math.inf), (-math.inf < z) & (z < 0.0)
    out[pos] = 1.0 - _upper_tail(z[pos], p.alpha, theta0)
    out[neg] = _upper_tail(-z[neg], p.alpha, -theta0)
    return out


def sample_stable(p: StableParams, m: int, seed: int) -> np.ndarray:
    """m i.i.d. draws by the polar (CMS) method; deterministic given seed."""
    if m < 1:
        raise ParameterError(f"need m >= 1 draws, got {m}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    u, e = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m), rng.standard_exponential(m)
    a, bt = p.alpha, p.beta * math.tan(math.pi * p.alpha / 2.0)
    theta0 = math.atan(bt) / a
    x = ((1.0 + bt * bt) ** (1.0 / (2.0 * a)) * np.sin(a * (u + theta0)) / np.cos(u) ** (1.0 / a)
         * (np.cos(u - a * (u + theta0)) / e) ** ((1.0 - a) / a))
    return p.scale * x + p.location
