"""Vertex-weight models: sampling, moments, tail asymptotics, norming.

A weight model is a small frozen dataclass describing a positive law.
The module exposes:

* ``sample_weights`` -- n i.i.d. draws packaged as a :class:`WeightVector`
  with exactly-summed totals,
* ``analytic_moments`` -- closed-form mean / variance / second moment,
* ``truncated_second_moment`` / ``truncated_first_moment_tail`` -- the
  truncated moments E[W^2; W <= x] and E[W; W >= x] of the two power-law
  models, as sums over the Gamma mixture that is the law of log(W/xm); the
  ParetoLog draw and the audit's pair moments come from it too,
* ``lemma1_ratio_check`` -- exact truncated moments against their
  regular-variation asymptotes,
* ``compute_norming`` -- the scaling sequence a_n defined as the root of
  a^2 = n * E[W^2; W <= a].

The module needs only numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import BracketingError, ParameterError, SizeError, UnsupportedModelError

__all__ = [
    "ConstantWeights",
    "ExponentialWeights",
    "LogNormalWeights",
    "GammaWeights",
    "ParetoWeights",
    "ParetoLogWeights",
    "WeightModel",
    "WeightVector",
    "Moments",
    "LemmaRatios",
    "sample_weights",
    "analytic_moments",
    "truncated_second_moment",
    "truncated_first_moment_tail",
    "lemma1_ratio_check",
    "compute_norming",
    "model_to_config",
    "model_from_config",
]

_SEED_MASK = (1 << 64) - 1

# The fast graph sampler numbers the n(n-1)/2 vertex pairs in int64.
MAX_N = 1 << 32

# Exact totals: _SUM_BLOCK values at a time, each split into hi, its leading
# 27 bits (_HI_MASK on its int64 view), and lo = x - hi, which is exact.  The
# hi parts of one binade lie on one grid, as do the lo parts, so a sum of at
# most 2^16 of them is exact; math.fsum of these partial sums rounds the
# total once.
_SUM_BLOCK = 1 << 16
_HI_MASK = np.int64(-(1 << 26))


@dataclass(frozen=True)
class ConstantWeights:
    """Degenerate law: every vertex gets the value n*lam/(n - lam).

    The value is resolved only once the vertex count is known, which
    makes every pair probability exactly lam/n.  Requires 0 < lam < n at
    resolution time.
    """

    lam: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ParameterError(f"lam must be positive, got {self.lam}")

    def resolved_value(self, n: int) -> float:
        if not (0 < self.lam < n):
            raise ParameterError(
                f"constant weights need lam < n (lam={self.lam}, n={n})"
            )
        return n * self.lam / (n - self.lam)


@dataclass(frozen=True)
class ExponentialWeights:
    rate: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ParameterError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class LogNormalWeights:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class GammaWeights:
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ParameterError(
                f"shape and scale must be positive, got ({self.shape}, {self.scale})"
            )


@dataclass(frozen=True)
class ParetoWeights:
    """Pure power-law tail: P(W > x) = (x/xm)^(-alpha) for x >= xm."""

    alpha: float
    xm: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.xm >= sys.float_info.min):  # so every draw is normal
            raise ParameterError(
                f"alpha must be positive and xm a normal double, got ({self.alpha}, {self.xm})"
            )


@dataclass(frozen=True)
class ParetoLogWeights:
    """Power-law tail with a logarithmic slowly varying correction.

    Survival function P(W > x) = (x/xm)^(-alpha) * (1 + log(x/xm)) for
    x >= xm, normalized so P(W > xm) = 1.  The survival function is
    monotone only for alpha >= 1; alpha > 1 is required so the mean is
    finite.
    """

    alpha: float
    xm: float

    def __post_init__(self):
        if not (self.alpha > 1):
            raise ParameterError(
                f"log-corrected Pareto needs alpha > 1, got {self.alpha}"
            )
        if not (self.xm >= sys.float_info.min):  # so every draw is normal
            raise ParameterError(f"xm must be a positive normal double, got {self.xm}")

    def survival(self, w):
        w = np.asarray(w, dtype=float)
        out = np.where(w == np.inf, 0.0, 1.0)  # r^(-alpha) (1 + log r) is 0 * inf there
        mask = (w >= self.xm) & (w < np.inf)
        r = w[mask] / self.xm
        out[mask] = r ** (-self.alpha) * (1.0 + np.log(r))
        return out


WeightModel = Union[
    ConstantWeights,
    ExponentialWeights,
    LogNormalWeights,
    GammaWeights,
    ParetoWeights,
    ParetoLogWeights,
]


def _heavy_tailed(model: WeightModel) -> bool:
    """The stable limit's tail: P(W > x) = c x^(-alpha) h(x), c = xm^alpha, 1 < alpha < 2,
    with h = 1 (Pareto) or h(x) = 1 + log(x/xm) (ParetoLog)."""
    return isinstance(model, (ParetoWeights, ParetoLogWeights)) and 1.0 < model.alpha < 2.0


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A realized weight sample with exactly-summed totals.

    ``sum_l`` is the total weight and ``sum_sq`` the total of squares,
    both correctly rounded from exact per-binade sums (see ``_exact_sums``):
    they equal ``math.fsum`` of the values and of their squares bit for
    bit, so the relative error is one rounding at any sample size.
    """

    values: np.ndarray
    sum_l: float
    sum_sq: float

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("weights must form a non-empty 1-d array")
        if not np.all(arr > 0):
            raise ParameterError("all weights must be strictly positive")
        # positive weights are all finite exactly when both totals are
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sum_l, sum_sq = _exact_sums(arr)
            except OverflowError:
                sum_l = sum_sq = math.inf
        if not (math.isfinite(sum_l) and math.isfinite(sum_sq)):
            raise ParameterError("weights and their totals must be finite")
        return cls(arr, sum_l, sum_sq)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def _exact_sums(arr: np.ndarray) -> tuple[float, float]:
    """math.fsum of nonnegative arr and of arr * arr, from per-binade sums of the hi/lo split.

    The squares are formed a block at a time.  A total is not finite for an infinite
    value (its lo is inf - inf, a NaN), and inf or OverflowError if it overflows.
    """
    partials = [], []
    for k in range(0, len(arr), _SUM_BLOCK):
        block = arr[k : k + _SUM_BLOCK]
        for x, out in zip((block, block * block), partials):
            bits = x.view(np.int64)
            binade = bits >> 52  # subnormals (binade 0) lie on the grid of binade 1
            binade -= binade.min()
            hi = (bits & _HI_MASK).view(np.float64)
            out += np.bincount(binade, hi).tolist() + np.bincount(binade, x - hi).tolist()
    return math.fsum(partials[0]), math.fsum(partials[1])


class Moments(NamedTuple):
    ew: float
    var_w: float
    ew2: float


class LemmaRatios(NamedTuple):
    x: float
    trunc_second_exact: float  # E[W^2; W <= x]
    tail_first_exact: float  # E[W; W >= x]
    ratio_second: float
    ratio_tail_karamata: float
    ratio_tail_alt: float


@np.errstate(over="ignore")  # from_values refuses a draw that overflows
def sample_weights(model: WeightModel, n: int, seed: int) -> WeightVector:
    """Draw n i.i.d. weights; identical (model, n, seed) give identical output.

    The values are positive and finite, ``sum_l`` is finite and ``sum_sq`` is a normal
    double; a draw that cannot meet that raises ``ParameterError``.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 vertices, got n={n}")
    if n > MAX_N:
        raise SizeError(f"vertex counts are capped at n={MAX_N}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    if isinstance(model, ConstantWeights):
        values = np.full(n, model.resolved_value(n))
    elif isinstance(model, ExponentialWeights):
        values = rng.standard_exponential(n)
        values /= model.rate
    elif isinstance(model, LogNormalWeights):
        values = rng.lognormal(model.mu, model.sigma, n)
    elif isinstance(model, GammaWeights):
        values = rng.gamma(model.shape, model.scale, n)
    elif isinstance(model, ParetoWeights):
        values = rng.random(n)
        np.subtract(1.0, values, out=values)
        values **= -1.0 / model.alpha
        values *= model.xm
    elif isinstance(model, ParetoLogWeights):
        # log(W/xm) = (E1 + B E2)/alpha, B ~ Bernoulli(1/alpha) (see _log_gamma_mixture), and
        # one uniform V on (0, 1] gives B E2 = max(0, -log(alpha V)): V <= 1/alpha has
        # probability 1/alpha, and given that, alpha V is uniform.  The n uniforms come
        # first, then the n exponentials, one block at a time, so the draw holds one array.
        values = rng.random(n)
        np.subtract(1.0, values, out=values)
        np.log(values, out=values)
        values += math.log(model.alpha)
        np.minimum(values, 0.0, out=values)
        e1 = np.empty(min(n, _SUM_BLOCK))
        for k in range(0, n, _SUM_BLOCK):
            block = values[k : k + _SUM_BLOCK]
            np.subtract(rng.standard_exponential(out=e1[: len(block)]), block, out=block)
        del e1
        values /= model.alpha
        np.exp(values, out=values)
        values *= model.xm
    else:
        raise UnsupportedModelError(f"unknown weight model {model!r}")
    weights = WeightVector.from_values(values)
    if weights.sum_sq < sys.float_info.min:  # below it the squares lose digits or vanish
        raise ParameterError(f"weights' sum of squares {weights.sum_sq!r} is not a normal double")
    return weights


def analytic_moments(model: WeightModel, n: int | None = None) -> Moments:
    """Closed-form (EW, Var W, EW^2); infinite entries are math.inf.

    Constant weights are resolved at the vertex count, so ``n`` is
    required for that model and ignored otherwise.  A moment that the
    law has finite but a double cannot hold raises OverflowError.  A Var W
    that EW^2 - EW * EW rounds below 0 is kept at 0.
    """
    if isinstance(model, ConstantWeights):
        if n is None:
            raise ParameterError("constant weights need n to resolve the value")
        v = model.resolved_value(n)
        return Moments(v, 0.0, v * v)
    if isinstance(model, ExponentialWeights):
        ew = _finite(model, "E[W]", lambda: 1.0 / model.rate)
        return Moments(ew, ew * ew, _finite(model, "E[W^2]", lambda: 2.0 * ew * ew))
    if isinstance(model, LogNormalWeights):
        ew = _finite(model, "E[W]", lambda: math.exp(model.mu + 0.5 * model.sigma**2))
        ew2 = _finite(model, "E[W^2]", lambda: math.exp(2 * model.mu + 2 * model.sigma**2))
        return Moments(ew, max(ew2 - ew * ew, 0.0), ew2)
    if isinstance(model, GammaWeights):
        ew = _finite(model, "E[W]", lambda: model.shape * model.scale)
        var = _finite(model, "Var W", lambda: model.shape * model.scale**2)
        return Moments(ew, var, _finite(model, "E[W^2]", lambda: var + ew * ew))
    if isinstance(model, ParetoWeights):
        a, xm = model.alpha, model.xm
        ew = _finite(model, "E[W]", lambda: a * xm / (a - 1.0)) if a > 1 else math.inf
        ew2 = _finite(model, "E[W^2]", lambda: a * xm * xm / (a - 2.0)) if a > 2 else math.inf
        var = max(ew2 - ew * ew, 0.0) if math.isfinite(ew2) else math.inf
        return Moments(ew, var, ew2)
    if isinstance(model, ParetoLogWeights):
        a, xm = model.alpha, model.xm
        s = 1.0 / (a - 1.0)
        ew = _finite(model, "E[W]", lambda: xm * (1.0 + s + s * s))
        if a > 2:
            q = 1.0 / (a - 2.0)
            ew2 = _finite(model, "E[W^2]", lambda: xm * xm * (1.0 + 2.0 * q + 2.0 * q * q))
            var = max(ew2 - ew * ew, 0.0)
        else:
            ew2 = var = math.inf
        return Moments(ew, var, ew2)
    raise UnsupportedModelError(f"unknown weight model {model!r}")


def _finite(model: WeightModel, quantity: str, closed_form) -> float:
    """``closed_form()``, which the law has finite; OverflowError naming it if it overflows."""
    try:
        value = closed_form()
    except OverflowError:  # math.exp or ** beyond the largest double
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"{quantity} of {model_to_config(model)} overflows a double")
    return value


def truncated_second_moment(model: WeightModel, x: float) -> float:
    """E[W^2; W <= x] = xm^2 sum_k w_k alpha^k int_0^c s^(k-1) e^((2-alpha) s) ds / (k-1)!
    over the log-weight mixture {k: w_k}, c = log(x/xm); only the power-law models have it."""
    if not (x > 0):
        raise ParameterError(f"truncation point must be positive, got {x}")
    mixture = _log_gamma_mixture(model)
    a, xm = model.alpha, model.xm
    if x <= xm:
        return 0.0
    c = _log_ratio(x, xm)
    quantity = f"E[W^2; W <= {x}]"
    try:
        return _finite(model, quantity, lambda: xm * (xm * _sum_below(mixture, a, c)))
    except OverflowError:  # e^((2-alpha)c) overflows; xm^2 e^((2-alpha)c) may not
        log_xm2 = 2.0 * math.log(xm)
        return _finite(model, quantity, lambda: _sum_below(mixture, a, c, log_xm2))


def truncated_first_moment_tail(model: WeightModel, x: float) -> float:
    """E[W; W >= x] = xm sum_k w_k (alpha/(alpha-1))^k Q(k, (alpha-1) c) over the log-weight
    mixture, c = log(max(x, xm)/xm), Q as in _gamma_upper; infinite for Pareto alpha <= 1."""
    if not (x > 0):
        raise ParameterError(f"truncation point must be positive, got {x}")
    mixture = _log_gamma_mixture(model)
    a, xm = model.alpha, model.xm
    if a <= 1:
        return math.inf
    c = _log_ratio(max(x, xm), xm)
    return _finite(model, f"E[W; W >= {x}]", lambda: xm * _sum_above(mixture, a, c))


def _pair_moments(model: WeightModel, x: float) -> tuple[float, float]:
    """E[(W1 W2)^2; W1 W2 <= x] and x E[W1 W2; W1 W2 > x] of two i.i.d. weights.

    T = log(W1 W2 / xm^2) is the two-factor log-weight mixture: Gamma(k, alpha) over
    k = 2 (Pareto) or k = 2, 3, 4 (ParetoLog), cut at c = log(x / xm^2), so the two
    are xm^4 E[e^(2T); T <= c] and x xm^2 E[e^T; T > c].  Only alpha > 1 qualifies.
    """
    mixture = _log_gamma_mixture(model, 2)
    a, xm = model.alpha, model.xm
    if not a > 1.0:
        raise UnsupportedModelError("pair moments need a power-law tail with alpha > 1")
    xm4 = xm**4
    if xm4 < sys.float_info.min:
        raise ArithmeticError(f"xm**4 of {model_to_config(model)} is below the smallest normal "
                              "double, so the pair moments underflow")
    c = max(math.log(x / (xm * xm)), 0.0)
    return xm4 * _sum_below(mixture, a, c), x * xm**2 * _sum_above(mixture, a, c)


def _sum_below(mixture: dict[int, float], a: float, c: float, log_scale: float = 0.0) -> float:
    """e^s E[e^(2T); T <= c], T of the mixture {k: w_k} of Gamma(k, alpha), s = ``log_scale``."""
    return sum(w * a**k * _exp_gamma_below(k, 2.0 - a, c, log_scale) for k, w in mixture.items())


def _sum_above(mixture: dict[int, float], a: float, c: float) -> float:
    """E[e^T; T > c], T as in _sum_below."""
    b = a - 1.0
    return sum(w * (a / b) ** k * _gamma_upper(k, b * c) for k, w in mixture.items())


def _log_gamma_mixture(model: WeightModel, factors: int = 1) -> dict[int, float]:
    """{k: weight}: log(W_1 ... W_f / xm^f) of f = ``factors`` i.i.d. weights is that
    mixture of Gamma(k, alpha) laws (shape k, rate alpha).

    At s = log(w/xm), Pareto's survival e^(-alpha s) is that of Exp(alpha), and ParetoLog's
    e^(-alpha s) (1 + s) = p e^(-alpha s) + q e^(-alpha s) (1 + alpha s), p = (alpha-1)/alpha
    and q = 1/alpha, that of p Exp(alpha) + q Gamma(2, alpha).
    """
    if isinstance(model, ParetoWeights):
        return {factors: 1.0}
    if not isinstance(model, ParetoLogWeights):
        raise UnsupportedModelError(f"no closed-form truncated moments for {model!r}")
    p, q = (model.alpha - 1.0) / model.alpha, 1.0 / model.alpha
    return {1: p, 2: q} if factors == 1 else {2: p * p, 3: 2.0 * p * q, 4: q * q}


def _log_ratio(x: float, xm: float) -> float:
    """log(x/xm) for x >= xm, also where x/xm overflows."""
    r = x / xm
    return math.log(r) if r < math.inf else math.log(x) - math.log(xm)


def _exp_gamma_below(k: int, b: float, c: float, log_scale: float = 0.0) -> float:
    """e^s int_0^c t^(k-1) e^(b t) dt / (k-1)! for c >= 0, any sign of b, s = ``log_scale``.

    The scale enters the closed form's exponent, so e^(bc) may overflow where e^(s + bc)
    does not; at s = 0 nothing is rounded differently.
    """
    x = b * c
    if abs(x) < 2.0:  # the closed form cancels near x = 0; this series has no cancellation there
        term, total = 1.0, 0.0
        for i in range(40):
            total += term / (k + i)
            term *= x / (i + 1)
        return math.exp(log_scale) * c**k / math.factorial(k - 1) * total
    poly = sum((-x) ** j / math.factorial(j) for j in range(k))
    return (-1) ** (k - 1) * (math.exp(x + log_scale) * poly - math.exp(log_scale)) / b**k


def _gamma_upper(k: int, y: float) -> float:
    """Q(k, y) = e^(-y) sum_{j<k} y^j / j!, the Gamma(k, 1) survival at y."""
    return math.exp(-y) * sum(y**j / math.factorial(j) for j in range(k))


def lemma1_ratio_check(model: WeightModel, x_grid) -> list[LemmaRatios]:
    """Exact truncated moments against their regular-variation asymptotes.

    For a tail c x^(-alpha) h(x) with alpha in (1, 2) the asymptotes are

    * E[W^2; W <= x]  ~  c*alpha/(2-alpha) * x^(2-alpha) * h(x)
    * E[W;  W >= x]   ~  c*alpha/(alpha-1) * x^(1-alpha) * h(x)

    The second constant is sometimes printed as c*(2-alpha)/(alpha-1);
    that variant disagrees with the exact closed form (for a pure
    power-law tail the ratio is exactly alpha/(2-alpha)), so it is
    reported as ``ratio_tail_alt`` for flagging rather than asserted.
    The tail form holds only from xm on, so every x must be at least xm.
    """
    if not _heavy_tailed(model):
        raise UnsupportedModelError("lemma 1 is stated for heavy tails with alpha in (1, 2)")
    a, xm = model.alpha, model.xm
    c = _finite(model, "xm**alpha", lambda: xm**a)
    is_pareto = isinstance(model, ParetoWeights)
    out = []
    for x in np.asarray(x_grid, dtype=float):
        x = float(x)
        if not math.isfinite(x):
            raise ParameterError(f"truncation point must be finite, got {x}")
        if x < xm:
            raise ParameterError(f"lemma 1 needs truncation points x >= xm = {xm}, got {x}")
        with np.errstate(over="ignore", divide="ignore"):  # an infinite h is refused below
            h = 1.0 if is_pareto else float(1.0 + np.log(np.asarray(x, dtype=float) / xm))
        exact2 = truncated_second_moment(model, x)
        exact_tail = truncated_first_moment_tail(model, x)
        asym2 = c * a / (2.0 - a) * x ** (2.0 - a) * h
        karamata = c * a / (a - 1.0) * x ** (1.0 - a) * h
        alt = c * (2.0 - a) / (a - 1.0) * x ** (1.0 - a) * h
        if not all(0.0 < abs(v) < math.inf for v in (asym2, karamata, alt)):
            raise ParameterError(f"an asymptote underflows to 0 or overflows at x={x}")
        out.append(LemmaRatios(x, exact2, exact_tail, exact2 / asym2, exact_tail / karamata,
                               exact_tail / alt))
    return out


def compute_norming(model: WeightModel, n: int) -> float:
    """The unique large root a > xm of a^2 = n * E[W^2; W <= a].

    The map a -> n*E[W^2; W <= a]/a^2 rises from 0 at the support edge
    and then decreases to 0, so the equation can have a spurious small
    root near xm; the bracket is therefore walked down from above to pin
    the root on the decreasing branch, which is the one that grows like
    n^(1/alpha).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    if not _heavy_tailed(model):
        raise UnsupportedModelError(
            "norming sequence is defined for heavy-tailed models with alpha in (1, 2)"
        )
    alpha, xm = model.alpha, model.xm
    c = _finite(model, "xm**alpha", lambda: xm**alpha)
    where = f"for {model_to_config(model)} at n={n}"
    if xm * xm < sys.float_info.min:  # both sides of the equation underflow to 0 near the root
        raise ArithmeticError(f"the norming a_n {where} underflows: xm**2 is below the smallest "
                              "normal double")

    def gap(a: float) -> float:
        return a * a - n * truncated_second_moment(model, a)

    guess = (n * c * alpha / (2.0 - alpha)) ** (1.0 / alpha)
    hi = max(2.0 * xm, guess)
    for _ in range(200):
        if gap(hi) > 0:
            break
        hi *= 2.0
    else:
        raise BracketingError(f"no positive gap found while widening the bracket {where}")
    lo = 0.5 * hi
    while gap(lo) > 0:
        hi = lo
        lo *= 0.5
        if lo <= xm * (1.0 + 1e-12):
            raise BracketingError(f"a^2 = n E[W^2; W <= a] has no root above xm {where}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


_MODEL_TAGS = {
    "constant": ConstantWeights,
    "exponential": ExponentialWeights,
    "lognormal": LogNormalWeights,
    "gamma": GammaWeights,
    "pareto": ParetoWeights,
    "paretolog": ParetoLogWeights,
}

_FIELD_ALIASES = {"lambda": "lam"}


def model_to_config(model: WeightModel) -> dict:
    """JSON-friendly dict with a ``kind`` tag plus the model parameters."""
    for tag, cls in _MODEL_TAGS.items():
        if isinstance(model, cls):
            params = {k: getattr(model, k) for k in cls.__dataclass_fields__}
            return {"kind": tag, **params}
    raise UnsupportedModelError(f"unknown weight model {model!r}")


def model_from_config(config: dict) -> WeightModel:
    """Inverse of :func:`model_to_config`; raises ParameterError on bad input."""
    try:
        kind = config["kind"]
    except (TypeError, KeyError):
        raise ParameterError("model config needs a 'kind' tag") from None
    cls = _MODEL_TAGS.get(str(kind).lower())
    if cls is None:
        raise ParameterError(f"unknown model kind {kind!r}")
    if any(isinstance(v, bool) or not isinstance(v, (int, float))
           for k, v in config.items() if k != "kind"):
        raise ParameterError(f"parameters of {kind} must be numbers, got {config}")
    params = {
        _FIELD_ALIASES.get(k, k): float(v) for k, v in config.items() if k != "kind"
    }
    if len(params) < len(config) - 1:
        raise ParameterError(f"two keys of {sorted(config)} name the same parameter of {kind}")
    if not all(math.isfinite(v) for v in params.values()):
        raise ParameterError(f"parameters of {kind} must be finite, got {params}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {kind}: {exc}") from None
