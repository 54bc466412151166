"""Vertex-weight models: sampling, moments, tail asymptotics, norming.

A weight model is a small frozen dataclass describing a positive law.
The module exposes:

* ``sample_weights`` -- n i.i.d. draws packaged as a :class:`WeightVector`
  with exactly-summed totals,
* ``analytic_moments`` -- closed-form mean / variance / second moment,
* ``truncated_second_moment`` / ``truncated_first_moment_tail`` -- the
  truncated moments E[W^2; W <= x] and E[W; W >= x], in closed form for
  the two power-law models, the only ones lemma 1 and the norming take,
* ``lemma1_ratio_check`` -- exact truncated moments against their
  regular-variation asymptotes,
* ``compute_norming`` -- the scaling sequence a_n defined as the root of
  a^2 = n * E[W^2; W <= a].

The module needs only numpy.
"""

from __future__ import annotations

import math
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
    "TailParams",
    "Moments",
    "LemmaRatios",
    "sample_weights",
    "analytic_moments",
    "truncated_second_moment",
    "truncated_first_moment_tail",
    "tail_params",
    "lemma1_ratio_check",
    "compute_norming",
    "model_to_config",
    "model_from_config",
]

_SEED_MASK = (1 << 64) - 1

# The fast graph sampler numbers the n(n-1)/2 vertex pairs in int64.
MAX_N = 1 << 32

# ParetoLog draws: Newton stops once twice the error a step leaves is below
# _NEWTON_TOL (the cap only bounds a stall); 2^27 + 1 splits a double in two.
# Draws are inverted _NEWTON_BLOCK at a time, so that the dozen temporaries
# of a step stay in cache (twice as fast at n = 1e6) and peak memory is O(n).
_NEWTON_TOL = 2.0 ** -55
_NEWTON_MAX_STEPS = 40
_NEWTON_BLOCK = 1 << 14
_DEKKER_SPLIT = 2.0 ** 27 + 1.0

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
        if not (self.alpha > 0 and self.xm > 0):
            raise ParameterError(
                f"alpha and xm must be positive, got ({self.alpha}, {self.xm})"
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
        if not (self.xm > 0):
            raise ParameterError(f"xm must be positive, got {self.xm}")

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


@dataclass(frozen=True)
class TailParams:
    """Parameters of a regularly varying tail P(W > x) = c x^(-alpha) h(x)."""

    alpha: float
    c: float
    h_kind: str  # "constant" | "logarithmic"
    x0: float = 1.0  # reference scale of the logarithmic factor

    def h(self, x):
        if self.h_kind == "constant":
            return np.ones_like(np.asarray(x, dtype=float))
        return 1.0 + np.log(np.asarray(x, dtype=float) / self.x0)


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


def sample_weights(model: WeightModel, n: int, seed: int) -> WeightVector:
    """Draw n i.i.d. weights; identical (model, n, seed) give identical output."""
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
        with np.errstate(over="ignore"):  # from_values refuses a draw that overflows
            values **= -1.0 / model.alpha
        values *= model.xm
    elif isinstance(model, ParetoLogWeights):
        values = rng.random(n)
        np.subtract(1.0, values, out=values)
        for k in range(0, n, _NEWTON_BLOCK):  # in place, block by block
            values[k : k + _NEWTON_BLOCK] = _pareto_log_inverse_survival(
                model, values[k : k + _NEWTON_BLOCK]
            )
    else:
        raise UnsupportedModelError(f"unknown weight model {model!r}")
    return WeightVector.from_values(values)


def _pareto_log_inverse_survival(model: ParetoLogWeights, u: np.ndarray) -> np.ndarray:
    """Solve survival(x) = u for each u in (0, 1] by Newton's method.

    With s = log(x/xm), g(s) = log1p(s) - alpha s - log u is decreasing
    and concave, and g(s0) >= 0 at s0 = (log1p(-log u / alpha) - log u) / alpha,
    so after the first step the iterates fall to the root monotonically.
    They stop once the error a step leaves, step^2 |g''| / (2 |g'|), is
    below 2^-56 for every u: four steps at alpha = 1.5, ten at 1.0001.
    s then carries about one ulp of rounding of alpha s, 1e-13 in
    survival(x) at u ~ 1e-300.  A last step with alpha s formed exactly
    (Dekker's two-product), applied as the factor (1 + delta) on e^s,
    brings survival(x)/u to 1 within about 6e-14, and x(1) = xm exactly.
    """
    a = model.alpha
    log_u = np.log(u)
    s = (np.log1p(log_u / -a) - log_u) / a
    for _ in range(_NEWTON_MAX_STEPS):
        t = 1.0 + s
        slope = a - 1.0 / t  # -g'(s) > 0
        step = (np.log1p(s) - a * s - log_u) / slope
        s += step
        if np.max(step * step / (slope * t * t)) <= _NEWTON_TOL:
            break
    c = _DEKKER_SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _DEKKER_SPLIT * s
    s_hi = c - (c - s)
    s_lo = s - s_hi
    hi = a * s
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo  # a s = hi + lo
    delta = (((-log_u - hi) - lo) + np.log1p(s)) / (a - 1.0 / (1.0 + s))
    with np.errstate(over="ignore"):  # from_values refuses a draw that overflows
        return model.xm * np.exp(s) * (1.0 + delta)


def analytic_moments(model: WeightModel, n: int | None = None) -> Moments:
    """Closed-form (EW, Var W, EW^2); infinite entries are math.inf.

    Constant weights are resolved at the vertex count, so ``n`` is
    required for that model and ignored otherwise.  A moment that the
    law has finite but a double cannot hold raises OverflowError.
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
        return Moments(ew, ew2 - ew * ew, ew2)
    if isinstance(model, GammaWeights):
        ew = _finite(model, "E[W]", lambda: model.shape * model.scale)
        var = _finite(model, "Var W", lambda: model.shape * model.scale**2)
        return Moments(ew, var, _finite(model, "E[W^2]", lambda: var + ew * ew))
    if isinstance(model, ParetoWeights):
        a, xm = model.alpha, model.xm
        ew = _finite(model, "E[W]", lambda: a * xm / (a - 1.0)) if a > 1 else math.inf
        ew2 = _finite(model, "E[W^2]", lambda: a * xm * xm / (a - 2.0)) if a > 2 else math.inf
        var = ew2 - ew * ew if math.isfinite(ew2) else math.inf
        return Moments(ew, var, ew2)
    if isinstance(model, ParetoLogWeights):
        a, xm = model.alpha, model.xm
        s = 1.0 / (a - 1.0)
        ew = _finite(model, "E[W]", lambda: xm * (1.0 + s + s * s))
        if a > 2:
            q = 1.0 / (a - 2.0)
            ew2 = _finite(model, "E[W^2]", lambda: xm * xm * (1.0 + 2.0 * q + 2.0 * q * q))
            var = ew2 - ew * ew
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
    """E[W^2; W <= x] in closed form; only the power-law models have it."""
    if not (x > 0):
        raise ParameterError(f"truncation point must be positive, got {x}")
    moment = f"E[W^2; W <= {x}]"
    if isinstance(model, ParetoWeights):
        a, xm = model.alpha, model.xm
        if x <= xm:
            return 0.0
        if a == 2.0:
            return _finite(model, moment, lambda: 2.0 * xm * xm * math.log(x / xm))
        return _finite(model, moment,
                       lambda: a * xm**a * (x ** (2.0 - a) - xm ** (2.0 - a)) / (2.0 - a))
    if isinstance(model, ParetoLogWeights):
        a, xm = model.alpha, model.xm
        if x <= xm:
            return 0.0
        r = x / xm
        if a == 2.0:
            ia = math.log(r)
            ib = 0.5 * math.log(r) ** 2
        else:
            ia = (r ** (2.0 - a) - 1.0) / (2.0 - a)
            ib = (r ** (2.0 - a) * ((2.0 - a) * math.log(r) - 1.0) + 1.0) / (2.0 - a) ** 2
        return _finite(model, moment, lambda: xm * xm * ((a - 1.0) * ia + a * ib))
    raise UnsupportedModelError(f"no closed-form truncated moments for {model!r}")


def truncated_first_moment_tail(model: WeightModel, x: float) -> float:
    """E[W; W >= x] in closed form; only the power-law models have it."""
    if not (x > 0):
        raise ParameterError(f"truncation point must be positive, got {x}")
    moment = f"E[W; W >= {x}]"
    if isinstance(model, ParetoWeights):
        a, xm = model.alpha, model.xm
        if a <= 1:
            return math.inf
        return _finite(model, moment, lambda: a * xm**a / (a - 1.0) * max(x, xm) ** (1.0 - a))
    if isinstance(model, ParetoLogWeights):
        a, xm = model.alpha, model.xm
        r = max(x, xm) / xm
        lr = math.log(r)
        head = r ** (1.0 - a) * (1.0 + lr)
        tail = r ** (1.0 - a) / (a - 1.0) + r ** (1.0 - a) * ((a - 1.0) * lr + 1.0) / (a - 1.0) ** 2
        return _finite(model, moment, lambda: xm * (head + tail))
    raise UnsupportedModelError(f"no closed-form truncated moments for {model!r}")


def tail_params(model: WeightModel) -> TailParams | None:
    """Tail descriptor for the heavy-tailed models, None otherwise."""
    if isinstance(model, (ParetoWeights, ParetoLogWeights)):
        c = _finite(model, "xm**alpha", lambda: model.xm**model.alpha)
        h_kind = "constant" if isinstance(model, ParetoWeights) else "logarithmic"
        return TailParams(model.alpha, c, h_kind, model.xm)
    return None


def lemma1_ratio_check(model: WeightModel, x_grid) -> list[LemmaRatios]:
    """Exact truncated moments against their regular-variation asymptotes.

    For a tail c x^(-alpha) h(x) with alpha in (1, 2) the asymptotes are

    * E[W^2; W <= x]  ~  c*alpha/(2-alpha) * x^(2-alpha) * h(x)
    * E[W;  W >= x]   ~  c*alpha/(alpha-1) * x^(1-alpha) * h(x)

    The second constant is sometimes printed as c*(2-alpha)/(alpha-1);
    that variant disagrees with the exact closed form (for a pure
    power-law tail the ratio is exactly alpha/(2-alpha)), so it is
    reported as ``ratio_tail_alt`` for flagging rather than asserted.
    """
    tp = tail_params(model)
    if tp is None or not (1.0 < tp.alpha < 2.0):
        raise UnsupportedModelError("lemma 1 is stated for heavy tails with alpha in (1, 2)")
    out = []
    for x in np.asarray(x_grid, dtype=float):
        x = float(x)
        if not math.isfinite(x):
            raise ParameterError(f"truncation point must be finite, got {x}")
        h = float(tp.h(x))
        exact2 = truncated_second_moment(model, x)
        exact_tail = truncated_first_moment_tail(model, x)
        asym2 = tp.c * tp.alpha / (2.0 - tp.alpha) * x ** (2.0 - tp.alpha) * h
        karamata = tp.c * tp.alpha / (tp.alpha - 1.0) * x ** (1.0 - tp.alpha) * h
        alt = tp.c * (2.0 - tp.alpha) / (tp.alpha - 1.0) * x ** (1.0 - tp.alpha) * h
        if asym2 == 0.0 or karamata == 0.0 or alt == 0.0:
            raise ParameterError(f"an asymptote underflows to 0 at x={x}")
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
    tp = tail_params(model)
    if tp is None or not (1.0 < tp.alpha < 2.0):
        raise UnsupportedModelError(
            "norming sequence is defined for heavy-tailed models with alpha in (1, 2)"
        )
    xm = model.xm

    def gap(a: float) -> float:
        return a * a - n * truncated_second_moment(model, a)

    guess = (n * tp.c * tp.alpha / (2.0 - tp.alpha)) ** (1.0 / tp.alpha)
    hi = max(2.0 * xm, guess)
    for _ in range(200):
        if gap(hi) > 0:
            break
        hi *= 2.0
    else:
        raise BracketingError("no positive gap found while widening the bracket")
    lo = 0.5 * hi
    while gap(lo) > 0:
        hi = lo
        lo *= 0.5
        if lo <= xm * (1.0 + 1e-12):
            raise BracketingError("no sign change above the support edge")
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
