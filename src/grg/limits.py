"""Experiment orchestration: limit-law runs and the proof audit.

Three Monte Carlo experiments and one deterministic audit:

* ``run_gaussian_limit`` -- the centered edge count over
  sqrt(n*(2*EW + Var W)) against the standard normal (finite second
  moment required).
* ``run_stable_limit`` -- for heavy tails with index alpha in (1, 2),
  the edge statistic (2*E_n - n*EW)/a_n against the weight-sum
  statistic (L_n - n*EW)/a_n from the same replications; both converge
  to the same stable law, so a two-sample KS needs no knowledge of its
  scale or skewness.  Their difference splits into the conditional
  fluctuation 2*E_n - E[2*E_n | W] and the conditional-mean deficit
  L_n - E[2*E_n | W].  Both are o(a_n), but the deficit decays only like
  n^(-1/6) log n at alpha = 1.5, so each run computes it exactly per
  replication and also reports the KS of the compensated statistic,
  the edge statistic plus the deficit.
* ``run_lln`` -- E_n/n against EW/2.
* ``run_proof_audit`` -- the deterministic bound terms that control the
  characteristic-function expansion of the edge count, evaluated on
  sampled weight vectors, and two exact pair moments of the weight law;
  all of them must drift to zero as n grows.

Each run is ``simulate`` (replications -> per-n table) followed by
``derive_result`` (table -> result), the only place that computes KS
tests, deficits and trends; ``grg report`` calls it on the table that
it reads back from a finished run.

Replications are independent tasks seeded by ``derive_seed`` from the
master seed and reduced in replication order, so results are identical
for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, HypothesisError
from .graph import conditional_edge_mean, pair_power_sums, sample_graph_fast, sample_graph_naive
from .seeding import derive_seed
from .stats import KsResult, ks_one_sample, ks_two_sample, normal_cdf
from .weights import (
    WeightModel,
    WeightVector,
    _pdf_at,
    _quad,
    analytic_moments,
    compute_norming,
    sample_weights,
    tail_params,
    truncated_first_moment_tail,
    truncated_second_moment,
)

__all__ = [
    "ExperimentConfig",
    "NormalizedSample",
    "AuditTerms",
    "LimitResult",
    "LlnResult",
    "AuditResult",
    "normal_limit_statistic",
    "stable_limit_statistic",
    "run_gaussian_limit",
    "run_stable_limit",
    "run_lln",
    "run_proof_audit",
    "run_experiment",
    "simulate",
    "derive_result",
    "replicate_edges",
    "replication_weights",
    "audit_pair_moments",
    "proof_audit",
]

EXPERIMENT_KINDS = ("T1", "T2", "LLN", "AUDIT")
AUDIT_TERM_NAMES = ("selfloop_bound", "i1_bound", "i3_bound", "t_a", "t_b", "t_c", "t_d")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit."""

    model: WeightModel
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    theorem: str  # one of EXPERIMENT_KINDS
    sampler: str = "fast"
    t_values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.theorem not in EXPERIMENT_KINDS:
            raise ConfigError(f"theorem must be one of {EXPERIMENT_KINDS}, got {self.theorem!r}")
        if self.sampler not in ("naive", "fast"):
            raise ConfigError(f"sampler must be 'naive' or 'fast', got {self.sampler!r}")
        if not self.n_grid or any(int(n) < 2 for n in self.n_grid):
            raise ConfigError("n_grid must be non-empty with every n >= 2")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.theorem in ("T1", "T2") and self.replications < 100:
            raise ConfigError("limit-law experiments need at least 100 replications")
        if self.theorem == "AUDIT" and not self.t_values:
            raise ConfigError("audit needs at least one t value")
        if not all(math.isfinite(t) for t in self.t_values):
            raise ConfigError(f"t_values must be finite, got {self.t_values}")


@dataclass(frozen=True, eq=False)
class NormalizedSample:
    """One normalized statistic per replication at a fixed n."""

    n: int
    values: np.ndarray
    norming_center: float
    norming_scale: float


@dataclass(frozen=True)
class AuditTerms:
    """Bound terms of the edge-count characteristic-function expansion.

    The double sums run over all ordered pairs including the diagonal.
    ``selfloop_bound`` controls the diagonal correction, ``i1_bound``
    and ``i3_bound`` the cubic and remainder terms of the expansion
    (with the remainder coefficient bounded by 1/2), and t_a..t_d are
    the four pair-sum terms that must vanish for the heavy-tailed limit:

        t_a = (1/a_n)   * sum W_i^2 / L
        t_b = (1/a_n^2) * sum_ij W_i W_j / (L + W_i W_j)
        t_c = (1/a_n)   * sum_ij W_i^2 W_j^2 / (L (L + W_i W_j))
        t_d = (1/a_n^2) * sum_ij W_i^2 W_j^2 / (L + W_i W_j)^2
    """

    n: int
    t: float
    c_n: float
    a_n: float
    selfloop_bound: float
    i1_bound: float
    i3_bound: float
    t_a: float
    t_b: float
    t_c: float
    t_d: float
    remainder_coeff_bound: float = 0.5


def normal_limit_statistic(edge_count, n: int, ew: float, var_w: float):
    """(2*E_n - n*EW) / sqrt(n*(2*EW + Var W)); affine in the edge count."""
    denom_sq = n * (2.0 * ew + var_w)
    if not (denom_sq > 0):
        raise DomainError(f"degenerate denominator n*(2EW+VarW) = {denom_sq}")
    out = (2.0 * np.asarray(edge_count, dtype=float) - n * ew) / math.sqrt(denom_sq)
    return float(out) if out.ndim == 0 else out


def stable_limit_statistic(edge_count, n: int, ew: float, a_n: float):
    """(2*E_n - n*EW) / a_n; affine in the edge count."""
    if not (a_n > 0):
        raise DomainError(f"norming constant must be positive, got {a_n}")
    out = (2.0 * np.asarray(edge_count, dtype=float) - n * ew) / a_n
    return float(out) if out.ndim == 0 else out


def replication_weights(model: WeightModel, n: int, master_seed: int, rep: int) -> WeightVector:
    """The weights of replication ``rep`` at ``n``, drawn from the run's own seed."""
    return sample_weights(model, n, derive_seed(master_seed, 2 * rep))


def _edge_stats_one(args):
    """Edge count (-1 with no sampler), L_n and maybe E[E_n | W] of one replication."""
    model, n, sampler_tag, master_seed, rep, with_mean = args
    wv = replication_weights(model, n, master_seed, rep)
    edge_count = -1
    if sampler_tag is not None:
        sampler = sample_graph_fast if sampler_tag == "fast" else sample_graph_naive
        edge_count = sampler(wv, derive_seed(master_seed, 2 * rep + 1)).edge_count
    mean = conditional_edge_mean(wv) if with_mean else math.nan
    return edge_count, wv.sum_l, mean


def _map_ordered(fn, args_list, threads: int):
    if threads == 1 or len(args_list) < 2:
        return [fn(a) for a in args_list]
    workers = (os.cpu_count() or 1) if threads == 0 else threads
    chunk = max(1, len(args_list) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


def replicate_edges(config: ExperimentConfig, n: int, threads: int, sampler, with_mean: bool):
    """Per-replication edge counts, weight sums and conditional edge means.

    The means are NaN unless ``with_mean``.  With ``sampler=None`` only
    the weights are drawn, from the run's own seeds, and every edge
    count is -1.
    """
    args = [
        (config.model, n, sampler, config.master_seed, rep, with_mean)
        for rep in range(config.replications)
    ]
    edge_counts, weight_sums, cond_means = zip(*_map_ordered(_edge_stats_one, args, threads))
    return np.array(edge_counts, dtype=np.int64), np.array(weight_sums), np.array(cond_means)


@dataclass(eq=False)
class GaussianLimitRun:
    n: int
    sample: NormalizedSample
    edge_counts: np.ndarray
    weight_sums: np.ndarray
    ks: KsResult

    @property
    def statistic(self) -> np.ndarray:
        return self.sample.values


def _gaussian_run(config, n, edge_counts, weight_sums, cond_means) -> GaussianLimitRun:
    mom = analytic_moments(config.model, n)
    values = normal_limit_statistic(edge_counts, n, mom.ew, mom.var_w)
    sample = NormalizedSample(n, values, n * mom.ew, math.sqrt(n * (2.0 * mom.ew + mom.var_w)))
    return GaussianLimitRun(n, sample, edge_counts, weight_sums, ks_one_sample(values, normal_cdf))


@dataclass(eq=False)
class StableLimitRun:
    """One n of a stable-limit run.

    ``ks`` compares the weight-sum and edge statistics as they are.
    ``deficits`` holds (L_n - 2 E[E_n | W]) / a_n per replication, and
    ``ks_compensated`` compares the weight-sum statistic with the edge
    statistic plus that deficit.
    """

    n: int
    a_n: float
    weight_sample: NormalizedSample
    edge_sample: NormalizedSample
    edge_counts: np.ndarray
    weight_sums: np.ndarray
    ks: KsResult
    deficits: np.ndarray
    ks_compensated: KsResult

    @property
    def statistic(self) -> np.ndarray:
        return self.edge_sample.values


def _stable_run(config, n, edge_counts, weight_sums, cond_means) -> StableLimitRun:
    ew = analytic_moments(config.model).ew
    a_n = compute_norming(config.model, n)
    wstat = (weight_sums - n * ew) / a_n
    estat = stable_limit_statistic(edge_counts, n, ew, a_n)
    deficits = (weight_sums - 2.0 * cond_means) / a_n
    weight_sample = NormalizedSample(n, wstat, n * ew, a_n)
    edge_sample = NormalizedSample(n, estat, n * ew, a_n)
    return StableLimitRun(n, a_n, weight_sample, edge_sample, edge_counts, weight_sums,
                          ks_two_sample(wstat, estat), deficits,
                          ks_two_sample(wstat, estat + deficits))


@dataclass(eq=False)
class LlnRun:
    n: int
    mean_ratio: float
    std_ratio: float
    target: float
    edge_counts: np.ndarray
    weight_sums: np.ndarray
    statistic: np.ndarray  # E_n / n per replication


def _lln_run(config, n, edge_counts, weight_sums, cond_means) -> LlnRun:
    ratios = edge_counts / n
    target = analytic_moments(config.model, n).ew / 2.0
    return LlnRun(
        n, float(ratios.mean()), float(ratios.std()), target, edge_counts, weight_sums, ratios
    )


# Power-series coefficients in y = W_i W_j / L of the audit's pair sums,
# rows t_b, t_c, t_d: p = y/(1+y), y p = y^2/(1+y) and p^2.  With
# y <= 1/16, 20 terms truncate below 2^-70 relative.
_AUDIT_SERIES = np.array([
    [(-1.0) ** (k + 1), (-1.0) ** k * (k >= 2), (-1.0) ** k * (k - 1)] for k in range(1, 21)
]).T


def proof_audit(weights: WeightVector, t: float, c_n: float, a_n: float) -> AuditTerms:
    """Evaluate the expansion bound terms, exact to rounding, near linear in n.

    Diagonal pairs i = j are included in every double sum; the diagonal
    correction also appears separately as ``selfloop_bound``.  The pair
    sums are series over :func:`pair_power_sums`.  The normings are
    passed in explicitly so degenerate models stay auditable with
    whatever normings make sense for them.
    """
    if not (c_n > 0 and a_n > 0):
        raise DomainError("normings must be positive")
    n = weights.n
    l_n = weights.sum_l
    sum_sq = weights.sum_sq
    abs_t = abs(t)
    selfloop = 2.0 * abs_t / c_n * sum_sq / l_n
    i1 = abs_t**3 * l_n / (12.0 * c_n**3)
    i3 = t * t / (c_n * c_n) * (sum_sq / n) ** 2 * (n / l_n) ** 2
    sums, large_pairs = pair_power_sums(weights, _AUDIT_SERIES.shape[1])
    totals = _AUDIT_SERIES @ sums
    for y in large_pairs:
        p = y / (1.0 + y)
        totals += [p.sum(), (y * p).sum(), (p * p).sum()]
    sum_b, sum_c, sum_d = totals.tolist()
    return AuditTerms(
        n=n,
        t=t,
        c_n=c_n,
        a_n=a_n,
        selfloop_bound=selfloop,
        i1_bound=i1,
        i3_bound=i3,
        t_a=sum_sq / l_n / a_n,
        t_b=sum_b / (a_n * a_n),
        t_c=sum_c / a_n,
        t_d=sum_d / (a_n * a_n),
    )


def audit_pair_moments(model: WeightModel, n: int, a_n: float) -> tuple[float, float]:
    """The two pair-moment vanishing terms, exact to quadrature accuracy:

        (1/a_n) * E[ W1^2 W2^2 ; W1 W2 <= n ]   and
        (n/a_n) * E[ W1 W2     ; W1 W2 >  n ].

    Each is an integral over W1 of a truncated moment of W2 (closed form
    for the power-law models) up to W1 = n/xm; past it every W2 >= xm
    exceeds the cut, which adds EW * E[W; W >= n/xm] to the second.
    """
    xm, pdf = model.support_lower, lambda w: _pdf_at(model, w)
    small = _quad(lambda w: pdf(w) * w * w * truncated_second_moment(model, n / w), xm, n / xm)
    large = _quad(lambda w: pdf(w) * w * truncated_first_moment_tail(model, n / w), xm, n / xm)
    large += analytic_moments(model).ew * truncated_first_moment_tail(model, n / xm)
    return small / a_n, n * large / a_n


mc_pair_moments = audit_pair_moments  # its former name, still a perfbench per-layer metric


def _audit_one(args):
    model, n, master_seed, rep, t_values, c_n, a_n = args
    wv = sample_weights(model, n, derive_seed(master_seed, rep))
    return [proof_audit(wv, t, c_n, a_n) for t in t_values]


@dataclass(eq=False)
class AuditGridPoint:
    n: int
    c_n: float
    a_n: float
    terms: list[AuditTerms]  # replications x t_values, replication-major
    pair_moment_small: float
    pair_moment_large: float

    def medians(self) -> dict[float, dict[str, float]]:
        return {t: {name: float(np.median([getattr(x, name) for x in self.terms if x.t == t]))
                    for name in AUDIT_TERM_NAMES} for t in sorted({x.t for x in self.terms})}


@dataclass(eq=False)
class LimitResult:
    """A T1 or T2 result: one GaussianLimitRun or StableLimitRun per n."""

    config: ExperimentConfig
    runs: list
    elapsed_seconds: float = 0.0

    @property
    def ks_d_trend(self) -> list[float]:
        return [r.ks.d_stat for r in self.runs]

    @property
    def trend_nonincreasing(self) -> bool:
        d = self.ks_d_trend
        return all(b <= a for a, b in zip(d, d[1:]))


@dataclass(eq=False)
class LlnResult:
    config: ExperimentConfig
    runs: list[LlnRun]
    elapsed_seconds: float = 0.0


@dataclass(eq=False)
class AuditResult:
    config: ExperimentConfig
    runs: list[AuditGridPoint]
    elapsed_seconds: float = 0.0

    def median_trends(self) -> dict[float, dict[str, bool]]:
        """Whether each term's median strictly decreases along the n grid."""
        per_point = [p.medians() for p in self.runs]
        return {t: {name: _decreasing([m[t][name] for m in per_point]) for name in AUDIT_TERM_NAMES}
                for t in per_point[0]}

    def pair_moment_trends(self) -> dict[str, bool]:
        return {name: _decreasing([getattr(p, name) for p in self.runs])
                for name in ("pair_moment_small", "pair_moment_large")}


def _decreasing(values: list[float]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _check_hypothesis(config: ExperimentConfig) -> None:
    """Raise HypothesisError if the model is outside the experiment's theorem."""
    tp = tail_params(config.model)
    if config.theorem in ("T2", "AUDIT") and (tp is None or not 1.0 < tp.alpha < 2.0):
        raise HypothesisError(f"{config.theorem} needs a heavy tail with alpha in (1, 2)")
    mom = analytic_moments(config.model, int(config.n_grid[0]))
    if config.theorem == "T1" and not math.isfinite(mom.ew2):
        raise HypothesisError("the normal limit needs a finite second moment")
    if config.theorem == "LLN" and not math.isfinite(mom.ew):
        raise HypothesisError("the edge-density law needs a finite mean")


def simulate(config: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """Simulate -> table: one tuple of per-replication data per n of the grid.

    T1, T2 and LLN give ``(edge_counts, weight_sums, cond_means)``, with
    the means for T2 only; the audit gives ``(c_n, a_n, terms,
    pair_moment_small, pair_moment_large)``, terms replication-major.
    """
    _check_hypothesis(config)
    if config.theorem != "AUDIT":
        with_mean = config.theorem == "T2"
        return [replicate_edges(config, int(n), threads, config.sampler, with_mean)
                for n in config.n_grid]
    table = []
    for n in map(int, config.n_grid):
        a_n = compute_norming(config.model, n)
        args = [
            (config.model, n, config.master_seed, rep, config.t_values, 0.5 * a_n, a_n)
            for rep in range(config.replications)
        ]
        terms = [term for chunk in _map_ordered(_audit_one, args, threads) for term in chunk]
        table.append((0.5 * a_n, a_n, terms, *audit_pair_moments(config.model, n, a_n)))
    return table


_DERIVATIONS = {
    "T1": (_gaussian_run, LimitResult),
    "T2": (_stable_run, LimitResult),
    "LLN": (_lln_run, LlnResult),
    "AUDIT": (lambda config, n, *row: AuditGridPoint(n, *row), AuditResult),
}


def derive_result(config: ExperimentConfig, table: list[tuple], elapsed_seconds: float = 0.0):
    """Table -> result, the one place that computes KS tests, deficits and trends.

    ``table`` has the layout that :func:`simulate` returns; ``grg
    report`` rebuilds it from a run's CSV and calls this as well.
    """
    _check_hypothesis(config)
    derive_run, result_type = _DERIVATIONS[config.theorem]
    runs = [derive_run(config, int(n), *row) for n, row in zip(config.n_grid, table, strict=True)]
    return result_type(config, runs, elapsed_seconds)


def run_experiment(config: ExperimentConfig, threads: int = 1):
    """Simulate, then derive the result; ``elapsed_seconds`` covers both."""
    t0 = time.perf_counter()
    result = derive_result(config, simulate(config, threads))
    result.elapsed_seconds = time.perf_counter() - t0
    return result


def _run_kind(kind: str, config: ExperimentConfig, threads: int):
    if config.theorem != kind:
        raise ConfigError(f"config is for {config.theorem}, not {kind}")
    return run_experiment(config, threads)


def run_gaussian_limit(config: ExperimentConfig, threads: int = 1) -> LimitResult:
    """KS of the normalized edge count against the standard normal, per n."""
    return _run_kind("T1", config, threads)


def run_stable_limit(config: ExperimentConfig, threads: int = 1) -> LimitResult:
    """Two-sample KS between the weight-sum and edge statistics, per n.

    Both statistics come from the same replications, so their dependence
    is preserved.  At desk-scale n the raw KS rejects because of the
    conditional-mean deficit (see the module docstring); each
    :class:`StableLimitRun` carries that deficit per replication,
    computed exactly, and the KS of the compensated statistic.
    """
    return _run_kind("T2", config, threads)


def run_lln(config: ExperimentConfig, threads: int = 1) -> LlnResult:
    """Mean and spread of E_n/n per n; the target is EW/2."""
    return _run_kind("LLN", config, threads)


def run_proof_audit(config: ExperimentConfig, threads: int = 1) -> AuditResult:
    """Audit-term trajectories over the n grid, one weight draw per seed.

    Normings follow the heavy-tailed convention c_n = a_n / 2 because
    the audited expansion is only interesting when the variance is
    infinite; finite-variance audits should call :func:`proof_audit`
    directly with the gaussian-limit normings.
    """
    return _run_kind("AUDIT", config, threads)
