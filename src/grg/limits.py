"""Experiment orchestration: limit-law runs and the proof audit.

Three Monte Carlo experiments and one deterministic audit, one kind
each, all run by ``run_experiment``:

* ``T1`` -- the centered edge count over sqrt(n*(2*EW + Var W))
  against the standard normal (finite second moment required).
* ``T2`` -- for heavy tails with index alpha in (1, 2), the edge
  statistic (2*E_n - n*EW)/a_n against the weight-sum statistic
  (L_n - n*EW)/a_n from the same replications; both converge to the
  same stable law, so a two-sample KS needs no knowledge of its scale
  or skewness.  Their difference splits into the conditional
  fluctuation 2*E_n - E[2*E_n | W] and the conditional-mean deficit
  L_n - E[2*E_n | W].  Both are o(a_n), but the deficit decays only like
  n^(-1/6) log n at alpha = 1.5, so each run computes it exactly per
  replication and also reports the KS of the compensated statistic,
  the edge statistic plus the deficit.
* ``LLN`` -- E_n/n against EW/2.
* ``AUDIT`` -- the deterministic bound terms that control the
  characteristic-function expansion of the edge count, evaluated on
  sampled weight vectors, and two exact pair moments of the weight law;
  all of them must drift to zero as n grows.

Each run is ``simulate`` (replications -> per-n table of named columns)
followed by ``derive_result`` (table -> result), the only place that
computes KS tests, deficits, medians and trends.  It gives one
:class:`RunRecord` per n, whose ``row`` is that n's ``summary.json`` row,
and the trends in ``ExperimentResult.trends``; ``grg report`` calls it on
the columns that it reads back from a run's CSV.

Replications are independent tasks seeded by ``derive_seed`` from the
master seed and reduced in replication order, so results are identical
for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, HypothesisError, UnsupportedModelError
from .graph import conditional_edge_mean, pair_sums, sample_graph_fast
from .seeding import derive_seed
from .stats import KsResult, ks_one_sample, ks_two_sample, median, normal_cdf
from .weights import (
    WeightModel,
    WeightVector,
    analytic_moments,
    compute_norming,
    sample_weights,
    tail_params,
)

__all__ = [
    "ExperimentConfig",
    "AuditTerms",
    "ExperimentResult",
    "normal_limit_statistic",
    "stable_limit_statistic",
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
AUDIT_COLUMNS = ("t", "c_n", "a_n", *AUDIT_TERM_NAMES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit for bit."""

    model: WeightModel
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    theorem: str  # one of EXPERIMENT_KINDS
    t_values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.theorem not in EXPERIMENT_KINDS:
            raise ConfigError(f"theorem must be one of {EXPERIMENT_KINDS}, got {self.theorem!r}")
        if not self.n_grid or any(int(n) < 2 for n in self.n_grid):
            raise ConfigError("n_grid must be non-empty with every n >= 2")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError(f"n_grid must be strictly increasing, got {self.n_grid}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.theorem in ("T1", "T2") and self.replications < 100:
            raise ConfigError("limit-law experiments need at least 100 replications")
        if self.theorem == "AUDIT" and not self.t_values:
            raise ConfigError("audit needs at least one t value")
        if not all(math.isfinite(t) for t in self.t_values):
            raise ConfigError(f"t_values must be finite, got {self.t_values}")


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
    """Edge count (-1 with no graph), L_n and maybe E[E_n | W] of one replication."""
    model, n, with_graph, master_seed, rep, with_mean = args
    wv = replication_weights(model, n, master_seed, rep)
    edge_count = -1
    if with_graph:
        edge_count = sample_graph_fast(wv, derive_seed(master_seed, 2 * rep + 1)).edge_count
    if with_mean:
        return edge_count, wv.sum_l, conditional_edge_mean(wv)
    return edge_count, wv.sum_l


def _map_ordered(fn, args_list, threads: int):
    """fn over args_list in order, on at most min(threads or cores, cores, tasks) processes."""
    cores = os.cpu_count() or 1
    workers = min(threads or cores, cores, len(args_list))
    if workers <= 1:
        return [fn(a) for a in args_list]
    from concurrent.futures import ProcessPoolExecutor  # serial runs need no pool machinery

    chunk = max(1, len(args_list) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=chunk))


def replicate_edges(config: ExperimentConfig, n: int, threads: int, with_graph: bool) -> dict:
    """Per-replication columns: ``edge_count``, ``L_n`` and, for T2 only,
    ``cond_mean``, E[E_n | W].

    Without ``with_graph`` only the weights are drawn, from the run's own
    seeds, and every edge count is -1.
    """
    with_mean = config.theorem == "T2"
    args = [
        (config.model, n, with_graph, config.master_seed, rep, with_mean)
        for rep in range(config.replications)
    ]
    columns = zip(*_map_ordered(_edge_stats_one, args, threads))
    return {name: np.array(c) for name, c in zip(("edge_count", "L_n", "cond_mean"), columns)}


@dataclass(eq=False)
class RunRecord:
    """One n of a run: its ``summary.json`` row and what the row came from.

    ``row`` is the row as it is written.  ``columns`` holds the
    per-replication arrays, by name: the table's and those derived from
    them.  T1, T2 and LLN have

    * ``statistic`` -- the normalized edge count (T1), the edge statistic
      (2 E_n - n EW) / a_n (T2) or E_n / n (LLN);
    * ``edge_count`` -- E_n;
    * ``L_n`` -- the weight sum;
    * ``cond_mean`` -- E[E_n | W], T2 only;
    * ``weight_statistic`` -- (L_n - n EW) / a_n, T2 only;
    * ``deficit`` -- (L_n - 2 E[E_n | W]) / a_n, T2 only.

    The audit has one entry per replication and t, replication-major, in
    ``t``, ``c_n``, ``a_n`` and each of ``AUDIT_TERM_NAMES``.
    """

    n: int
    row: dict
    columns: dict


def _ks_row(n: int, ks: KsResult) -> dict:
    return {"n": n, "ks_d": ks.d_stat, "ks_p": ks.p_value, "n_effective": ks.n_effective}


def _gaussian_run(config, n, columns) -> RunRecord:
    mom = analytic_moments(config.model, n)
    values = normal_limit_statistic(columns["edge_count"], n, mom.ew, mom.var_w)
    row = {**_ks_row(n, ks_one_sample(values, normal_cdf)),
           "mean": float(values.mean()), "std": float(values.std())}
    return RunRecord(n, row, {**columns, "statistic": values})


def _stable_run(config, n, columns) -> RunRecord:
    ew = analytic_moments(config.model).ew
    a_n = compute_norming(config.model, n)
    wstat = (columns["L_n"] - n * ew) / a_n
    estat = stable_limit_statistic(columns["edge_count"], n, ew, a_n)
    deficit = (columns["L_n"] - 2.0 * columns["cond_mean"]) / a_n
    compensated = ks_two_sample(wstat, estat + deficit)
    row = {**_ks_row(n, ks_two_sample(wstat, estat)), "a_n": a_n,
           "edge_stat_median": median(estat), "weight_stat_median": median(wstat),
           "deficit_median": median(deficit), "deficit_mean": float(deficit.mean()),
           "ks_d_compensated": compensated.d_stat, "ks_p_compensated": compensated.p_value}
    return RunRecord(n, row, {**columns, "statistic": estat, "weight_statistic": wstat,
                              "deficit": deficit})


def _lln_run(config, n, columns) -> RunRecord:
    ratios = columns["edge_count"] / n
    mean_ratio = float(ratios.mean())
    target = analytic_moments(config.model, n).ew / 2.0
    row = {"n": n, "mean_ratio": mean_ratio, "std_ratio": float(ratios.std()),
           "target": target, "abs_error": abs(mean_ratio - target)}
    return RunRecord(n, row, {**columns, "statistic": ratios})


def proof_audit(weights: WeightVector, t: float, c_n: float, a_n: float) -> AuditTerms:
    """Evaluate the expansion bound terms, exact to rounding, near linear in n.

    Diagonal pairs i = j are included in every double sum; the diagonal
    correction also appears separately as ``selfloop_bound``.  The pair
    sums of t_b, t_c and t_d come from :func:`pair_sums`.  The normings are
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
    i1 = _power(abs_t, 3) * l_n / (12.0 * _power(c_n, 3))
    i3 = t * t / (c_n * c_n) * _power(sum_sq / n, 2) * _power(n / l_n, 2)
    sum_b, sum_c, sum_d = pair_sums(weights)
    terms = AuditTerms(
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
    for name in AUDIT_TERM_NAMES:
        if not math.isfinite(getattr(terms, name)):
            raise OverflowError(f"audit term {name} at n={n}, t={t} overflows a double")
    return terms


def _power(x: float, k: int) -> float:
    """x**k, or inf where the ** of a float raises rather than giving inf."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def audit_pair_moments(model: WeightModel, n: int, a_n: float) -> tuple[float, float]:
    """The two pair-moment vanishing terms, in closed form:

        (1/a_n) * E[ W1^2 W2^2 ; W1 W2 <= n ]   and
        (n/a_n) * E[ W1 W2     ; W1 W2 >  n ].

    Both models with a power-law tail have Gamma log-weights: log(W/xm)
    is Exp(alpha) for Pareto and the mixture (alpha-1)/alpha Exp(alpha)
    + 1/alpha Gamma(2, alpha) for ParetoLog.  So T = log(W1 W2 / xm^2)
    is a mixture of Gamma(k, alpha) over k = 2 (Pareto) or k = 2, 3, 4
    (ParetoLog), the cut is T <= c = log(n / xm^2), and per component

        E[e^(2T); T <= c] = alpha^k * int_0^c t^(k-1) e^((2-alpha) t) dt / (k-1)!
        E[e^T;    T >  c] = (alpha/(alpha-1))^k * Q(k, (alpha-1) c),

    with Q the regularized upper incomplete gamma function, a finite sum
    for integer k.  Only laws with such a tail and alpha > 1 qualify.
    """
    tp = tail_params(model)
    if tp is None or not tp.alpha > 1.0:
        raise UnsupportedModelError("pair moments need a power-law tail with alpha > 1")
    a, xm = tp.alpha, model.xm
    if tp.h_kind == "constant":
        mixture = {2: 1.0}
    else:
        p, q = (a - 1.0) / a, 1.0 / a
        mixture = {2: p * p, 3: 2.0 * p * q, 4: q * q}
    c = max(math.log(n / (xm * xm)), 0.0)
    small = sum(w * a**k * _exp_gamma_below(k, 2.0 - a, c) for k, w in mixture.items())
    large = sum(w * (a / (a - 1.0)) ** k * _gamma_upper(k, (a - 1.0) * c)
                for k, w in mixture.items())
    return xm**4 * small / a_n, n * xm**2 * large / a_n


def _exp_gamma_below(k: int, b: float, c: float) -> float:
    """int_0^c t^(k-1) e^(b t) dt / (k-1)! for c >= 0, any sign of b."""
    x = b * c
    if abs(x) < 2.0:  # the closed form cancels near x = 0; this series has no cancellation there
        term, total = 1.0, 0.0
        for i in range(40):
            total += term / (k + i)
            term *= x / (i + 1)
        return c**k / math.factorial(k - 1) * total
    poly = sum((-x) ** j / math.factorial(j) for j in range(k))
    return (-1) ** (k - 1) * (math.exp(x) * poly - 1.0) / b**k


def _gamma_upper(k: int, y: float) -> float:
    """Q(k, y) = e^(-y) sum_{j<k} y^j / j!, the Gamma(k, 1) survival at y."""
    return math.exp(-y) * sum(y**j / math.factorial(j) for j in range(k))


def _audit_one(args):
    model, n, master_seed, rep, t_values, c_n, a_n = args
    wv = sample_weights(model, n, derive_seed(master_seed, rep))
    return [proof_audit(wv, t, c_n, a_n) for t in t_values]


def _audit_point(config, n, columns) -> RunRecord:
    """The row holds each term's median over the replications, per t, and the pair moments."""
    t = columns["t"]
    medians = {str(s): {name: median(columns[name][t == s]) for name in AUDIT_TERM_NAMES}
               for s in sorted(set(t.tolist()))}
    c_n, a_n = columns["c_n"][0].item(), columns["a_n"][0].item()
    small, large = audit_pair_moments(config.model, n, a_n)
    row = {"n": n, "c_n": c_n, "a_n": a_n, "medians": medians,
           "pair_moment_small": small, "pair_moment_large": large}
    return RunRecord(n, row, columns)


@dataclass(eq=False)
class ExperimentResult:
    """A :class:`RunRecord` per n and ``trends``, the run-level blocks of
    ``summary.json``: ``trend`` for T1 and T2, the strict
    ``*_trends_decreasing`` verdicts and the remainder coefficient bound
    for the audit, none for LLN."""

    config: ExperimentConfig
    runs: list
    trends: dict
    elapsed_seconds: float = 0.0


def _ks_trend(runs: list[RunRecord]) -> dict:
    d = [r.row["ks_d"] for r in runs]
    return {"trend": {"metric": "ks_d", "values": d,
                      "nonincreasing": all(b <= a for a, b in zip(d, d[1:]))}}


def _audit_trends(points: list[RunRecord]) -> dict:
    rows = [p.row for p in points]
    return {
        "median_trends_decreasing": {
            t: {name: _decreasing([r["medians"][t][name] for r in rows])
                for name in AUDIT_TERM_NAMES}
            for t in rows[0]["medians"]
        },
        "pair_moment_trends_decreasing": {
            name: _decreasing([r[name] for r in rows])
            for name in ("pair_moment_small", "pair_moment_large")
        },
        "remainder_coeff_bound": 0.5,
    }


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


def simulate(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Simulate -> table: one dict of named per-replication columns per n.

    T1, T2 and LLN give the columns of :func:`replicate_edges`; the audit
    gives one entry per replication and t, replication-major, in each of
    ``AUDIT_COLUMNS``.
    """
    _check_hypothesis(config)
    if config.theorem != "AUDIT":
        return [replicate_edges(config, int(n), threads, True) for n in config.n_grid]
    table = []
    for n in map(int, config.n_grid):
        a_n = compute_norming(config.model, n)
        args = [(config.model, n, config.master_seed, rep, config.t_values, 0.5 * a_n, a_n)
                for rep in range(config.replications)]
        terms = [term for chunk in _map_ordered(_audit_one, args, threads) for term in chunk]
        table.append({name: np.array([getattr(x, name) for x in terms]) for name in AUDIT_COLUMNS})
    return table


_DERIVATIONS = {  # kind -> ((config, n, columns) -> run, runs -> trends)
    "T1": (_gaussian_run, _ks_trend),
    "T2": (_stable_run, _ks_trend),
    "LLN": (_lln_run, lambda runs: {}),
    "AUDIT": (_audit_point, _audit_trends),
}


def derive_result(config: ExperimentConfig, table: list[dict],
                  elapsed_seconds: float = 0.0) -> ExperimentResult:
    """Table -> result, the one place that computes KS tests, deficits and trends.

    ``table`` has the layout that :func:`simulate` returns; ``grg
    report`` rebuilds it from a run's CSV and calls this as well.  The
    trends go to ``ExperimentResult.trends``, for ``summary.json``.
    """
    _check_hypothesis(config)
    derive_run, derive_trends = _DERIVATIONS[config.theorem]
    runs = [derive_run(config, int(n), cols) for n, cols in zip(config.n_grid, table, strict=True)]
    return ExperimentResult(config, runs, derive_trends(runs), elapsed_seconds)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Simulate, then derive the result; ``elapsed_seconds`` covers both.

    A T2 run carries each replication's conditional-mean deficit, exact,
    in each :class:`RunRecord`'s ``columns["deficit"]``, and the KS of the
    compensated statistic in its ``row`` (``ks_d_compensated``,
    ``ks_p_compensated``).  The audit uses the heavy-tailed normings
    c_n = a_n / 2, as its expansion matters only when the variance is
    infinite; a finite-variance audit calls :func:`proof_audit` directly.
    """
    t0 = time.perf_counter()
    result = derive_result(config, simulate(config, threads))
    result.elapsed_seconds = time.perf_counter() - t0
    return result


# Former names, kept only because perfbench's BENCHMARK.json declares per-layer
# metrics under them; they go when ROADMAP item 1 renames those metrics.  The
# tracer counts each call under the name defined first, so these read 0 calls.
mc_pair_moments = audit_pair_moments
run_gaussian_limit = run_stable_limit = run_proof_audit = run_experiment
