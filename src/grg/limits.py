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

Each run is ``simulate`` (replications -> per-n table of named columns,
with T2's and the audit's normings a_n computed before the first draw)
followed by ``derive_result`` (table -> result), which reads a_n from the
table and is the only place that computes KS tests, deficits, medians and
trends.  It gives one :class:`RunRecord` per n, whose ``row`` is that n's
``summary.json`` row, and the trends in ``ExperimentResult.trends``;
``grg report`` calls it on the columns that it reads back from a run's CSV.

Replications are independent tasks seeded by ``derive_seed`` from the
master seed and reduced in replication order, so results are identical
for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigError, DomainError, HypothesisError
from .graph import conditional_edge_mean, descending_weights, pair_sums, sample_graph_fast
from .seeding import derive_seed
from .stats import KsResult, ks_one_sample, ks_two_sample, median, normal_cdf
from .weights import (
    WeightModel,
    WeightVector,
    _heavy_tailed,
    _pair_moments,
    analytic_moments,
    compute_norming,
    sample_weights,
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
    """One replication's row: edge count (-1 with no graph), L_n and, for T2, E[E_n | W], a_n."""
    config, n, rep, with_graph, a_n = args
    wv = replication_weights(config.model, n, config.master_seed, rep)
    # the mean before the sort: its sums run in draw order, so its bits are the draw's
    stats = (wv.sum_l, conditional_edge_mean(wv), a_n) if config.theorem == "T2" else (wv.sum_l,)
    edge_count = -1
    if with_graph:
        # the replication's own draw, sorted in place: the same graph relabelled, no copy
        seed = derive_seed(config.master_seed, 2 * rep + 1)
        edge_count = sample_graph_fast(descending_weights(wv, in_place=True), seed).edge_count
    return [(edge_count, *stats)]


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
    * ``a_n`` -- the norming, which :func:`simulate` computes, T2 only;
    * ``weight_statistic`` -- (L_n - n EW) / a_n, T2 only;
    * ``deficit`` -- (L_n - 2 E[E_n | W]) / a_n, T2 only.

    The audit has one entry per replication and t, replication-major, in
    ``t``, ``c_n``, ``a_n`` and each of ``AUDIT_TERM_NAMES``; no record
    computes its a_n, :func:`derive_result` reads it from the table.
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
    a_n = columns["a_n"][0].item()
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
        (n/a_n) * E[ W1 W2     ; W1 W2 >  n ],

    from the Gamma mixture that is the law of log(W1 W2 / xm^2), as in
    ``weights``; only Pareto and ParetoLog laws with alpha > 1 qualify.
    """
    small, large = _pair_moments(model, n)
    return small / a_n, large / a_n


def _audit_one(args):
    config, n, rep, _, a_n = args
    wv = sample_weights(config.model, n, derive_seed(config.master_seed, rep))
    return [astuple(proof_audit(wv, t, 0.5 * a_n, a_n))[1:] for t in config.t_values]


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
    if config.theorem in ("T2", "AUDIT") and not _heavy_tailed(config.model):
        raise HypothesisError(f"{config.theorem} needs a heavy tail with alpha in (1, 2)")
    mom = analytic_moments(config.model, int(config.n_grid[0]))
    if config.theorem == "T1" and not math.isfinite(mom.ew2):
        raise HypothesisError("the normal limit needs a finite second moment")
    if config.theorem == "LLN" and not math.isfinite(mom.ew):
        raise HypothesisError("the edge-density law needs a finite mean")


def simulate(config: ExperimentConfig, threads: int = 1, with_graph: bool = True) -> list[dict]:
    """Simulate -> table: one dict of named per-replication columns per n.

    T1 and LLN give ``edge_count`` and ``L_n``, T2 also ``cond_mean`` and ``a_n``, and the
    audit ``AUDIT_COLUMNS``, one entry per replication and t, replication-major.  T2 and the
    audit compute every n's norming a_n before the first draw.  Without ``with_graph`` only
    the weights are drawn, and every edge count is -1.
    """
    _check_hypothesis(config)
    normings = {n: compute_norming(config.model, n) for n in map(int, config.n_grid)
                if config.theorem in ("T2", "AUDIT")}
    task, names = ((_audit_one, AUDIT_COLUMNS) if config.theorem == "AUDIT" else
                   (_edge_stats_one, ("edge_count", "L_n", "cond_mean", "a_n")))
    table = []
    for n in map(int, config.n_grid):
        args = [(config, n, rep, with_graph, normings.get(n)) for rep in range(config.replications)]
        rows = [row for chunk in _map_ordered(task, args, threads) for row in chunk]
        table.append({name: np.array(column) for name, column in zip(names, zip(*rows))})
    return table


_DERIVATIONS = {  # kind -> ((config, n, columns) -> run, runs -> trends)
    "T1": (_gaussian_run, _ks_trend),
    "T2": (_stable_run, _ks_trend),
    "LLN": (_lln_run, lambda runs: {}),
    "AUDIT": (_audit_point, _audit_trends),
}


def derive_result(config: ExperimentConfig, table: list[dict]) -> ExperimentResult:
    """Table -> result, the one place that computes KS tests, deficits and trends.

    ``table`` has the layout that :func:`simulate` returns; ``grg
    report`` rebuilds it from a run's CSV and calls this as well.  The
    trends go to ``ExperimentResult.trends``, for ``summary.json``.
    """
    _check_hypothesis(config)
    derive_run, derive_trends = _DERIVATIONS[config.theorem]
    runs = [derive_run(config, int(n), cols) for n, cols in zip(config.n_grid, table, strict=True)]
    return ExperimentResult(config, runs, derive_trends(runs))


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
