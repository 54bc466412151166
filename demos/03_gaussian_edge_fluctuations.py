"""Normal fluctuations of the edge count under a finite second moment.

With EW^2 finite, the statistic (2 E_n - n EW) / sqrt(n (2 EW + Var W))
is asymptotically standard normal.  The run below shows the one-sample
Kolmogorov-Smirnov distance to the normal shrinking along an n-grid,
for both an exponential weight law and the degenerate constant-weight
(uniform random graph) case where Var W = 0.
"""

from grg import (
    ConstantWeights,
    ExperimentConfig,
    ExponentialWeights,
    run_experiment,
)

for label, model, grid, reps in (
    ("Exponential(1) weights", ExponentialWeights(1.0), (50, 400, 2000), 800),
    ("Constant lam=2 (uniform graph)", ConstantWeights(2.0), (100, 1000), 800),
):
    print("=" * 64)
    print(label)
    print("=" * 64)
    cfg = ExperimentConfig(model, grid, reps, master_seed=33, theorem="T1")
    res = run_experiment(cfg)
    print(f"{'n':>6} {'KS D':>9} {'p-value':>9} {'mean':>8} {'std':>7}")
    for run in res.runs:
        row = run.row
        print(
            f"{row['n']:>6} {row['ks_d']:>9.4f} {row['ks_p']:>9.4f} "
            f"{row['mean']:>8.4f} {row['std']:>7.4f}"
        )
    print(f"KS distance non-increasing along the grid: {res.trends['trend']['nonincreasing']}")
    print()
