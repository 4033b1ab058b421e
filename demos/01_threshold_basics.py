"""Pick a tail threshold for one observed series, then check it by brute force.

The pipeline sees a single path of n observations and a level alpha.  It
returns a threshold x aiming at P{max of a fresh path > x} <= alpha.  Here we
give it one chi-square(1) path, then validate the claim against 2000
independently simulated paths the pipeline never saw.
"""

from pathlib import Path

import numpy as np

from threshold_machine import (
    DtmConfig,
    GeneratorSpec,
    empirical_max_cdf,
    generate,
    mc_threshold,
    model_max_cdf,
    run_dtm,
    sup_norm_gap,
)

ALPHA = 0.05
N = 10_000

spec = GeneratorSpec.chi_square(df=1, n=N, seed=8)
series = generate(spec)
print(f"one observed path: n={N}, chi-square(1), max={series.max():.2f}")

report = run_dtm(series, DtmConfig(alpha=ALPHA, cutoff_quantile=0.95,
                                   bootstrap_reps=10, seed=1))
p = report.model.params
print(f"fitted tail: mu={p.mu:.3f} sigma={p.sigma:.3f} xi={p.xi:+.3f} "
      f"theta={report.model.theta:.3f} (cutoff u={report.model.cutoff:.3f})")
print(f"threshold at alpha={ALPHA}: x = {report.threshold:.3f}")
print(f"by construction, fitted P(max <= x) = "
      f"{model_max_cdf(report.model, report.threshold):.6f} = 1 - alpha")

# the expensive route the pipeline replaces: simulate many fresh paths
oracle = empirical_max_cdf(spec.with_seed(100_000), L=2000)
exceed_rate = 1.0 - float(oracle.cdf(report.threshold))
print(f"\nbrute-force check over {oracle.L} fresh paths:")
print(f"  Monte Carlo threshold at alpha={ALPHA}: {mc_threshold(oracle, ALPHA):.3f}")
print(f"  fraction of fresh maxima above the fitted threshold: {exceed_rate:.3f} "
      f"(target <= {ALPHA})")
print(f"  sup-norm distance between fitted and empirical max CDF: "
      f"{sup_norm_gap(oracle, report.model):.3f}")

rows = np.column_stack([
    oracle.maxima,
    oracle.cdf(oracle.maxima),
    model_max_cdf(report.model, oracle.maxima),
])
csv_path = Path(__file__).with_name("demo01_max_cdf.csv")
np.savetxt(csv_path, rows, delimiter=",", comments="",
           header="x,empirical_max_cdf,fitted_max_cdf")
print(f"\nwrote {csv_path} (x, empirical, fitted) for plotting")
