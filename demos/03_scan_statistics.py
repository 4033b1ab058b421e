"""Threshold for a subgraph scan over a null random graph.

A community detector scans k-node subgraphs of an Erdos-Renyi graph and
alarms when some subgraph's edge count exceeds a threshold.  Calibrating that
threshold needs the tail of the maximum scan statistic under the null.  One
observed scan sequence feeds the pipeline; a 100-repetition Monte Carlo gives
the reference.

Integer-valued scan statistics are a hard case for a continuous tail model:
with few distinct exceedance levels the shape parameter is weakly identified
and the fitted tail tends to hug the observed range, so the fitted thresholds
here sit below the Monte Carlo ones.  The run prints both so the comparison
is explicit.
"""

import dataclasses

import numpy as np

from threshold_machine import (DtmConfig, EmpiricalMaxDist, ErGraphSpec, mc_threshold,
                               run_dtm, scan_series)

ALPHAS = (0.1, 0.05, 0.03, 0.01)
spec = ErGraphSpec(N=100, p0=0.1, p1=0.1, k=10, seed=0)

series = scan_series(spec, n_subgraphs=5000)
print(f"scan series: 5000 subgraph edge counts, range [{series.min():.0f}, "
      f"{series.max():.0f}], mean {series.mean():.2f}")

# one fit answers every level: no stage but the inversion reads alpha
rep = run_dtm(series, DtmConfig(alpha=min(ALPHAS), cutoff_quantile=0.95,
                                bootstrap_reps=10, seed=1))
print(f"\nfitted thresholds from the single observed sequence "
      f"(xi={rep.model.params.xi:+.2f}, theta={rep.model.theta:.2f}):")
for alpha in ALPHAS:
    print(f"  alpha={alpha:<5}: {rep.model.upper(alpha):6.2f}")

print("\nMonte Carlo reference (100 independent repetitions):")
mc = EmpiricalMaxDist(np.sort([
    scan_series(dataclasses.replace(spec, seed=20_000 + j), 5000).max()
    for j in range(100)
]))
for alpha in ALPHAS:
    print(f"  alpha={alpha:<5}: {mc_threshold(mc, alpha):6.2f}")

print("\nnote: lattice-valued statistics weakly identify the tail shape; "
      "for production use on integer scans, prefer a pinned exponential "
      "shape (DtmConfig(fix_xi=0.0)) or a longer sequence.")
