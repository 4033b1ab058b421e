"""Two sequential uses of the threshold: online change detection and bandits.

Change-point: a stream of graph snapshots is monitored by a sliding-block
kernel two-sample statistic against a fixed pre-change reference block.  The
pipeline turns an average-run-length budget into a threshold from the
training prefix alone; the first exceedance after training is the alarm.

Bandit: each arm's maximum reward gets (lcb, ucb) bounds from the pipeline;
pull the best ucb, stop when the leader's lcb clears every other ucb.
"""

from pathlib import Path

import numpy as np

from threshold_machine import BanditSpec, MmdStreamSpec, bandit_run, change_point_run

# --- online change-point detection ------------------------------------------

spec = MmdStreamSpec(
    block_size=20,
    n_nodes=50,
    p_pre=0.3,
    p_post=0.4,
    change_time=1200,
    horizon=1400,
    train_len=600,
    seed=3,
)
res = change_point_run(spec, arl=10_000.0)
mon_start = res.stream_start + spec.train_len
print("change-point detection on a graph-snapshot stream:")
print(f"  training: statistics {res.stream_start}..{mon_start - 1} "
      f"-> threshold {res.threshold:.4g} "
      f"(alpha={res.report.config.alpha:.3f} for ARL=10000)")
print(f"  true change at t={spec.change_time}; alarm at t={res.stopping_time}")
times = np.arange(res.stream_start, spec.horizon + 1)
csv_path = Path(__file__).with_name("demo04_stream.csv")
np.savetxt(csv_path,
           np.column_stack([times, res.stream, np.full_like(res.stream, res.threshold)]),
           delimiter=",", comments="", header="time,statistic,threshold")
print(f"  wrote {csv_path} (time, statistic, threshold)")

# --- max-reward bandit --------------------------------------------------------

print("\nbandit with Pareto reward tails (3.5 vs 4.0), delta=0.005:")
bspec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005, burn_in=500, seed=4)
bres = bandit_run(bspec, total_pulls=1100)
for arm, bounds in enumerate(bres.initial_bounds):
    print(f"  arm {arm} after burn-in: lcb={bounds[0]:.3f} ucb={bounds[1]:.3f}")
counts = bres.pull_counts(2)
print(f"  post burn-in pulls: arm0={counts[0]} arm1={counts[1]} "
      f"(heavier-tailed arm 0 should dominate)")
if bres.stopped_early:
    print("  stopped early: leader's lcb cleared every other ucb")
