"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/report.py --seeds 1-10 [--traced]

For every workload in BENCHMARK.json, runs ``run.py`` for ``run_seconds``
once per seed, one run at a time, and prints each end-to-end metric's median
and its spread: the distance between the first and third quartiles over the
median.  The spread is checked against the metric's bound in BENCHMARK.json:
a bound narrower than the spread cannot tell a regression from noise, and a
spread over a third of it is flagged.  With ``--traced`` it adds one traced run per workload
(first seed) and prints the largest per-layer shares and the tracing
overhead, the relative drop of ``trace.ops_per_s`` from the untraced
median ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(machine record, result) of one run of run.py."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()

    seeds = parse_seeds(args.seeds)
    for w in (w["name"] for w in BENCH["workloads"]):
        runs, infos = [], []
        for seed in seeds:
            info, result = run_once(w, seed, 0)
            machine = info.pop("machine")
            runs.append(result)
            infos.append(info)
            print(f"{w} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']}", file=sys.stderr, flush=True)
        failed, attempted = (sum(r[k] for r in runs) for k in ("failed", "attempted"))
        handled = sum(i["handled_ops"] for i in infos)
        print(f"\n{w}: {len(runs)} runs, {failed} of {attempted} ops failed, "
              f"{handled} had handled failures")
        for m in BENCH["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            sp = spread(values) if len(values) > 1 else 0.0
            flag = "" if sp <= m["bound"] / 3 else (
                "  over a third of the bound" if sp <= m["bound"] else "  OVER THE BOUND")
            print(f"  {m['name']:<22} {med:12.4f} {m['unit']:<6} spread {sp:6.3f} "
                  f"(bound {m['bound']}){flag}")
        for name in infos[0]["raw"]:
            raw = [i["raw"][name] for i in infos]
            print(f"  uncorrected {name:<10} {statistics.median(raw):12.4f}        spread "
                  f"{spread(raw) if len(raw) > 1 else 0.0:6.3f}")
        if args.traced:
            _, traced = run_once(w, seeds[0], 1)
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            untraced = runs[0]["metrics"]["ops_per_s"]["value"]
            overhead = 1 - layer["trace.ops_per_s"] / untraced
            print(f"  traced ops_per_s {layer['trace.ops_per_s']:.2f} vs {untraced:.2f} "
                  f"untraced on seed {seeds[0]} (overhead {overhead:+.1%})")
            shares = sorted(((v, k) for k, v in layer.items() if k.endswith(".share")),
                            reverse=True)
            for v, k in shares[:4]:
                print(f"    {k:<40} {v:.3f}")
    print(json.dumps({"machine": machine}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
