"""Benchmark of threshold-machine: one workload per run, closed loop.

    python3 perfbench/run.py --workload marginal_fit --seed 1 --seconds 20 --trace 0

One caller issues public calls back to back in this process, pinned to one
core; there are no worker threads and BLAS runs on one thread.  A run

1. sets up the workload several times and reports the median as
   ``setup_s`` (a fresh interpreter's import of the package plus building
   the workload's inputs),
2. warms up for at least one block of ops,
3. times ops for ``--seconds`` seconds, checking every op's outputs outside
   the timed region (a raised ``DtmError`` or a failed check is a failed op),
4. prints the machine record on one line and, as the last line, the result.

Every time reported is corrected for the machine's momentary speed.  On a
shared machine the same op can run twice as slow a minute later, so a fixed
probe (:class:`Probe`) of the workload's kind of work is timed before and
after every op, a generator probe around every set-up step, and a compile
probe inside the importing interpreter around the package import.  Each raw time is scaled by the probe's
reference duration over the mean of the two probes around it: the time the
work would have taken at the reference speed.  The uncorrected figures are printed on
the machine-record line.

With ``--trace 0`` the metrics are the end-to-end ones, with the accuracy
riders of :mod:`accuracy`.  With ``--trace 1`` the same run is made with
every layer's public functions wrapped (:mod:`tracing`) and the metrics are
the per-layer ones, plus ``trace.ops_per_s`` to read the tracing overhead
against the untraced ``ops_per_s``.

Exits with code 2, printing no result, if the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
BLOCKS = 5  # ops_per_s is the median throughput over this many blocks of ops
# Share of attempted ops that may end in a failure the program handled itself
# (a skipped bandit arm) before those ops count as failed: about 12 times the
# rate of 5 in 604 ops seen at the first baseline.
MAX_HANDLED_SHARE = 0.1
# Compiling and running 150 small functions and classes is work like an
# import's; the interpreter that imports the package times it before and after.
COMPILE_PROBE_SOURCE = "".join(
    f"def f{i}(a, b=2):\n    x = [a + k * b for k in range(3)]\n    return {{'k': x}}\n"
    f"class C{i}:\n    y = f{i}(1)\n" for i in range(150))
COMPILE_PROBE_REFERENCE_S = 0.015  # about its duration on the machine of README.md
IMPORT_SCRIPT = f"""
import time
def probe():
    t = time.perf_counter()
    exec(compile({COMPILE_PROBE_SOURCE!r}, "probe", "exec"), {{}})
    return time.perf_counter() - t
before = probe()
t = time.perf_counter()
import threshold_machine
t = time.perf_counter() - t
print(before, t, probe())
"""


def import_seconds() -> tuple[float, float]:
    """Import time of the package in a fresh interpreter, as (corrected by
    the compile probes around it, raw) seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    before, raw, after = map(float, out.stdout.split())
    return raw * COMPILE_PROBE_REFERENCE_S * 2.0 / (before + after), raw


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without calling git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "commit": git_commit(),
    }


class Probe:
    """Fixed work whose duration gauges how fast the machine runs, at the
    moment, the kind of work a workload's ops do.  It uses numpy and scipy
    but no package code, so a change to the program cannot move it.  A probe
    runs one or more of these kinds back to back:

    - ``optimizer``: a 60-iteration Nelder-Mead descent over a 500-point
      numpy objective, like the tail fit;
    - ``gather``: drawing a million random indices into an 8 MB array and
      taking the largest value they pick, like the bootstrap of a long path;
    - ``generate``: ten 10 500-point Gaussian draws from fresh generators,
      each run through a first-order linear filter and reduced to its
      maximum, like the generators and the Monte Carlo oracle (used around
      set-up steps).
    """

    # median durations on the 2-core Xeon of README.md
    REFERENCE_S = {"optimizer": 0.0055, "gather": 0.0175, "generate": 0.0023}

    def __init__(self, kinds: tuple[str, ...]):
        import numpy as np
        from scipy.optimize import minimize
        from scipy.signal import lfilter

        self.np, self.minimize, self.lfilter = np, minimize, lfilter
        self.work = [getattr(self, "_" + k) for k in kinds]
        self.reference_s = sum(self.REFERENCE_S[k] for k in kinds)
        self.rng = np.random.default_rng(0)
        self.x = self.rng.random(500) + 0.5
        self.big = self.rng.random(1_000_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for work in self.work:
            work()
        return time.perf_counter() - t0

    def _objective(self, v) -> float:
        np = self.np
        z = 1.0 + v[2] * (self.x - v[0]) / np.exp(v[1])
        if np.any(z <= 0):
            return np.inf
        return float(np.sum(np.log(z)) + np.sum(z ** -1.1) + 500 * v[1])

    def _optimizer(self) -> None:
        self.minimize(self._objective, self.np.array([0.1, 0.0, 0.1]), method="Nelder-Mead",
                      options={"maxiter": 60, "xatol": 0.0, "fatol": 0.0})

    def _gather(self) -> None:
        self.big[self.rng.integers(0, self.big.size, self.big.size)].max()

    def _generate(self) -> None:
        for k in range(10):
            z = self.np.random.default_rng(k).standard_normal(10_500)
            self.lfilter([1.0], [1.0, -0.98], z).max()

    def corrected(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, given the probes around it."""
        return seconds * self.reference_s * 2.0 / (before + after)


def set_up(wl, step_probe: Probe) -> tuple[float, float]:
    """One set-up: a fresh interpreter's import of the package, then the
    workload's set-up steps.  Returns (speed-corrected, raw) seconds; the
    import and each step are corrected by the probes around them."""
    corrected, raw = import_seconds()
    before = step_probe()
    for step in wl.setup_steps():
        t0 = time.perf_counter()
        step()
        seconds = time.perf_counter() - t0
        after = step_probe()
        raw += seconds
        corrected += step_probe.corrected(seconds, before, after)
        before = after
    return corrected, raw


def throughput(ops: list[tuple[float, int]], cycle: int) -> float:
    """Median units per second over up to BLOCKS blocks of whole cycles."""
    n_cycles = max(1, len(ops) // cycle)
    n_blocks = min(BLOCKS, n_cycles)
    bounds = [round(b * n_cycles / n_blocks) * cycle for b in range(n_blocks)] + [len(ops)]
    rates = []
    for lo, hi in zip(bounds, bounds[1:]):
        seconds = sum(s for s, _ in ops[lo:hi])
        rates.append(sum(u for _, u in ops[lo:hi]) / seconds)
    return statistics.median(rates)


class Run:
    """Counts attempted and failed ops and keeps the timed ones, as
    (speed-corrected seconds, units of work), and their raw seconds.

    An op fails if it raises ``DtmError`` or a check finds a wrong output.
    Ops with failures the program handled itself (see ``Workload.degraded``)
    are counted apart, as ``handled_ops``: a few are normal, and their count
    per run grows with the number of ops a faster program fits in the run.
    Once they pass ``MAX_HANDLED_SHARE`` of the attempted ops they all count
    as failed (see :meth:`failed_ops`), so a change that makes such failures
    common cannot pass for a speed-up.
    """

    def __init__(self, workload, dtm_error, probe: Probe):
        self.wl = workload
        self.dtm_error = dtm_error
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.handled = 0  # handled failures, such as skipped arms
        self.handled_ops = 0  # ops that did not fail but had a handled failure
        self.timed: list[tuple[float, int]] = []
        self.raw: list[float] = []

    def op(self, i: int) -> tuple[float, int]:
        """Run and check op i; returns its wall time and units of work."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            units, out = self.wl.run(i)
        except self.dtm_error as e:
            seconds = time.perf_counter() - t0
            problems = [f"{type(e).__name__}: {e}"]
            units = 0
        else:
            seconds = time.perf_counter() - t0
            problems = self.wl.check(i, out)
            handled = self.wl.degraded(out)
            self.handled += len(handled)
            self.handled_ops += bool(handled and not problems)
        if problems:
            self.failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        return seconds, units

    def failed_ops(self) -> int:
        """Failed ops, with the handled ones once they are too many."""
        if self.handled_ops > MAX_HANDLED_SHARE * self.attempted:
            print(f"{self.handled_ops} of {self.attempted} ops had handled failures, "
                  f"over the allowed share {MAX_HANDLED_SHARE}", file=sys.stderr)
            return self.failed + self.handled_ops
        return self.failed

    def warm_up(self) -> None:
        spent, i = 0.0, 0
        while i < self.wl.cycle or spent < WARMUP_SECONDS:
            spent += self.op(i)[0]
            i += 1

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        before = self.probe()
        i = 0
        while True:
            raw, units = self.op(i)
            after = self.probe()
            self.timed.append((self.probe.corrected(raw, before, after), units))
            self.raw.append(raw)
            before = after
            i += 1
            if time.perf_counter() >= deadline:
                break

    def latency_ms(self, q: float) -> float:
        import numpy as np

        return 1e3 * float(np.percentile([s for s, _ in self.timed], q))


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # One core for everything: the probes gauge the speed of the core the
    # caller, its one BLAS thread and the import probe's interpreter run on.
    nproc = len(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    except OSError as e:  # the run stays correct, only less steady
        print(f"could not pin to one core: {e}", file=sys.stderr)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "threshold_machine" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import threshold_machine as tm

    import accuracy
    import tracing
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    wl = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None

    step_probe = Probe(("generate",))
    with tracer or contextlib.nullcontext():
        setup_times, raw_setup_times = zip(*(set_up(wl, step_probe)
                                             for _ in range(SETUP_REPEATS)))
        run = Run(wl, tm.DtmError, Probe(wl.probe))
        if tracer:
            tracer.phase = "warmup"
        run.warm_up()
        if tracer:
            tracer.phase = "ops"
        run.measure(args.seconds)

    n_ops = len(run.timed)
    ops_per_s = throughput(run.timed, wl.cycle)
    if tracer:
        metrics = tracer.metrics(SETUP_REPEATS, n_ops, sum(run.raw))
        metrics["applications.bandit_run.skipped_arms"] = run.handled / run.attempted
        metrics["trace.ops_per_s"] = ops_per_s
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "op_p50_ms": run.latency_ms(50),
            "op_p90_ms": run.latency_ms(90),
            **accuracy.riders(SRC / "threshold_machine"),
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "machine": machine(args.seed, nproc), "workload": args.workload, "timed_ops": n_ops,
        "handled_failures": run.handled, "handled_ops": run.handled_ops,
        "raw": {"setup_s": statistics.median(raw_setup_times),
                "ops_per_s": sum(u for _, u in run.timed) / sum(run.raw),
                "op_p50_ms": 1e3 * statistics.median(run.raw)}}))
    failed = run.failed_ops()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
