"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import threshold_machine as tm  # noqa: E402

import accuracy  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    cls = WORKLOADS[name]
    ops = range(7)
    first = [cls(11).inputs(i) for i in ops]
    assert first == [cls(11).inputs(i) for i in ops]
    other = [cls(12).inputs(i) for i in ops]
    assert all(a != b for a, b in zip(first, other))


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + ".")
            for attr, value in vars(mod).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    series = tm.generate(tm.GeneratorSpec.chi_square(1, 2000, 5))
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer() as tracer:
            tracer.phase = "ops"
            assert tm.pipeline.fit is not before[("threshold_machine.gev_fit", "fit")]
            assert tm.run_dtm is not before[("threshold_machine", "run_dtm")]
            tm.run_dtm(series, tm.DtmConfig(alpha=0.05, bootstrap_reps=2))
            1 / 0
    assert _bindings() == before
    assert tracer.calls[("ops", "pipeline.run_dtm")] == 1
    assert tracer.calls[("ops", "gev_fit.fit")] == 2
    assert tracer.calls[("ops", "exceedance.extract")] == 3
    assert tracer.fits_converged == 2
    # self times nest: the pipeline's self time excludes the spans it called
    total = sum(tracer.self_s[("ops", s)] for s in tracing.SPAN_NAMES)
    assert 0 < tracer.self_s[("ops", "gev_fit.fit")] < total


def test_output_checks_are_not_traced_as_op_work():
    series = tm.generate(tm.GeneratorSpec.chi_square(1, 2000, 5))
    with tracing.Tracer() as tracer:
        tracer.phase = "ops"
        report = tm.run_dtm(series, tm.DtmConfig(alpha=0.05, bootstrap_reps=2))
        x01 = workloads.alpha_01_threshold(report)
        assert workloads.check_threshold(report, 0.01, x01) == []
    assert tracer.calls[("ops", "evt_core.invert_tail")] == 1


class _Handled(workloads.Workload):
    """Ops that all succeed; the first ``n`` of them with a handled failure."""

    def __init__(self, n):
        super().__init__(0)
        self.n = n

    def run(self, i):
        return 1, i

    def check(self, i, out):
        return []

    def degraded(self, out):
        return ["arm 0 bounds failed"] if out < self.n else []


@pytest.mark.parametrize("n_handled, failed", [(10, 0), (11, 11)])
def test_handled_failures_count_as_failed_past_their_share(n_handled, failed):
    r = run.Run(_Handled(n_handled), tm.DtmError, probe=None)
    for i in range(100):
        r.op(i)
    assert (r.attempted, r.handled_ops) == (100, n_handled)
    assert r.failed_ops() == failed


def _run(cwd, trace, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bandit_rounds", "--seed", "3",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, section):
    out = _run(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_accuracy_riders_repeat_exactly():
    assert accuracy.compute() == accuracy.riders(SRC / "threshold_machine")


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache"))
    out = _run(tmp_path, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
