"""The benchmark workloads.

Each workload derives every input from the benchmark seed, builds what its
ops in the steps :meth:`setup_steps` returns, runs one public call per op
in :meth:`run`, and checks that op's outputs in :meth:`check` (outside the
timed region).  A check returns a list of wrong outputs, each of which makes
the op a failed op; :meth:`degraded` lists failures the program handled
itself, such as a bandit arm whose bounds could not be fitted for a round.

The checks call the package through names bound here at import, before any
tracer wraps the package's own bindings, so check work is never counted as
op work in a traced run.

The caller must put the package on ``sys.path`` before importing this file.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

import threshold_machine as tm
from threshold_machine.evt_core import invert_tail, model_max_cdf

IDENTITY_TOL = 1e-9  # |G(x)^theta - (1 - alpha)|, acceptance criterion 1


def derive(*keys: int) -> int:
    """A seed derived from the benchmark seed and integer keys.

    Kept below 2**62 so that the oracle's per-replicate offsets (seed + j)
    stay valid seeds.
    """
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0] >> 2)


def check_threshold(report, alpha: float, x: float | None = None) -> list[str]:
    """The threshold is finite and satisfies G(x)^theta = 1 - alpha."""
    x = report.threshold if x is None else x
    if not math.isfinite(x):
        return [f"threshold {x} at alpha={alpha} is not finite"]
    gap = abs(model_max_cdf(report.model, x) - (1.0 - alpha))
    if gap > IDENTITY_TOL:
        return [f"G(x)^theta misses 1 - alpha={1 - alpha} by {gap:.3g} at x={x}"]
    return []


def alpha_01_threshold(report) -> float:
    """The alpha = 0.01 threshold from the same fitted model."""
    return invert_tail(report.model.params, -math.log1p(-0.01) / report.model.theta)


class Workload:
    """Defaults shared by the workloads.

    ``inputs(i)`` describes everything op i receives (generator specs,
    harness specs and pipeline configs), derived from the seed alone.
    """

    cycle = 1  # ops per balanced block of inputs
    probe = ("optimizer",)  # run.Probe kinds that gauge machine speed for the ops

    def __init__(self, seed: int):
        self.seed = seed

    def setup_steps(self) -> list:
        """The set-up as a list of calls, so that each can be timed apart."""
        return []

    def degraded(self, out) -> list[str]:
        return []


class MarginalFit(Workload):
    """run_dtm on n = 1e4 paths from the five acceptance-criterion-5 families.

    Set-up generates 20 paths per family and a 2000-replicate oracle of the
    maximum per family; the oracles are built so that ``setup_s`` measures
    ``mc_oracle`` and ``generators`` (the accuracy riders score a fixed
    panel of their own, see ``accuracy.py``).  Ops visit the paths
    round-robin across families so that every block of five ops holds one
    path of each family.
    """

    name = "marginal_fit"
    key = 0
    cycle = 5
    FAMILIES = (  # beta(2,5), chi2(1), t4, iid Gaussian, AR(1) m = 50
        tm.GeneratorSpec.beta(2, 5, 10_000, 0),
        tm.GeneratorSpec.chi_square(1, 10_000, 0),
        tm.GeneratorSpec.student_t(4, 10_000, 0),
        tm.GeneratorSpec.gaussian_ar1(0, 10_000, 0),
        tm.GeneratorSpec.gaussian_ar1(50, 10_000, 0),
    )
    PATHS_PER_FAMILY = 20
    ORACLE_REPLICATES = 2000
    ALPHA = 0.05

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n_paths = self.PATHS_PER_FAMILY * len(self.FAMILIES)

    @classmethod
    def dtm_config(cls, seed: int):
        """The pipeline config every path is fitted with."""
        return tm.DtmConfig(alpha=cls.ALPHA, cutoff_quantile=0.95, bootstrap_reps=10, seed=seed)

    def path_spec(self, p: int):
        family, k = p % len(self.FAMILIES), p // len(self.FAMILIES)
        return self.FAMILIES[family].with_seed(derive(self.seed, self.key, 0, family, k))

    def oracle_spec(self, family: int):
        return self.FAMILIES[family].with_seed(derive(self.seed, self.key, 1, family))

    def config(self, p: int):
        return self.dtm_config(derive(self.seed, self.key, 2, p))

    def inputs(self, i: int):
        p = i % self.n_paths
        return self.path_spec(p), self.oracle_spec(p % len(self.FAMILIES)), self.config(p)

    def setup_steps(self) -> list:
        self.oracles = [None] * len(self.FAMILIES)
        return [self._generate_paths] + [functools.partial(self._build_oracle, f)
                                         for f in range(len(self.FAMILIES))]

    def _generate_paths(self) -> None:
        self.paths = [tm.generate(self.path_spec(p)) for p in range(self.n_paths)]

    def _build_oracle(self, family: int) -> None:
        self.oracles[family] = tm.empirical_max_cdf(self.oracle_spec(family),
                                                    self.ORACLE_REPLICATES)

    def run(self, i: int):
        p = i % self.n_paths
        return 1, tm.run_dtm(self.paths[p], self.config(p))

    def check(self, i: int, report) -> list[str]:
        return (check_threshold(report, self.ALPHA)
                + check_threshold(report, 0.01, alpha_01_threshold(report)))


class LongPath(Workload):
    """run_dtm on AR(1) m = 50 paths of n = 1e6 at a 0.9995 cutoff.

    Ops cycle over eight paths: the fit's iteration count differs by up to a
    half from one path to the next, which few paths per seed would turn into
    seed-to-seed spread of the timings.  Over seeds 11-20, the mean count
    over four paths had a quartile spread of 0.10, over eight 0.045.
    """

    name = "long_path"
    key = 1
    cycle = 8
    probe = ("gather", "optimizer")
    N = 1_000_000
    ALPHA = 0.05

    def path_spec(self, k: int):
        return tm.GeneratorSpec.gaussian_ar1(50, self.N, derive(self.seed, self.key, 0, k))

    def config(self, i: int):
        return tm.DtmConfig(alpha=self.ALPHA, cutoff_quantile=0.9995, bootstrap_reps=10,
                            seed=derive(self.seed, self.key, 1, i))

    def inputs(self, i: int):
        return self.path_spec(i % self.cycle), self.config(i)

    def setup_steps(self) -> list:
        self.paths = [None] * self.cycle
        return [functools.partial(self._generate_path, k) for k in range(self.cycle)]

    def _generate_path(self, k: int) -> None:
        self.paths[k] = tm.generate(self.path_spec(k))

    def run(self, i: int):
        return 1, tm.run_dtm(self.paths[i % self.cycle], self.config(i))

    def check(self, i: int, report) -> list[str]:
        return check_threshold(report, self.ALPHA)


class BanditRounds(Workload):
    """bandit_run with the acceptance-criterion-9 spec, one spec per op.

    The unit of work is one confidence_bounds update: K initial bounds plus
    one per pull.
    """

    name = "bandit_rounds"
    key = 2
    TOTAL_PULLS = 1100

    def inputs(self, i: int):
        return tm.BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005, burn_in=500,
                             seed=derive(self.seed, self.key, i))

    def run(self, i: int):
        spec = self.inputs(i)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = tm.bandit_run(spec, self.TOTAL_PULLS)
        return spec.n_arms + len(result.pulls), (result, caught)

    def degraded(self, out) -> list[str]:
        """The harness's "arm k bounds failed" warnings."""
        return [str(w.message) for w in out[1]
                if issubclass(w.category, tm.FitWarning) and str(w.message).startswith("arm ")]

    def check(self, i: int, out) -> list[str]:
        result = out[0]
        problems = []
        for bounds in [result.initial_bounds] + result.bounds_history:
            for k, b in enumerate(bounds):
                if b is None:  # skipped arm; its warning is counted by degraded()
                    continue
                if not (math.isfinite(b[0]) and math.isfinite(b[1])):
                    problems.append(f"arm {k} bounds {b} not finite")
                elif not b[0] < b[1]:
                    problems.append(f"arm {k} lcb {b[0]} >= ucb {b[1]}")
        return problems


WORKLOADS = {w.name: w for w in (MarginalFit, LongPath, BanditRounds)}
