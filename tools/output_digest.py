"""SHA-256 digests of a fixed panel of threshold-machine outputs.

    python tools/output_digest.py            # digests this checkout's src/
    python tools/output_digest.py OTHER/src  # digests another checkout's package

A change that claims bit-identical outputs runs this once on each checkout
and compares the printed digests.  Each section of the panel has its own
digest, so a change that moves one section on purpose can show that the
others did not move.  Every float enters the hash as ``float.hex``, so one
differing last bit changes the digest.  A digest compares two checkouts on
one machine and one numpy version only: numpy picks its vectorized loops by
CPU, and its releases may move the draws.

The panel takes about a second on one core.  Its sections:

- ``bandit``: ``bandit_run`` on the acceptance-criterion-9 spec, seeds 0-9,
  and on the same spec with rewards averaged over a window of 4 and of 10
  draws, seeds 0-2: the initial bounds, the pulls, every round's bounds,
  the stop flag and the warnings;
- ``pipeline``: ``run_dtm`` and ``confidence_bounds`` on the five
  criterion-5 families (n = 10^4), path and config seeds 1-3, with 1 and 10
  bootstrap replicates and a free and a pinned (0.0) shape: every field of
  the report; and ``fit`` of the same paths' exceedances above the 0.95
  cutoff with the shape pinned at -0.2 and 0.2, whose grid search the
  closed-form Gumbel fit of 0.0 skips: the parameters and diagnostics;
- ``bootstrap``: the bootstrap replicate sets behind those runs,
  ``bootstrap(extract(s, u), seed + r)`` for r = 0-9 at the 0.95 cutoff:
  their indices, heights and source length;
- ``theta_boundary``: the extremal index where no gap equals 1, so that
  the likelihood's root is exactly 1 when b >= c and b / c otherwise:
  ``run_dtm`` on the iid Gaussian path of seed 7 (n = 10^4) at the 0.99
  cutoff, ``theta_closed_form`` on three gap sets with b >= c, and on the
  single gaps T = 3, 50 and 399 at the rate 2 / (T - 1) nudged one ulp up,
  where b < c;
- ``change_point``: two ``change_point_run`` calls, one small (blocks of 8
  snapshots of 190 edges) and one at the default geometry (blocks of 50
  snapshots of 4950 edges) with a change at 360 and a 440-snapshot horizon:
  the stream, the stopping time and the report;
- ``oracle``: the Monte Carlo oracle (``empirical_max_cdf``) of the same
  five families at n = 2000, 40 replicates each: the sorted maxima; and
  ``maxima`` of ``chi_square(1)`` and ``gaussian_ar1(50)`` at n = 200 from
  seeds whose 32-bit word count grows within the range (2**32 - 3 with
  L = 6, 2**64 - 2 and 2**128 - 2 with L = 4) and from the numpy seed
  ``np.int64(2**63 - 2)`` with L = 4;
- ``generate``: ``generate`` of every generator kind at n = 1 and n = 500:
  beta, chi_square, student_t, pareto, and ``gaussian_ar1`` at m = 0, 0.2
  and 50; ``generate(gaussian_ar1(0.0205, 10_000, s))``, whose decay kernel
  drops the entries that would be subnormal, ``maxima(gaussian_ar1(50,
  50_000, s), 6)``, whose paths each span two scan blocks, and
  ``maxima(gaussian_ar1(0.2, 500, s), 1027)``, many short paths, for
  s = 0-2;
- ``scan``: ``scan_series(ErGraphSpec(N=100, p0=0.1, k=10, seed=s), 5000)``
  for s = 0-2.

A call that raises is hashed as its exception's class name.  The fields in
``RETIRED`` are skipped, so a checkout that still declares one of them and
a checkout without it hash the same tokens.  Prints one digest per section,
then the digest of the whole panel, then the count of hashed values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

# (class, field) pairs that older checkouts declare and newer ones dropped
RETIRED = frozenset({("FitDiagnostics", "init")})


def tokens(value):
    """The values of ``value`` in a fixed order, each a string; floats as hex."""
    if isinstance(value, (bool, np.bool_, str, type(None))):
        yield repr(bool(value) if isinstance(value, np.bool_) else value)
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        yield float(value).hex()
    elif isinstance(value, np.ndarray):
        yield f"array{value.shape}{value.dtype}"
        for v in value.ravel().tolist():
            yield from tokens(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if (type(value).__name__, f.name) not in RETIRED:
                yield f.name
                yield from tokens(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        yield f"seq{len(value)}"
        for v in value:
            yield from tokens(v)
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def outcome(call, *args):
    """``call(*args)``, or the class name of the exception that it raises."""
    try:
        return call(*args)
    except Exception as e:
        return type(e).__name__


def bandit(tm):
    runs = [(1, seed) for seed in range(10)] + [(w, seed) for w in (4, 10) for seed in range(3)]
    for window, seed in runs:
        spec = tm.BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005, burn_in=500,
                             window=window, seed=seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = tm.bandit_run(spec, total_pulls=1100)
        yield f"bandit window={window} seed={seed}", (res, [str(w.message) for w in caught])


def families(tm):
    return {
        "beta25": tm.GeneratorSpec.beta(2, 5, 10_000, 0),
        "chi2": tm.GeneratorSpec.chi_square(1, 10_000, 0),
        "t4": tm.GeneratorSpec.student_t(4, 10_000, 0),
        "ar1_m0": tm.GeneratorSpec.gaussian_ar1(0, 10_000, 0),
        "ar1_m50": tm.GeneratorSpec.gaussian_ar1(50, 10_000, 0),
    }


def pipeline(tm):
    for name, spec in families(tm).items():
        for seed in (1, 2, 3):
            series = tm.generate(spec.with_seed(seed))
            exc = tm.extract(series, tm.quantile_cutoff(series, 0.95))
            for fix_xi in (-0.2, 0.2):
                yield f"fit {name} seed={seed} fix_xi={fix_xi}", tm.fit(exc, fix_xi)
            for reps in (1, 10):
                for fix_xi in (None, 0.0):
                    cfg = tm.DtmConfig(alpha=0.05, seed=seed, bootstrap_reps=reps, fix_xi=fix_xi)
                    label = f"{name} seed={seed} reps={reps} fix_xi={fix_xi}"
                    yield f"run_dtm {label}", tm.run_dtm(series, cfg)
                    yield f"confidence_bounds {label}", tm.confidence_bounds(series, cfg)


def bootstrap(tm):
    for name, spec in families(tm).items():
        for seed in (1, 2, 3):
            series = tm.generate(spec.with_seed(seed))
            exc = tm.extract(series, tm.quantile_cutoff(series, 0.95))
            for r in range(10):
                rep = tm.bootstrap(exc, seed + r)
                yield (f"bootstrap {name} path={seed} seed={seed + r}",
                       (rep.indices, rep.heights, rep.source_len))


def theta_boundary(tm):
    series = tm.generate(tm.GeneratorSpec.gaussian_ar1(0, 10_000, 7))
    cfg = tm.DtmConfig(alpha=0.05, cutoff_quantile=0.99, seed=0)
    yield "run_dtm ar1_m0 path=7 q=0.99", tm.run_dtm(series, cfg)
    sets = [([2, 2], 0.01), ([2, 3], 0.2), ([2, 6], 0.1)]
    sets += [([T], math.nextafter(2 / (T - 1), math.inf)) for T in (3, 50, 399)]
    for gap_list, rate in sets:
        yield (f"theta_closed_form {gap_list} rate={rate}",
               outcome(tm.theta_closed_form, tm.GapSet(np.array(gap_list), rate)))


def change_point(tm):
    spec = tm.MmdStreamSpec(block_size=8, n_nodes=20, p_pre=0.3, p_post=0.6, change_time=320,
                            horizon=400, train_len=260, bootstrap_reps=3, seed=0)
    yield "change_point_run", tm.change_point_run(spec, arl=2000.0)
    spec = tm.MmdStreamSpec(block_size=50, n_nodes=100, change_time=360, horizon=440,
                            train_len=260, bootstrap_reps=3, seed=0)
    yield "change_point_run 50x4950", tm.change_point_run(spec, arl=2000.0)


def oracle(tm):
    for name, spec in families(tm).items():
        oracle = tm.empirical_max_cdf(tm.GeneratorSpec(spec.kind, spec.params, 2000, 5), 40)
        yield f"empirical_max_cdf {name}", oracle
    for seed, L in ((2**32 - 3, 6), (2**64 - 2, 4), (2**128 - 2, 4), (np.int64(2**63 - 2), 4)):
        for spec in (tm.GeneratorSpec.chi_square(1, 200, seed),
                     tm.GeneratorSpec.gaussian_ar1(50, 200, seed)):
            yield f"maxima {spec.kind} seed={seed} L={L}", tm.maxima(spec, L)


def generate(tm):
    kinds = {
        "beta": tm.GeneratorSpec.beta(2, 5, 1, 0),
        "chi_square": tm.GeneratorSpec.chi_square(3, 1, 0),
        "student_t": tm.GeneratorSpec.student_t(4, 1, 0),
        "pareto": tm.GeneratorSpec.pareto(2.5, 1, 0),
        "ar1_m0": tm.GeneratorSpec.gaussian_ar1(0, 1, 0),
        "ar1_m0.2": tm.GeneratorSpec.gaussian_ar1(0.2, 1, 0),
        "ar1_m50": tm.GeneratorSpec.gaussian_ar1(50, 1, 0),
    }
    for name, spec in kinds.items():
        for n in (1, 500):
            sized = tm.GeneratorSpec(spec.kind, spec.params, n, 7)
            yield f"generate {name} n={n}", tm.generate(sized)
    for seed in range(3):
        spec = tm.GeneratorSpec.gaussian_ar1(0.0205, 10_000, seed)
        yield f"generate ar1_m0.0205 n=10000 seed={seed}", tm.generate(spec)
        spec = tm.GeneratorSpec.gaussian_ar1(50, 50_000, seed)
        yield f"maxima ar1_m50 n=50000 seed={seed} L=6", tm.maxima(spec, 6)
        spec = tm.GeneratorSpec.gaussian_ar1(0.2, 500, seed)
        yield f"maxima ar1_m0.2 n=500 seed={seed} L=1027", tm.maxima(spec, 1027)


def scan(tm):
    for seed in range(3):
        spec = tm.ErGraphSpec(N=100, p0=0.1, k=10, seed=seed)
        yield f"scan_series seed={seed}", tm.scan_series(spec, 5000)


SECTIONS = (bandit, pipeline, bootstrap, theta_boundary, change_point, oracle, generate, scan)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    if not (src / "threshold_machine" / "__init__.py").is_file():
        print(f"no threshold_machine package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import threshold_machine as tm

    total = hashlib.sha256()
    count = 0
    for section in SECTIONS:
        digest = hashlib.sha256()
        for label, output in section(tm):
            values = list(tokens(output))
            count += len(values)
            for token in (label, *values):
                line = token.encode() + b"\n"
                digest.update(line)
                total.update(line)
        print(f"{section.__name__:<15} {digest.hexdigest()}")
    print(f"{'total':<15} {total.hexdigest()}")
    print(f"{count} values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
