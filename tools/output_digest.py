"""One SHA-256 over a fixed panel of threshold-machine outputs.

    python tools/output_digest.py            # digests this checkout's src/
    python tools/output_digest.py OTHER/src  # digests another checkout's package

A change that claims bit-identical outputs runs this once on each checkout
and compares the two printed digests.  Every float enters the hash as
``float.hex``, so one differing last bit changes the digest.  A digest
compares two checkouts on one machine and one numpy version only: numpy
picks its vectorized loops by CPU, and its releases may move the draws.

The panel takes about a second on one core:

- ``bandit_run`` on the acceptance-criterion-9 spec, seeds 0-9: the initial
  bounds, the pulls, every round's bounds, the stop flag and the warnings;
- ``run_dtm`` and ``confidence_bounds`` on the five criterion-5 families
  (n = 10^4), path and config seeds 1-3, with 1 and 10 bootstrap replicates
  and a free and a pinned (0.0) shape: every field of the report;
- the bootstrap replicate sets behind those runs, ``bootstrap(extract(s,
  u), seed + r)`` for r = 0-9 at the 0.95 cutoff: their indices, heights
  and source length;
- one small ``change_point_run``: the stream, the stopping time and the
  report;
- the Monte Carlo oracle (``empirical_max_cdf``) of the same five families
  at n = 2000, 40 replicates each: the sorted maxima;
- ``generate`` of every generator kind at n = 1 and n = 500: beta,
  chi_square, student_t, pareto, ``gaussian_ar1`` at m = 0, 0.2 (rows
  shorter than 64 steps) and 50, and ``moving_average`` with window 1 and 4.

Prints the digest, then the count of hashed values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np


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
            yield f.name
            yield from tokens(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        yield f"seq{len(value)}"
        for v in value:
            yield from tokens(v)
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def panel(tm):
    """(label, output) pairs of the fixed panel, computed with package ``tm``."""
    for seed in range(10):
        spec = tm.BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005, burn_in=500, seed=seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = tm.bandit_run(spec, total_pulls=1100)
        yield f"bandit seed={seed}", (res, [str(w.message) for w in caught])

    families = {
        "beta25": tm.GeneratorSpec.beta(2, 5, 10_000, 0),
        "chi2": tm.GeneratorSpec.chi_square(1, 10_000, 0),
        "t4": tm.GeneratorSpec.student_t(4, 10_000, 0),
        "ar1_m0": tm.GeneratorSpec.gaussian_ar1(0, 10_000, 0),
        "ar1_m50": tm.GeneratorSpec.gaussian_ar1(50, 10_000, 0),
    }
    for name, spec in families.items():
        for seed in (1, 2, 3):
            series = tm.generate(spec.with_seed(seed))
            for reps in (1, 10):
                for fix_xi in (None, 0.0):
                    cfg = tm.DtmConfig(alpha=0.05, seed=seed, bootstrap_reps=reps, fix_xi=fix_xi)
                    label = f"{name} seed={seed} reps={reps} fix_xi={fix_xi}"
                    yield f"run_dtm {label}", tm.run_dtm(series, cfg)
                    yield f"confidence_bounds {label}", tm.confidence_bounds(series, cfg)
            exc = tm.extract(series, tm.quantile_cutoff(series, 0.95))
            for r in range(10):
                rep = tm.bootstrap(exc, seed + r)
                yield (f"bootstrap {name} path={seed} seed={seed + r}",
                       (rep.indices, rep.heights, rep.source_len))

    spec = tm.MmdStreamSpec(block_size=8, n_nodes=20, p_pre=0.3, p_post=0.6, change_time=320,
                            horizon=400, train_len=260, bootstrap_reps=3, seed=0)
    yield "change_point_run", tm.change_point_run(spec, arl=2000.0)

    for name, spec in families.items():
        oracle = tm.empirical_max_cdf(tm.GeneratorSpec(spec.kind, spec.params, 2000, 5), 40)
        yield f"empirical_max_cdf {name}", oracle

    kinds = {
        "beta": tm.GeneratorSpec.beta(2, 5, 1, 0),
        "chi_square": tm.GeneratorSpec.chi_square(3, 1, 0),
        "student_t": tm.GeneratorSpec.student_t(4, 1, 0),
        "pareto": tm.GeneratorSpec.pareto(2.5, 1, 0),
        "ar1_m0": tm.GeneratorSpec.gaussian_ar1(0, 1, 0),
        "ar1_m0.2": tm.GeneratorSpec.gaussian_ar1(0.2, 1, 0),
        "ar1_m50": tm.GeneratorSpec.gaussian_ar1(50, 1, 0),
        "ma_w1": tm.GeneratorSpec.moving_average(tm.GeneratorSpec.beta(2, 5, 1, 0), 1, 1, 0),
        "ma_w4": tm.GeneratorSpec.moving_average(tm.GeneratorSpec.student_t(4, 1, 0), 4, 1, 0),
    }
    for name, spec in kinds.items():
        for n in (1, 500):
            yield f"generate {name} n={n}", tm.generate(tm.GeneratorSpec(spec.kind, spec.params, n, 7))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    if not (src / "threshold_machine" / "__init__.py").is_file():
        print(f"no threshold_machine package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import threshold_machine as tm

    digest = hashlib.sha256()
    count = 0
    for label, output in panel(tm):
        digest.update(label.encode() + b"\n")
        for token in tokens(output):
            digest.update(token.encode() + b"\n")
            count += 1
    print(digest.hexdigest())
    print(f"{count} values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
