"""Accuracy riders: how far the pipeline's alpha is from the truth.

The riders are computed on a fixed reference panel, the same for every seed
and workload: 20 paths of n = 1e4 from each of the five criterion-5
families (path j drawn from seed 1000 j + 1), each fitted as the
``marginal_fit`` workload fits a path, and one 2000-replicate oracle of the
maximum per family.  On paths drawn from the benchmark seed the ratio moves
by about half its median from seed to seed, more than any bound the
benchmark may set, so a seed-driven panel could not catch a regression.
On a fixed panel the riders change only when the program changes.

- ``realized_alpha_ratio``: for each family and alpha in {0.05, 0.01}, the
  median over paths of the oracle's P{max > x} / alpha; the metric is the
  median over those ten cells.
- ``tail_gap``: the median sup-norm gap between the fitted max distribution
  and the oracle (guards against buying a low ratio with an over-conservative
  threshold).

The panel takes about 17 s on a 2-core x86 machine, so its result is cached
under ``.cache/`` next to this file, keyed by a hash of the package sources,
this file, ``workloads.py`` (which defines the panel's families, sizes and
pipeline config) and the numpy and scipy versions.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import scipy

import threshold_machine as tm
import workloads
from workloads import MarginalFit, alpha_01_threshold

ALPHAS = (MarginalFit.ALPHA, 0.01)  # the op's alpha and the one from invert_tail
CACHE_DIR = Path(__file__).resolve().parent / ".cache"


def compute() -> dict[str, float]:
    """Fit the reference panel and score it against the oracles."""
    cells, gaps = [], []
    for f, spec in enumerate(MarginalFit.FAMILIES):
        oracle = tm.empirical_max_cdf(spec.with_seed(100_000 + 2000 * f),
                                      MarginalFit.ORACLE_REPLICATES)
        realized = {alpha: [] for alpha in ALPHAS}
        for j in range(MarginalFit.PATHS_PER_FAMILY):
            path = tm.generate(spec.with_seed(1000 * j + 1))
            report = tm.run_dtm(path, MarginalFit.dtm_config(j))
            for alpha, x in zip(ALPHAS, (report.threshold, alpha_01_threshold(report))):
                realized[alpha].append((1.0 - float(oracle.cdf(x))) / alpha)
            gaps.append(tm.sup_norm_gap(oracle, report.model))
        cells += [float(np.median(v)) for v in realized.values()]
    return {"realized_alpha_ratio": float(np.median(cells)),
            "tail_gap": float(np.median(gaps))}


def cache_key(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")) + [Path(__file__).resolve(),
                                             Path(workloads.__file__).resolve()]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    return h.hexdigest()[:20]


def riders(src: Path) -> dict[str, float]:
    """The riders for the package under ``src``, from the cache if present."""
    path = CACHE_DIR / f"accuracy-{cache_key(src)}.json"
    if path.exists():
        return json.loads(path.read_text())
    values = compute()
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(values))
    os.replace(tmp, path)
    return values
