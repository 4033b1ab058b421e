"""Brute-force ground truth for the distribution of the series maximum.

Simulates L independent series from a generator spec (replicate j drawing
from seed + j), records each maximum, and exposes the empirical distribution:
the expensive reference that the one-sample pipeline is meant to replace.

The maxima come from :func:`generators.maxima`, which seeds path j with
``make_rng(spec.seed + j)`` and draws each path alone through the routine
behind :func:`generators.generate`; every maximum equals the one of
``generate(spec.with_seed(spec.seed + j))`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuantileError, InvalidSeriesError, check_level
from .evt_core import TailModel, model_max_cdf
from .exceedance import as_series, nearest_rank
from .generators import GeneratorSpec, maxima

__all__ = ["EmpiricalMaxDist", "empirical_max_cdf", "mc_threshold", "sup_norm_gap"]


@dataclass(frozen=True)
class EmpiricalMaxDist:
    """Sorted maxima of L independently generated series: a 1-D, non-empty,
    finite and nondecreasing array, or :class:`InvalidSeriesError`."""

    maxima: np.ndarray

    def __post_init__(self):
        maxima = as_series(self.maxima)
        # the nearest-rank quantile and the CDF's searchsorted read the order
        if (maxima[1:] < maxima[:-1]).any():
            raise InvalidSeriesError("maxima must be sorted nondecreasing")
        object.__setattr__(self, "maxima", maxima)

    @property
    def L(self) -> int:
        return self.maxima.size

    def cdf(self, x) -> np.ndarray:
        """Right-continuous empirical CDF of the maxima."""
        return np.searchsorted(self.maxima, np.asarray(x, dtype=float), side="right") / self.L


def empirical_max_cdf(spec: GeneratorSpec, L: int) -> EmpiricalMaxDist:
    """Empirical distribution of the max over L replicates of ``spec``."""
    drawn = maxima(spec, L)
    drawn.sort()
    return EmpiricalMaxDist(drawn)


def mc_threshold(dist: EmpiricalMaxDist, alpha: float) -> float:
    """Nearest-rank (1 - alpha) quantile of the simulated maxima."""
    check_level("alpha", alpha, InvalidQuantileError)
    return float(dist.maxima[nearest_rank(1.0 - alpha, dist.L) - 1])


def sup_norm_gap(dist: EmpiricalMaxDist, model: TailModel) -> float:
    """Sup over the simulated maxima of |empirical CDF - model max CDF|."""
    emp = dist.cdf(dist.maxima)
    mod = model_max_cdf(model, dist.maxima)
    return float(np.max(np.abs(emp - mod)))
