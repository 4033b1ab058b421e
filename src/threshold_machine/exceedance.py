"""Cutoff selection and extraction of exceedances with their indices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuantileError, TooFewExceedancesError
from .resample import as_series

__all__ = ["ExceedanceSet", "GapSet", "nearest_rank", "quantile_cutoff", "extract", "gaps"]

# Fitters refuse below this many exceedances; below WARN_EXCEEDANCES the
# pipeline reports few-exceedances.
MIN_EXCEEDANCES = 10
WARN_EXCEEDANCES = 30


@dataclass(frozen=True)
class ExceedanceSet:
    """Samples strictly above a cutoff, with their 1-based indices."""

    cutoff: float
    indices: np.ndarray  # int, strictly increasing, within [1, source_len]
    heights: np.ndarray  # float, each > cutoff
    source_len: int

    def __post_init__(self):
        if len(self.indices) != len(self.heights):
            raise ValueError("indices and heights must have equal length")

    @property
    def n_u(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GapSet:
    """Inter-exceedance index gaps T_k and the exceedance rate n_u / n."""

    gaps: np.ndarray  # int, each >= 1
    rate: float  # in (0, 1]

    @property
    def n_u(self) -> int:
        return len(self.gaps) + 1


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of the nearest-rank q-quantile of n values: ceil(q*n),
    clipped to [1, n].

    A tiny snap window absorbs floating-point noise in q*n (e.g. 0.95 * 100
    evaluating just above 95).
    """
    qn = q * n
    nearest = round(qn)
    k = nearest if abs(qn - nearest) < 1e-9 * max(1.0, qn) and nearest >= 1 else math.ceil(qn)
    return min(max(k, 1), n)


def quantile_cutoff(values, q: float) -> float:
    """Nearest-rank empirical quantile: the :func:`nearest_rank`-th smallest value.

    The cutoff is always an observed value, so the exceedance count is
    deterministic.
    """
    arr = as_series(values)
    if not (0.0 < q < 1.0) or not np.isfinite(q):
        raise InvalidQuantileError(f"quantile must lie in (0, 1), got {q}")
    k = nearest_rank(q, arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def extract(values, u: float, draw=None) -> ExceedanceSet:
    """All (index, value) pairs with value strictly above u, in index order.

    With ``draw``, a one-dimensional integer index array such as
    :func:`~threshold_machine.resample.bootstrap_draw`, this is the
    exceedance set of ``values[draw]``, built without that array: the mask of
    ``values`` is gathered through ``draw`` and heights are gathered only at
    the hits.  The result may be empty; downstream fitters are the ones that
    reject too-small sets.
    """
    arr = as_series(values)
    mask = arr > u
    if draw is not None:
        mask = np.take(mask, draw)  # the mask of values[draw]; take outpaces mask[draw]
    pos = mask.nonzero()[0]
    return ExceedanceSet(
        cutoff=float(u),
        indices=(pos + 1).astype(np.int64, copy=False),  # 1-based
        heights=arr[pos] if draw is None else arr[draw[pos]],
        source_len=mask.size,
    )


def gaps(exc: ExceedanceSet) -> GapSet:
    """Inter-exceedance gaps T_k = i_{k+1} - i_k and the rate n_u / n."""
    if exc.n_u < 2:
        raise TooFewExceedancesError(
            f"need at least 2 exceedances to form gaps, got {exc.n_u}"
        )
    return GapSet(
        gaps=exc.indices[1:] - exc.indices[:-1],
        rate=exc.n_u / exc.source_len,
    )
