"""Cutoff selection and extraction of exceedances with their indices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidQuantileError, TooFewExceedancesError, check_level
from .resample import as_series

__all__ = ["ExceedanceSet", "GapSet", "nearest_rank", "quantile_cutoff", "extract", "gaps"]

# Fitters refuse below this many exceedances; below WARN_EXCEEDANCES the
# pipeline reports few-exceedances.
MIN_EXCEEDANCES = 10
WARN_EXCEEDANCES = 30


@dataclass(frozen=True)
class ExceedanceSet:
    """Samples strictly above a cutoff, with their 1-based indices.

    A set that :func:`extract` cut from a series keeps that validated series
    as ``path``, without a copy, so that :func:`extract` can gather bootstrap
    replicates from it; a set made through a draw, or built directly, keeps
    none.
    """

    cutoff: float
    indices: np.ndarray  # int, strictly increasing, within [1, source_len]
    heights: np.ndarray  # float, each > cutoff
    source_len: int
    path: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    check_level("quantile", q, InvalidQuantileError)
    k = nearest_rank(q, arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def extract(values, u: float, draw=None) -> ExceedanceSet:
    """All (index, value) pairs with value strictly above u, in index order.

    ``values`` is a series, or the set that ``extract(series, u)`` returned:
    the series is validated and thresholded only when it is given itself.
    With ``draw``, a one-dimensional integer index array such as
    :func:`~threshold_machine.resample.bootstrap_draw`, the result is the
    exceedance set of ``series[draw]``, gathered from the series' own
    exceedance set without that array: a hit table scattered from the set's
    indices is gathered through ``draw``, and heights are read from the
    series only at the hits, so a bootstrap replicate neither re-validates
    nor re-thresholds the series.  The result may be empty; downstream
    fitters are the ones that reject too-small sets.
    """
    if isinstance(values, ExceedanceSet):
        exc = values
        if float(u) != exc.cutoff:
            raise ValueError(f"u={u} differs from the set's cutoff {exc.cutoff}")
    else:
        arr = as_series(values)
        pos = (arr > u).nonzero()[0]
        exc = ExceedanceSet(
            cutoff=float(u),
            indices=(pos + 1).astype(np.int64, copy=False),  # 1-based
            heights=arr[pos],
            source_len=arr.size,
            path=arr,
        )
    if draw is None:
        return exc
    path = exc.path
    if path is None:
        raise ValueError(
            "a draw applies only to a set that extract cut from a series; "
            "this set keeps no series, as it was made through a draw or built directly"
        )
    hits = np.zeros(path.size, dtype=bool)
    hits[exc.indices - 1] = True
    mask = np.take(hits, draw)  # the hits of series[draw]; take outpaces hits[draw]
    pos = mask.nonzero()[0]
    return ExceedanceSet(
        cutoff=exc.cutoff,
        indices=(pos + 1).astype(np.int64, copy=False),
        heights=path[draw[pos]],
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
