"""Series validation, cutoff selection, and extraction of exceedances with
their indices: a series enters the package only through this module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidQuantileError, InvalidSeriesError, TooFewExceedancesError, check_level

__all__ = ["as_series", "ExceedanceSet", "GapSet", "nearest_rank", "quantile_cutoff", "extract",
           "gaps"]

# Fitters refuse below this many exceedances; below WARN_EXCEEDANCES the
# pipeline reports few-exceedances.
MIN_EXCEEDANCES = 10
WARN_EXCEEDANCES = 30


def as_series(values) -> np.ndarray:
    """Validate a series and return it as a float ndarray: one-dimensional,
    finite, length >= 1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidSeriesError(f"series must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidSeriesError("series must contain at least one value")
    if not np.logical_and.reduce(np.isfinite(arr)):  # .all() without its method wrapper
        raise InvalidSeriesError("series contains non-finite values")
    return arr


@dataclass(frozen=True)
class ExceedanceSet:
    """Samples strictly above a cutoff, with their 1-based indices.

    A set that ``extract(series, u)`` cut keeps that validated series as
    ``path``, without a copy, and its hit table ``path > cutoff`` as
    ``mask``; ``extract(exc, u, draw)`` gathers a bootstrap replicate from
    them.  A replicate, or a set built directly, keeps neither.
    """

    cutoff: float
    indices: np.ndarray  # int, strictly increasing, within [1, source_len]
    heights: np.ndarray  # float, each > cutoff
    source_len: int
    path: np.ndarray | None = field(default=None, compare=False, repr=False)
    mask: np.ndarray | None = field(default=None, compare=False, repr=False)

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
    part = arr.copy()  # np.partition's own copy and method, without its wrapper
    part.partition(k - 1)
    return float(part[k - 1])


def extract(values, u: float, draw=None) -> ExceedanceSet:
    """All (index, value) pairs with value strictly above u, in index order.

    ``extract(series, u)`` validates the series and cuts it at u.
    ``extract(exc, u, draw)``, with ``exc`` the set that ``extract(series,
    u)`` returned and ``draw`` a one-dimensional integer index array, is the
    exceedance set of ``series[draw]``: the set's hit table ``mask`` is
    gathered through ``draw`` and heights are read from the series at the
    hits, so a bootstrap replicate re-validates and re-thresholds nothing.
    Any other form, a draw of another type or shape, a set cut at another
    u, or one keeping no series raises ``ValueError``.  The result may be
    empty; fitters reject too-small sets.
    """
    if (draw is None) == isinstance(values, ExceedanceSet):
        raise ValueError("extract takes a series, or a set it cut from one with a draw")
    if draw is None:
        arr = as_series(values)
        mask = arr > u
        pos = mask.nonzero()[0]
        return ExceedanceSet(
            cutoff=float(u),
            indices=pos + 1,  # 1-based
            heights=arr[pos],
            source_len=arr.size,
            path=arr,
            mask=mask,
        )
    if not (isinstance(draw, np.ndarray) and draw.ndim == 1 and draw.dtype.kind in "iu"):
        raise ValueError("draw must be a one-dimensional integer index array")
    exc = values
    if float(u) != exc.cutoff:
        raise ValueError(f"u={u} differs from the set's cutoff {exc.cutoff}")
    path = exc.path
    if path is None or exc.mask is None:
        raise ValueError("this set keeps no series: it was made through a draw or built directly")
    hit = exc.mask.take(draw)  # the hits of series[draw]; take outpaces mask[draw]
    pos = hit.nonzero()[0]
    return ExceedanceSet(
        cutoff=exc.cutoff,
        indices=pos + 1,
        heights=path[draw[pos]],
        source_len=hit.size,
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
