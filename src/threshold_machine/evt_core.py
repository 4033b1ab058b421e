"""Evaluation of the generalized extreme value family.

The family is parameterized by location ``mu``, scale ``sigma`` and shape
``xi``.  ``xi > 0`` gives the Frechet (heavy) tail, ``xi < 0`` the Weibull
(bounded) tail and ``xi = 0`` the Gumbel limit.  With ``z = (x - mu)/sigma``
the tail function is ``C(x) = -log G(x) = (1 + xi*z)**(-1/xi)``, so
``log C(x)`` is minus the inverse of the Box-Cox map ``expm1(xi*v)/xi`` at
``z``.  This module alone decides the Gumbel limit: both maps are the
identity for shapes with ``|xi|`` below :data:`XI_GUMBEL_TOL`, which avoids
catastrophic cancellation near zero.

All functions are pure and accept scalars or arrays in ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParamsError,
    InvalidQuantileError,
    InvalidTargetError,
    OutOfSupportError,
    check_count,
    check_level,
    check_real,
)

__all__ = [
    "XI_GUMBEL_TOL",
    "GevParams",
    "TailModel",
    "gev_cdf",
    "tail_fn",
    "invert_tail",
    "model_max_cdf",
]

# Shapes closer to zero than this are treated as exactly Gumbel.
XI_GUMBEL_TOL = 1e-8


@dataclass(frozen=True)
class GevParams:
    """Location / scale / shape triple of the extreme value family."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)
                and math.isfinite(self.xi)):
            raise InvalidParamsError(f"parameters must be finite, got {self}")
        if self.sigma <= 0:
            raise InvalidParamsError(f"sigma must be > 0, got {self.sigma}")

    @property
    def is_gumbel(self) -> bool:
        return _is_gumbel(self.xi)


@dataclass(frozen=True)
class TailModel:
    """Fitted tail model: G(x)^theta evaluated over a horizon of n samples.

    ``theta`` is the extremal index in (0, 1]; ``cutoff`` is the exceedance
    level the parameters were fitted above; ``horizon`` the series length the
    max distribution refers to.  None of them depends on a level, so one
    model answers every level: :meth:`upper` and :meth:`lower` are the only
    maps from a level ``alpha`` to a threshold.
    """

    params: GevParams
    theta: float
    cutoff: float
    horizon: int

    def __post_init__(self):
        check_real("theta", self.theta, 0, InvalidParamsError)
        if self.theta > 1:
            raise InvalidParamsError(f"theta must lie in (0, 1], got {self.theta!r}")
        check_real("cutoff", self.cutoff, -math.inf, InvalidParamsError)
        check_count("horizon", self.horizon, 1, InvalidParamsError)

    def upper(self, alpha: float) -> float:
        """The x with P{max > x} = alpha: ``C^-1(-log(1 - alpha) / theta)``."""
        check_level("alpha", alpha, InvalidQuantileError)
        return invert_tail(self.params, -math.log1p(-alpha) / self.theta)

    def lower(self, alpha: float) -> float:
        """The x with P{max < x} = alpha: ``C^-1(-log(alpha) / theta)``."""
        check_level("alpha", alpha, InvalidQuantileError)
        return invert_tail(self.params, -math.log(alpha) / self.theta)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _is_gumbel(xi: float) -> bool:
    return abs(xi) < XI_GUMBEL_TOL


def _box_cox(xi: float, v):
    """``expm1(xi*v) / xi``; ``v`` itself on the Gumbel branch."""
    return v if _is_gumbel(xi) else np.expm1(xi * v) / xi


def _log_tail(params: GevParams, x):
    """``log C(x) = -log1p(xi*z) / xi`` with ``z = (x - mu)/sigma``, minus the
    inverse of :func:`_box_cox` at ``z``; ``-z`` on the Gumbel branch and nan
    outside the support ``1 + xi*z > 0``."""
    z = (np.asarray(x, dtype=float) - params.mu) / params.sigma
    if params.is_gumbel:
        return -z
    b = params.xi * z
    return -np.log1p(np.where(b > -1, b, np.nan)) / params.xi


def _max_cdf(params: GevParams, theta: float, x):
    """``G(x)**theta = exp(-theta * C(x))``, clamped by continuity outside the
    support: 0 below the lower endpoint (xi > 0), 1 above the upper one
    (xi < 0).  Scaling ``C`` by ``theta`` first avoids the underflow of ``G``."""
    arr, scalar = _as_array(x)
    log_c = _log_tail(params, arr)
    out = np.where(np.isnan(log_c), float(params.xi < 0), np.exp(-theta * np.exp(log_c)))
    return float(out) if scalar else out


def gev_cdf(params: GevParams, x):
    """CDF G(x) of the extreme value family, clamped outside the support."""
    return _max_cdf(params, 1.0, x)


def tail_fn(params: GevParams, x):
    """Tail function C(x) = -log G(x), strictly decreasing on the support.

    Unlike :func:`gev_cdf` this errors outside the support because the
    likelihoods built on top of it are undefined there.
    """
    arr, scalar = _as_array(x)
    log_c = _log_tail(params, arr)
    if np.any(np.isnan(log_c)):
        raise OutOfSupportError(
            f"x outside support of {params}: 1 + xi*(x-mu)/sigma must be > 0"
        )
    out = np.exp(log_c)
    return float(out) if scalar else out


def invert_tail(params: GevParams, y):
    """Solve C(x) = y for x.

    ``y`` must be positive and finite; round-trips with :func:`tail_fn` to
    relative error below 1e-9.
    """
    if isinstance(y, float):
        # a Python or numpy float skips the array round trip; the logarithm
        # stays numpy's, so both paths return the same bits
        if not 0 < y < math.inf:
            raise InvalidTargetError(f"inversion target must be positive and finite, got {y}")
        return float(params.mu + params.sigma * _box_cox(params.xi, -np.log(y)))
    arr, scalar = _as_array(y)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidTargetError(f"inversion target must be positive and finite, got {y}")
    out = params.mu + params.sigma * _box_cox(params.xi, -np.log(arr))
    return float(out) if scalar else out


def model_max_cdf(model: TailModel, x):
    """P{max of the modeled series <= x}, i.e. G(x)**theta."""
    return _max_cdf(model.params, model.theta, x)
