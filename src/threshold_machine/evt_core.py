"""The generalized extreme value family, the fitted tail model, and the maps
between levels and thresholds.

The family is parameterized by location ``mu``, scale ``sigma`` and shape
``xi``.  ``xi > 0`` gives the Frechet (heavy) tail, ``xi < 0`` the Weibull
(bounded) tail and ``xi = 0`` the Gumbel limit.  With ``z = (x - mu)/sigma``
the tail function is ``C(x) = -log G(x) = (1 + xi*z)**(-1/xi)``, so
``log C(x)`` is minus the inverse of the Box-Cox map ``expm1(xi*v)/xi`` at
``z``.  :func:`invert_tail` solves ``C(x) = y`` through the map for one
float ``y``; :func:`model_max_cdf` evaluates ``G(x)**theta`` through
``log C`` at a scalar or an array.  This module alone decides the Gumbel
limit: both maps are the identity for shapes with ``|xi|`` below
:data:`XI_GUMBEL_TOL`, which avoids catastrophic cancellation near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParamsError,
    InvalidQuantileError,
    InvalidTargetError,
    check_count,
    check_level,
    check_real,
)

__all__ = [
    "XI_GUMBEL_TOL",
    "GevParams",
    "TailModel",
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
        check_real("mu", self.mu, -math.inf, InvalidParamsError)
        check_real("sigma", self.sigma, 0, InvalidParamsError)
        check_real("xi", self.xi, -math.inf, InvalidParamsError)


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
        check_real("theta", self.theta, 0, InvalidParamsError, 1, "(]")
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
    if _is_gumbel(params.xi):
        return -z
    b = params.xi * z
    return -np.log1p(np.where(b > -1, b, np.nan)) / params.xi


def invert_tail(params: GevParams, y) -> float:
    """Solve C(x) = y for x: ``mu + sigma * expm1(-xi*log y)/xi``.

    ``y`` is one positive finite real: a Python or numpy number, or a 0-d
    array, each read as its float.  Over the support, ``x`` comes back from
    ``y = C(x)`` to relative error below 1e-9.
    """
    if isinstance(y, np.ndarray):
        if y.ndim:
            raise InvalidTargetError(f"inversion target must be one real, got shape {y.shape}")
        y = y[()]  # the numpy scalar it holds, so a bool is refused below
    check_real("inversion target", y, 0, InvalidTargetError)
    return float(params.mu + params.sigma * _box_cox(params.xi, -np.log(float(y))))


def model_max_cdf(model: TailModel, x):
    """P{max of the modeled series <= x}: ``G(x)**theta = exp(-theta * C(x))``,
    clamped by continuity outside the support: 0 below the lower endpoint
    (xi > 0), 1 above the upper one (xi < 0); nan at a nan ``x``.  Scaling
    ``C`` by ``theta`` first avoids the underflow of ``G``."""
    arr = np.asarray(x, dtype=float)
    log_c = _log_tail(model.params, arr)
    # a nan x has a nan log C too, but lies on neither side of the support
    outside = np.isnan(log_c) & ~np.isnan(arr)
    out = np.where(outside, float(model.params.xi < 0), np.exp(-model.theta * np.exp(log_c)))
    return float(out) if arr.ndim == 0 else out
