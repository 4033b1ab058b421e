"""Tail parameter estimation from exceedance heights.

The likelihood is that of a marked Poisson process over normalized time
(0, 1] with intensity ``C(x)`` above the cutoff: exceedance indices carry no
information once the cutoff is fixed, so the negative log likelihood depends
only on the heights and the cutoff,

    NLL = C(u) + n_u * log sigma - (1 + xi) * sum_k log C(h_k)

with ``log C`` from :mod:`evt_core`, which also decides the Gumbel limit.

The fit is exact.  With ``sigma_u = sigma + xi*(u - mu)`` the NLL splits into
a Poisson count term, minimized at ``C(u) = n_u``, and the generalized Pareto
NLL of the excesses ``y = h - u`` (Coles 2001, ch. 7).  In terms of
``t = xi * max(y) / sigma_u`` and ``k = mean(log1p(t * y / max(y)))`` the
Pareto NLL per exceedance is ``log(sigma_u / max(y)) + k + k/xi`` plus
``log max(y)``.  A free shape is profiled out at ``xi = k`` (Grimshaw 1993),
restricted to ``k > -1`` (below ``xi = -1`` the likelihood is unbounded); a
pinned shape keeps its ``xi``, with ``sigma_u = xi * max(y) / t``.  Either way
one search minimizes the profile over ``t``: a fixed grid in ``log1p(t)``,
then a bounded scalar search between the best point's grid neighbours.  A
pinned Gumbel shape is the closed form ``sigma_u = mean(y)``.  Then
``sigma = sigma_u * n_u**xi`` and ``mu = u + sigma_u * (n_u**xi - 1)/xi``.

The search runs on ``y / max(y)``, so the fit is affine-equivariant up to
the search tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (DegenerateHeightsError, InvalidConfigError, SmallSampleWarning,
                     TooFewExceedancesError)
from .evt_core import GevParams, _box_cox, _is_gumbel, _log_tail
from .exceedance import MIN_EXCEEDANCES, WARN_EXCEEDANCES, ExceedanceSet

__all__ = ["FitOptions", "FitDiagnostics", "neg_log_likelihood", "fit"]

# Profile grid in log1p(t): steps of 1/4 up to t = 8.1e3, through t = 0, then
# unit steps up to t = 1e13, where shapes xi >> 1 put their optimum (t ~ n_u**xi).
_LOG1P_T_GRID = np.concatenate([np.arange(-48, 37) / 4.0, np.arange(10.0, 31.0)])
_XATOL = 1e-10


@dataclass(frozen=True)
class FitOptions:
    """Options of the tail fit.

    ``fix_xi`` pins the shape parameter and fits only location and scale:
    the standard restriction for series whose exceedances cannot identify
    curvature (bounded kernel statistics, lattice-valued data).  A pinned
    shape must exceed -1, where the likelihood has an interior maximum.
    """

    min_exceedances: int = MIN_EXCEEDANCES
    fix_xi: float | None = None


@dataclass(frozen=True)
class FitDiagnostics:
    """``iterations`` counts likelihood evaluations: one for the grid pass plus
    one per scalar-search step.  A pinned shape runs the same search as a free
    one, so its count includes the grid pass too; the closed form counts none.
    ``init`` is the closed-form Gumbel fit."""

    neg_log_lik: float
    iterations: int
    converged: bool
    init: GevParams
    n_u_used: int


def neg_log_likelihood(params: GevParams, exc: ExceedanceSet) -> float:
    """Negative log likelihood of the marked Poisson model.

    Returns the +inf sentinel when the support constraint is violated, so
    optimizers see the constraint as a barrier rather than an exception.
    """
    if exc.n_u < 1:
        raise TooFewExceedancesError("likelihood needs at least one exceedance")
    with np.errstate(over="ignore", invalid="ignore"):
        nll = (np.exp(_log_tail(params, exc.cutoff)) + exc.n_u * math.log(params.sigma)
               - (1 + params.xi) * np.sum(_log_tail(params, exc.heights)))
    return float(nll) if np.isfinite(nll) else math.inf


def _profile(t, w: np.ndarray, shape: float | None):
    """Pareto profile NLL per exceedance at each ``t = theta * max(y)``, with
    the shape and the scale ``sigma_u / max(y)``; ``w = y / max(y)``.  A free
    shape is ``k`` and needs ``k > -1``; a pinned one needs ``scale > 0``.  The
    NLL is +inf where these fail."""
    k = np.log1p(np.multiply.outer(t, w)).mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if shape is None:
            scale = np.where(t == 0, w.mean(), k / t)
            return np.where(k > -1, np.log(scale) + 1 + k, np.inf), k, scale
        scale = np.divide(shape, t)
        return np.where(scale > 0, np.log(scale) + k + k / shape, np.inf), shape, scale


def _search(w: np.ndarray, shape: float | None) -> tuple[float, float, float, int, bool]:
    """(profile NLL, xi, sigma_u / max(y), evaluations, converged) for a free
    shape (``None``) or one pinned at ``shape``."""
    # a pinned shape is feasible only where t has its sign; keeping t = 0
    # keeps every bracket that of the full grid
    v_grid = _LOG1P_T_GRID if shape is None else _LOG1P_T_GRID[_LOG1P_T_GRID * shape >= 0]
    grid = _profile(np.expm1(v_grid), w, shape)[0]
    i = int(np.argmin(grid))
    # an infeasible neighbour puts +inf in the bracket; the search then bisects
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(
            lambda v: float(_profile(math.expm1(v), w, shape)[0]), method="bounded",
            bounds=(v_grid[max(i - 1, 0)], v_grid[min(i + 1, grid.size - 1)]),
            options={"xatol": _XATOL})
    v = res.x if res.fun < grid[i] else v_grid[i]
    profile, xi, scale = _profile(math.expm1(v), w, shape)
    return float(profile), float(xi), float(scale), 1 + res.nfev, bool(res.success)


def _gev(sigma_u: float, xi: float, u: float, n_u: int) -> GevParams:
    """GEV parameters with Pareto scale ``sigma_u`` above u and ``C(u) = n_u``."""
    log_n = math.log(n_u)
    return GevParams(mu=u + sigma_u * float(_box_cox(xi, log_n)),
                     sigma=sigma_u * math.exp(xi * log_n), xi=xi)


def fit(exc: ExceedanceSet, opts: FitOptions | None = None) -> tuple[GevParams, FitDiagnostics]:
    """Maximum likelihood fit of (mu, sigma, xi) from exceedance heights.

    The fit with a free shape includes the Gumbel point ``t = 0`` it reports
    as ``init``, so the returned NLL never exceeds the NLL at ``init``.
    """
    opts = opts or FitOptions()
    n_u = exc.n_u
    if n_u < opts.min_exceedances:
        raise TooFewExceedancesError(
            f"fit needs at least {opts.min_exceedances} exceedances, got {n_u}"
        )
    if n_u < WARN_EXCEEDANCES:
        warnings.warn(f"only {n_u} exceedances; tail estimates may be unstable",
                      SmallSampleWarning, stacklevel=2)
    y = exc.heights - exc.cutoff
    y_max = float(y.max())
    if y_max == float(y.min()):
        raise DegenerateHeightsError("all exceedance heights are equal")
    w = y / y_max
    shape = opts.fix_xi
    if shape is not None and shape <= -1:
        raise InvalidConfigError(f"a fixed shape must exceed -1, got {shape}")

    u = exc.cutoff
    y_mean = float(np.mean(y))
    init = _gev(y_mean, 0.0, u, n_u)
    if shape is not None and _is_gumbel(shape):
        params, evaluations, converged = init, 0, True
        profile = math.log(y_mean / y_max) + 1
    else:
        profile, xi, scale, evaluations, converged = _search(w, shape)
        params = _gev(y_max * scale, xi, u, n_u)
    diag = FitDiagnostics(
        neg_log_lik=n_u * (1 - math.log(n_u) + math.log(y_max) + profile),
        iterations=evaluations,
        converged=converged,
        init=init,
        n_u_used=n_u,
    )
    return params, diag
