"""Tail parameter estimation from exceedance heights.

The likelihood is that of a marked Poisson process over normalized time
(0, 1] with intensity ``C(x)`` above the cutoff: exceedance indices carry no
information once the cutoff is fixed, so the negative log likelihood depends
only on the heights and the cutoff,

    NLL = C(u) + sum_k [ log sigma + (1/xi + 1) * log(1 + xi*(h_k - mu)/sigma) ]

with the Gumbel limit substituted when ``|xi|`` is below the branch tolerance.

The fit is exact.  With ``sigma_u = sigma + xi*(u - mu)`` the NLL splits into
a Poisson count term, minimized at ``C(u) = n_u``, and the generalized Pareto
NLL of the excesses ``y = h - u`` (Coles 2001, ch. 7).  At fixed
``theta = xi / sigma_u`` the Pareto part is minimized by
``xi = k = mean(log1p(theta*y))`` (Grimshaw 1993), leaving the 1-D profile
``n_u * [log(k / theta) + 1 + k]``.  A free shape is fitted on a fixed grid of
``t = theta * max(y)`` restricted to ``k > -1`` (below ``xi = -1`` the
likelihood is unbounded), then polished by a bounded scalar search between the
best point's grid neighbours.  A fixed shape ``xi != 0`` is a bounded search
over ``log sigma_u``; ``xi = 0`` is the closed form ``sigma_u = mean(y)``.
Then ``sigma = sigma_u * n_u**xi`` and ``mu = u + (sigma - sigma_u)/xi``.

Both searches run on ``y / max(y)``, so the fit is affine-equivariant up to
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
from .evt_core import XI_GUMBEL_TOL, GevParams
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
    """``iterations`` counts likelihood evaluations: one per scalar-search step,
    plus one for the grid pass of a free shape (none for the closed form).
    ``init`` is the closed-form Gumbel fit."""

    neg_log_lik: float
    iterations: int
    converged: bool
    init: GevParams
    n_u_used: int


def _nll_heights(mu: float, sigma: float, xi: float, heights: np.ndarray, u: float) -> float:
    """NLL evaluated on raw (mu, sigma, xi); +inf outside the support."""
    if sigma <= 0 or not np.isfinite(sigma):
        return math.inf
    if abs(xi) < XI_GUMBEL_TOL:
        zu = (u - mu) / sigma
        # exp(-zu) can overflow for absurd mu; treat as infeasible
        if -zu > 700:
            return math.inf
        return math.exp(-zu) + heights.size * math.log(sigma) + float(np.sum((heights - mu) / sigma))
    bu = 1.0 + xi * (u - mu) / sigma
    bh = 1.0 + xi * (heights - mu) / sigma
    if bu <= 0 or np.any(bh <= 0):
        return math.inf
    cu = math.exp(-math.log(bu) / xi)
    return cu + heights.size * math.log(sigma) + (1.0 / xi + 1.0) * float(np.sum(np.log(bh)))


def neg_log_likelihood(params: GevParams, exc: ExceedanceSet) -> float:
    """Negative log likelihood of the marked Poisson model.

    Returns the +inf sentinel when the support constraint is violated, so
    optimizers see the constraint as a barrier rather than an exception.
    """
    if exc.n_u < 1:
        raise TooFewExceedancesError("likelihood needs at least one exceedance")
    return _nll_heights(params.mu, params.sigma, params.xi, exc.heights, exc.cutoff)


def _profile(t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pareto profile NLL per exceedance at each ``t = theta * max(y)``, with
    the shape ``k`` and the scale ``sigma_u / max(y)``; ``w = y / max(y)``.
    The NLL is +inf where ``k <= -1``."""
    k = np.log1p(np.multiply.outer(t, w)).mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(t == 0, w.mean(), k / t)
    return np.where(k > -1, np.log(scale) + 1 + k, np.inf), k, scale


def _free_shape(w: np.ndarray) -> tuple[float, float, int, bool]:
    """(sigma_u / max(y), xi, evaluations, converged) with a free shape."""
    grid = _profile(np.expm1(_LOG1P_T_GRID), w)[0]
    i = int(np.argmin(grid))
    # a neighbour with k <= -1 puts +inf in the bracket; the search then bisects
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(
            lambda v: float(_profile(math.expm1(v), w)[0]), method="bounded",
            bounds=(_LOG1P_T_GRID[max(i - 1, 0)], _LOG1P_T_GRID[min(i + 1, grid.size - 1)]),
            options={"xatol": _XATOL})
    v = res.x if res.fun < grid[i] else _LOG1P_T_GRID[i]
    _, k, scale = _profile(math.expm1(v), w)
    return float(scale), float(k), 1 + res.nfev, bool(res.success)


def _fixed_shape(w: np.ndarray, xi: float) -> tuple[float, float, int, bool]:
    """(sigma_u / max(y), xi, evaluations, converged) with the shape pinned at xi.

    The Pareto NLL is unimodal in ``log sigma_u``, and its minimum lies in
    [min(w), mean(w)] for xi > 0 and in [max(mean(w), -xi), 1] for xi < 0.
    """
    if xi <= -1:
        raise InvalidConfigError(f"a fixed shape must exceed -1, got {xi}")
    lo, hi = (w.min(), w.mean()) if xi > 0 else (max(w.mean(), -xi), 1.0)

    def nll(r: float) -> float:
        a = xi * math.exp(-r) * w
        if a.min() <= -1:
            return math.inf
        return r + (1 + 1 / xi) * float(np.mean(np.log1p(a)))

    res = minimize_scalar(nll, bounds=(math.log(lo), math.log(hi)), method="bounded",
                          options={"xatol": _XATOL})
    return math.exp(res.x), xi, res.nfev, bool(res.success)


def _gev(sigma_u: float, xi: float, u: float, n_u: int) -> GevParams:
    """GEV parameters with Pareto scale ``sigma_u`` above u and ``C(u) = n_u``."""
    log_n = math.log(n_u)
    growth = log_n if xi == 0 else math.expm1(xi * log_n) / xi
    return GevParams(mu=u + sigma_u * growth, sigma=sigma_u * math.exp(xi * log_n), xi=xi)


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

    u = exc.cutoff
    init = _gev(float(np.mean(y)), 0.0, u, n_u)
    params, evaluations, converged = init, 0, True
    if opts.fix_xi != 0:
        search = _free_shape(w) if opts.fix_xi is None else _fixed_shape(w, opts.fix_xi)
        scale, xi, evaluations, converged = search
        params = _gev(y_max * scale, xi, u, n_u)
    diag = FitDiagnostics(
        neg_log_lik=_nll_heights(params.mu, params.sigma, params.xi, exc.heights, u),
        iterations=evaluations,
        converged=converged,
        init=init,
        n_u_used=n_u,
    )
    return params, diag
