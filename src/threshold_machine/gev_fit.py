"""Tail parameter estimation from exceedance heights.

The likelihood is that of a marked Poisson process over normalized time
(0, 1] with intensity ``C(x)`` above the cutoff: exceedance indices carry no
information once the cutoff is fixed, so the negative log likelihood depends
only on the heights and the cutoff,

    NLL = C(u) + n_u * log sigma - (1 + xi) * sum_k log C(h_k)

with ``C`` the tail function of :mod:`evt_core`, which also decides the
Gumbel limit.

The fit is exact.  With ``sigma_u = sigma + xi*(u - mu)`` the NLL splits into
a Poisson count term, minimized at ``C(u) = n_u``, and the generalized Pareto
NLL of the excesses ``y = h - u`` (Coles 2001, ch. 7).  In terms of
``t = xi * max(y) / sigma_u`` and ``k = mean(log1p(t * y / max(y)))`` the
Pareto NLL per exceedance is ``log(sigma_u / max(y)) + k + k/xi`` plus
``log max(y)``.  A free shape is profiled out at ``xi = k`` (Grimshaw 1993),
restricted to ``k > -1`` (below ``xi = -1`` the likelihood is unbounded); a
pinned shape keeps its ``xi``, with ``sigma_u = xi * max(y) / t``.  Either way
one search minimizes the profile over ``t`` on a fixed grid in ``log1p(t)``,
in two passes: every 4th grid point, then the points around the best and
the runner-up of those and around the first feasible one, next to the
``k > -1`` boundary, where a narrow dip can fall between coarse points.
On every series tried, bounded, lattice-valued and heavy-tailed ones
included, it finds the point a pass over the whole grid would.  A safeguarded
Newton polish on the profile's analytic score takes over between that
point's grid neighbours.  A free shape that ends on the ``k > -1``
boundary pins the fitted upper endpoint near the largest exceedance and sets
``FitDiagnostics.boundary``; the fit raises no warning, and the pipeline
reports the flag.  A pinned Gumbel shape is the closed form
``sigma_u = mean(y)``, which a free shape's grid holds as its point
``t = 0``.  Then ``sigma = sigma_u * n_u**xi`` and
``mu = u + sigma_u * (n_u**xi - 1)/xi``.

The search runs on ``y / max(y)``, so the fit is affine-equivariant up to
the search tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHeightsError, InvalidConfigError, TooFewExceedancesError, check_real
from .evt_core import GevParams, _box_cox, _is_gumbel
from .exceedance import MIN_EXCEEDANCES, ExceedanceSet

__all__ = ["FitDiagnostics", "fit"]

# Profile grid in log1p(t): steps of 1/4 up to t = 8.1e3, through t = 0, then
# unit steps up to t = 1e13, where shapes xi >> 1 put their optimum (t ~ n_u**xi).
_LOG1P_T_GRID = np.concatenate([np.arange(-48, 37) / 4.0, np.arange(10.0, 31.0)])
_T_GRID = np.expm1(_LOG1P_T_GRID)
_GUMBEL_INDEX = 48  # t = 0, a coarse point
# The search evaluates every _COARSE_STEP-th grid point, then the points within
# _FINE_RADIUS of three of them.
_COARSE_STEP = 4
_FINE_RADIUS = 3
# The Newton polish stops at a step this short in log1p(t), or after this
# many evaluations.
_V_TOL = 1e-12
_MAX_EVALUATIONS = 100
# A free shape this close to -1 sits on the boundary of k > -1.
_BOUNDARY_XI = 1e-6


@dataclass(frozen=True)
class FitDiagnostics:
    """``iterations`` counts likelihood evaluations: one for the grid search,
    both of its passes together, plus one per Newton step, a bisection
    included.  A pinned shape runs the same search as a free one, so its
    count includes the grid search too; the closed form counts none.
    ``n_u_used`` is the exceedance count of the fit.  ``boundary`` marks a
    free shape on the ``k > -1`` boundary, whose fitted endpoint sits near
    the largest exceedance."""

    neg_log_lik: float
    iterations: int
    converged: bool
    n_u_used: int
    boundary: bool


def _profile(t: np.ndarray, w: np.ndarray, shape: float | None) -> np.ndarray:
    """Pareto profile NLL per exceedance at each ``t = theta * max(y)``, with
    ``w = y / max(y)``.  A free shape is ``k`` and needs ``k > -1``; a pinned
    one needs a positive scale ``sigma_u / max(y) = shape / t``.  The NLL is
    +inf where these fail."""
    # a rank-1 product: with an inner dimension of 1 each entry is the one
    # rounded product t_i * w_j, so a row's bits depend neither on the other
    # rows nor on the BLAS, which forms the grid about twice as fast as a
    # broadcast multiply
    tw = np.dot(t.reshape(-1, 1), w.reshape(1, -1))
    k = np.log1p(tw, out=tw).sum(axis=-1) / w.size  # np.mean's own arithmetic
    with np.errstate(divide="ignore", invalid="ignore"):
        if shape is None:
            scale = k / t
            gumbel = t == 0
            if gumbel.any():
                scale[gumbel] = w.sum() / w.size  # the limit of k / t at t = 0
            return np.where(k > -1, np.log(scale) + 1 + k, np.inf)
        scale = np.divide(shape, t)
        return np.where(scale > 0, np.log(scale) + k + k / shape, np.inf)


def _newton_terms(t: float, w: np.ndarray, shape: float | None):
    """(profile NLL, xi, scale, score, curvature) at one ``t``: the profile of
    :func:`_profile` and its first and second derivatives in ``t``, from
    ``k = mean(log1p(t w))``, ``a = mean(w / (1 + t w))`` and
    ``b = mean(w**2 / (1 + t w)**2)``.  The NLL is +inf where infeasible.  At a
    free shape's ``t = 0`` the score is the limit ``a - b / (2a)`` and the
    curvature, which needs ``mean(w**3)``, is nan."""
    n = w.size
    tw = t * w
    k = float(np.log1p(tw).sum()) / n
    r = w / (1 + tw)
    a = float(r.sum()) / n
    b = float(r @ r) / n
    if shape is None:
        if t == 0:
            return math.log(a) + 1, 0.0, a, a - b / (2 * a), math.nan
        if k <= -1:
            return math.inf, math.nan, math.nan, math.nan, math.nan
        return (math.log(k / t) + 1 + k, k, k / t, a / k - 1 / t + a,
                1 / t**2 - (a / k) ** 2 - b / k - b)
    scale = shape / t
    if not scale > 0:
        return math.inf, math.nan, math.nan, math.nan, math.nan
    c = 1 + 1 / shape
    return math.log(scale) + c * k, shape, scale, c * a - 1 / t, 1 / t**2 - c * b


def _polish(w: np.ndarray, shape: float | None, i: int) -> tuple[float, float, float, int, bool]:
    """(profile NLL, xi, scale, evaluations, converged): a safeguarded Newton
    search in ``v = log1p(t)`` for the stationary point of the profile, from
    grid point ``i`` and inside its grid neighbours.

    The score's sign at each point moves one end of the bracket to it; an
    infeasible point becomes the end on its side of the last feasible one.  A
    step that leaves the bracket, or one from an infeasible point or where
    the curvature is not positive, becomes a bisection.  The evaluations
    count the grid search as one."""
    v_grid = _LOG1P_T_GRID
    lo, hi = float(v_grid[max(i - 1, 0)]), float(v_grid[min(i + 1, v_grid.size - 1)])
    v = v_feasible = float(v_grid[i])
    first = last = None
    for evaluations in range(2, _MAX_EVALUATIONS + 1):
        t = math.expm1(v)
        profile, xi, scale, score, curv = _newton_terms(t, w, shape)
        # the NLL's second derivative in v is (1 + t) * d2, and 1 + t > 0
        d2 = (1 + t) * curv + score
        if profile == math.inf:
            # the infeasible t form a half-line away from the feasible ones
            if v < v_feasible:
                lo = v
            else:
                hi = v
        else:
            v_feasible, last = v, (profile, xi, scale)
            first = first or last
            if score > 0:
                hi = v
            elif score < 0:
                lo = v
        step = -score / d2 if d2 > 0 else math.nan
        if not (abs(step) <= _V_TOL or lo < v + step < hi):
            step = (lo + hi) / 2 - v
        converged = abs(step) <= _V_TOL
        if converged:
            break
        v += step
    profile, xi, scale = last if last[0] <= first[0] else first
    return profile, xi, scale, evaluations, converged


def _search(w: np.ndarray, shape: float | None) -> tuple[float, float, float, int, bool]:
    """(profile NLL, xi, sigma_u / max(y), evaluations, converged) for a free
    shape (``None``) or one pinned at ``shape``.

    The polish starts from the best point of the whole grid, found in two
    passes.  The coarse pass evaluates every ``_COARSE_STEP``-th point,
    ``t = 0`` among them.  The fine pass evaluates the points within
    ``_FINE_RADIUS`` of three coarse points: the best, the runner-up (a
    profile can have two basins) and the first feasible one, next to a free
    shape's ``k > -1`` boundary, where a narrow dip can fall between coarse
    points.  Points neither pass evaluates stay +inf, and ``np.argmin`` keeps
    the whole grid's first-index rule; the tests check that the two passes
    pick the whole grid's point."""
    # a pinned shape is feasible only where t has its sign; t = 0 stays in
    lo, hi = 0, _T_GRID.size
    if shape is not None:
        lo, hi = (_GUMBEL_INDEX, hi) if shape > 0 else (lo, _GUMBEL_INDEX + 1)
    grid = np.full(_T_GRID.size, np.inf)
    coarse = _profile(_T_GRID[lo:hi:_COARSE_STEP], w, shape)
    grid[lo:hi:_COARSE_STEP] = coarse
    fine = np.zeros(_T_GRID.size, dtype=bool)
    best, runner_up = np.argpartition(coarse, 1)[:2]
    for j in (best, runner_up, np.argmax(coarse < np.inf)):
        c = lo + _COARSE_STEP * int(j)
        fine[max(c - _FINE_RADIUS, lo):min(c + _FINE_RADIUS + 1, hi)] = True
    fine[lo:hi:_COARSE_STEP] = False
    grid[fine] = _profile(_T_GRID[fine], w, shape)
    return _polish(w, shape, int(np.argmin(grid)))


def _gev(sigma_u: float, xi: float, u: float, n_u: int) -> GevParams:
    """GEV parameters with Pareto scale ``sigma_u`` above u and ``C(u) = n_u``."""
    log_n = math.log(n_u)
    return GevParams(mu=u + sigma_u * float(_box_cox(xi, log_n)),
                     sigma=sigma_u * math.exp(xi * log_n), xi=xi)


def fit(exc: ExceedanceSet, fix_xi: float | None = None) -> tuple[GevParams, FitDiagnostics]:
    """Maximum likelihood fit of (mu, sigma, xi) from exceedance heights.

    ``fix_xi`` pins the shape parameter and fits only location and scale:
    the standard restriction for series whose exceedances cannot identify
    curvature (bounded kernel statistics, lattice-valued data).  A pinned
    shape must be finite and exceed -1, where the likelihood has an interior
    maximum.

    A free shape's grid includes the Gumbel point ``t = 0``, so the returned
    NLL never exceeds that of the closed-form Gumbel fit ``fix_xi=0.0``.
    """
    n_u = exc.n_u
    if n_u < MIN_EXCEEDANCES:
        raise TooFewExceedancesError(
            f"fit needs at least {MIN_EXCEEDANCES} exceedances, got {n_u}"
        )
    u = exc.cutoff
    y = exc.heights - u
    # the ufunc reductions behind y.max() and y.min(), without the method
    # wrappers
    y_max = float(np.maximum.reduce(y))
    if y_max == float(np.minimum.reduce(y)):
        raise DegenerateHeightsError("all exceedance heights are equal")
    if fix_xi is not None:
        check_real("fix_xi", fix_xi, -1, InvalidConfigError)

    if fix_xi is not None and _is_gumbel(fix_xi):
        y_mean = float(np.add.reduce(y)) / n_u  # np.mean's own arithmetic
        params, evaluations, converged, boundary = _gev(y_mean, 0.0, u, n_u), 0, True, False
        profile = math.log(y_mean / y_max) + 1
    else:
        profile, xi, scale, evaluations, converged = _search(y / y_max, fix_xi)
        params = _gev(y_max * scale, xi, u, n_u)
        boundary = fix_xi is None and xi < -1 + _BOUNDARY_XI
    diag = FitDiagnostics(
        neg_log_lik=n_u * (1 - math.log(n_u) + math.log(y_max) + profile),
        iterations=evaluations,
        converged=converged,
        n_u_used=n_u,
        boundary=boundary,
    )
    return params, diag
