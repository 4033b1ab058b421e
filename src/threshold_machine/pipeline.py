"""The three-stage threshold pipeline.

Given a stationary series and a level alpha, the pipeline (i) resamples the
series in bootstrap replicates, (ii) fits the tail parameters on each
replicate's exceedances above a single cutoff u and averages them, (iii)
estimates the extremal index from the original series' inter-exceedance times
above the same u, and returns the threshold

    x = C^-1( -log(1 - alpha) / theta )

so that the fitted max distribution satisfies G(x)^theta = 1 - alpha.

Only a replicate's exceedance heights reach the fit, so a replicate is its
index draw, and its exceedances are the original series' exceedance set
gathered through the draw: no replicate re-validates, re-thresholds or
copies the series.

Fewer than ``exceedance.MIN_EXCEEDANCES`` exceedances above u on the
original series fail the run.

Also provides the ARL <-> alpha mapping used by sequential detection and
upper/lower confidence bounds, both at the config's alpha, for the maximum of
a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import InvalidConfigError, TooFewExceedancesError
from .evt_core import GevParams, TailModel, invert_tail
from .exceedance import MIN_EXCEEDANCES, WARN_EXCEEDANCES, extract, gaps, quantile_cutoff
from .extremal_index import ThetaEstimate, theta_closed_form
from .gev_fit import FitDiagnostics, fit
from .resample import as_series, bootstrap_draw, check_seed

__all__ = ["DtmConfig", "ThresholdReport", "run_dtm", "arl_to_alpha", "confidence_bounds"]


@dataclass(frozen=True)
class DtmConfig:
    """Configuration of one pipeline run.

    The cutoff is the ``cutoff_quantile`` empirical quantile of the input
    unless an explicit ``cutoff`` overrides it.  With ``bootstrap_reps > 1``
    the tail parameters are averaged over that many bootstrap fits, replicate
    r drawing from seed + r.
    """

    alpha: float
    cutoff_quantile: float = 0.95
    cutoff: float | None = None
    seed: int = 0
    bootstrap_reps: int = 1
    fix_xi: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.cutoff_quantile < 1.0):
            raise InvalidConfigError(
                f"cutoff_quantile must lie in (0, 1), got {self.cutoff_quantile}"
            )
        if self.cutoff is not None and not math.isfinite(self.cutoff):
            raise InvalidConfigError(f"cutoff must be finite, got {self.cutoff}")
        check_seed(self.seed, InvalidConfigError)
        if not isinstance(self.bootstrap_reps, Integral) or self.bootstrap_reps < 1:
            raise InvalidConfigError(
                f"bootstrap_reps must be an integer >= 1, got {self.bootstrap_reps!r}"
            )
        if self.fix_xi is not None and not -1 < self.fix_xi < math.inf:
            raise InvalidConfigError(f"fix_xi must be finite and exceed -1, got {self.fix_xi}")


@dataclass(frozen=True)
class ThresholdReport:
    """Pipeline output: the threshold plus everything needed to audit it."""

    threshold: float
    model: TailModel
    gev_diag: FitDiagnostics
    theta_est: ThetaEstimate
    warnings: tuple[str, ...]
    config: DtmConfig


def _sample_size_bound(alpha: float) -> float:
    # Heuristic floor on n for the alpha-tail of the max to be resolvable;
    # grows like 1/alpha^2 for small alpha.
    tau = -math.log1p(-alpha)
    return math.exp(tau) / (tau * tau)


def run_dtm(series, cfg: DtmConfig) -> ThresholdReport:
    """Run the full pipeline and return the threshold report.

    A single cutoff computed from the original series is reused for both the
    bootstrap fit and the extremal index stage.  Non-fatal issues (few
    exceedances, non-convergence, a boundary shape, clamped theta, small
    sample) are reported only as warning codes; hard failures raise.
    """
    s = as_series(series)
    n = s.size
    warn_codes: list[str] = []

    u = cfg.cutoff if cfg.cutoff is not None else quantile_cutoff(s, cfg.cutoff_quantile)

    if n < _sample_size_bound(cfg.alpha):
        warn_codes.append("small-sample")

    # checked before the replicates, so that too few exceedances name the
    # original series; extract draws no random numbers
    exc = extract(s, u)
    if exc.n_u < MIN_EXCEEDANCES:
        raise TooFewExceedancesError(
            f"original series has {exc.n_u} exceedances above u={u}, "
            f"need {MIN_EXCEEDANCES}"
        )

    fits: list[GevParams] = []
    diags: list[FitDiagnostics] = []
    for r in range(cfg.bootstrap_reps):
        params_r, diag_r = fit(extract(exc, u, bootstrap_draw(n, cfg.seed + r)), cfg.fix_xi)
        fits.append(params_r)
        diags.append(diag_r)
    if len(fits) == 1:
        params = fits[0]  # the mean of one value is that value
    else:
        params = GevParams(
            mu=float(np.mean([p.mu for p in fits])),
            sigma=float(np.mean([p.sigma for p in fits])),
            xi=float(np.mean([p.xi for p in fits])),
        )
    diag = diags[0]
    if not all(d.converged for d in diags):
        warn_codes.append("non-convergence")
        diag = replace(diag, converged=False)
    if any(d.boundary for d in diags):
        warn_codes.append("boundary-shape")
    if min(d.n_u_used for d in diags) < WARN_EXCEEDANCES:
        warn_codes.append("few-exceedances")

    theta_est = theta_closed_form(gaps(exc))
    if theta_est.clamped:
        warn_codes.append("theta-clamped")

    y = -math.log1p(-cfg.alpha) / theta_est.theta
    threshold = invert_tail(params, y)
    model = TailModel(params=params, theta=theta_est.theta, cutoff=float(u), horizon=n)
    return ThresholdReport(
        threshold=float(threshold),
        model=model,
        gev_diag=diag,
        theta_est=theta_est,
        warnings=tuple(warn_codes),
        config=cfg,
    )


def arl_to_alpha(n: int, arl: float) -> float:
    """Map an average run length constraint to a level for an n-long window.

    A sequential detector whose stopping time is asymptotically exponential
    false-alarms within n steps with probability 1 - exp(-n / ARL).
    """
    if n < 1:
        raise InvalidConfigError(f"window length must be >= 1, got {n}")
    if not (arl > 0) or not math.isfinite(arl):
        raise InvalidConfigError(f"arl must be positive, got {arl}")
    return -math.expm1(-n / arl)


def confidence_bounds(series, cfg: DtmConfig) -> tuple[float, float]:
    """(lcb, ucb) for the maximum of a series at level ``cfg.alpha``.

    ucb solves P{max > x} = alpha (the pipeline threshold); lcb solves
    P{max < x} = alpha on the same fitted model.  For alpha < 1/2 lcb < ucb;
    at alpha = 1/2 the two coincide at the median of the fitted max
    distribution.
    """
    report = run_dtm(series, cfg)
    theta = report.theta_est.theta
    lcb = invert_tail(report.model.params, -math.log(cfg.alpha) / theta)
    return float(lcb), report.threshold
