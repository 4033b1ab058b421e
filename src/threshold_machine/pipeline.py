"""The three-stage threshold pipeline.

Given a stationary series and a level alpha, the pipeline (i) resamples the
series in bootstrap replicates, (ii) fits the tail parameters on each
replicate's exceedances above a single cutoff u and averages them, (iii)
estimates the extremal index from the original series' inter-exceedance times
above the same u, and returns the threshold

    x = C^-1( -log(1 - alpha) / theta )

so that the fitted max distribution satisfies G(x)^theta = 1 - alpha.

No stage but the inversion reads alpha, so the report's fitted model answers
every level: ``report.model.upper(a)`` is the threshold a run at level ``a``
would return, and ``report.model.lower(a)`` the matching lower bound.

The series enters through ``exceedance``: ``quantile_cutoff`` reads the
cutoff from it and ``extract`` cuts its exceedance set.  Replicate r is
``resample.bootstrap`` of that set, gathered through the replicate's index
draw, so no replicate re-validates, re-thresholds or copies the series.

Fewer than ``exceedance.MIN_EXCEEDANCES`` exceedances above u on the
original series fail the run, and so does a replicate's failed fit.

Also provides the ARL <-> alpha mapping used by sequential detection and
upper/lower confidence bounds, both at the config's alpha, for the maximum of
a sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DtmError, InvalidConfigError, TooFewExceedancesError, check_count,
                     check_level, check_real)
from .evt_core import GevParams, TailModel
from .exceedance import MIN_EXCEEDANCES, WARN_EXCEEDANCES, extract, gaps, quantile_cutoff
from .extremal_index import ThetaEstimate, theta_closed_form
from .gev_fit import FitDiagnostics, fit
from .resample import bootstrap

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
        check_level("alpha", self.alpha, InvalidConfigError)
        check_level("cutoff_quantile", self.cutoff_quantile, InvalidConfigError)
        if self.cutoff is not None:
            check_real("cutoff", self.cutoff, -math.inf, InvalidConfigError)
        check_count("seed", self.seed, 0, InvalidConfigError)
        check_count("bootstrap_reps", self.bootstrap_reps, 1, InvalidConfigError)
        if self.fix_xi is not None:
            check_real("fix_xi", self.fix_xi, -1, InvalidConfigError)


@dataclass(frozen=True)
class ThresholdReport:
    """Pipeline output: the threshold plus everything needed to audit it.

    With several bootstrap replicates, ``gev_diag`` merges their fits'
    diagnostics: ``converged`` if every fit converged, ``boundary`` if any
    fit's shape sits on the boundary, ``n_u_used`` the smallest exceedance
    count; its other fields are replicate 0's.  The warning codes
    (``non-convergence``, ``boundary-shape``, ``few-exceedances``) are read
    from those merged fields.
    """

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
    warn_codes: list[str] = []
    # quantile_cutoff and extract validate the series where it enters them
    u = cfg.cutoff if cfg.cutoff is not None else quantile_cutoff(series, cfg.cutoff_quantile)
    # checked before the replicates, so that too few exceedances name the
    # original series; extract draws no random numbers
    exc = extract(series, u)
    n = exc.source_len
    if n < _sample_size_bound(cfg.alpha):
        warn_codes.append("small-sample")
    if exc.n_u < MIN_EXCEEDANCES:
        raise TooFewExceedancesError(
            f"original series has {exc.n_u} exceedances above u={u}, "
            f"need {MIN_EXCEEDANCES}"
        )

    fits = []
    for r in range(cfg.bootstrap_reps):
        try:
            fits.append(fit(bootstrap(exc, cfg.seed + r), cfg.fix_xi))
        except DtmError as e:  # same class, so the CLI's exit code stays
            raise type(e)(f"bootstrap replicate {r} (seed {cfg.seed + r}): {e}") from e
    # the mean of one value is that value, and its diagnostics are all there are
    params, diag = fits[0]
    if len(fits) > 1:
        params = GevParams(
            mu=float(np.mean([p.mu for p, _ in fits])),
            sigma=float(np.mean([p.sigma for p, _ in fits])),
            xi=float(np.mean([p.xi for p, _ in fits])),
        )
        diag = replace(diag, converged=all(d.converged for _, d in fits),
                       boundary=any(d.boundary for _, d in fits),
                       n_u_used=min(d.n_u_used for _, d in fits))
    if not diag.converged:
        warn_codes.append("non-convergence")
    if diag.boundary:
        warn_codes.append("boundary-shape")
    if diag.n_u_used < WARN_EXCEEDANCES:
        warn_codes.append("few-exceedances")

    theta_est = theta_closed_form(gaps(exc))
    if theta_est.clamped:
        warn_codes.append("theta-clamped")

    model = TailModel(params=params, theta=theta_est.theta, cutoff=float(u), horizon=n)
    return ThresholdReport(
        threshold=model.upper(cfg.alpha),
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
    check_count("window length n", n, 1, InvalidConfigError)
    check_real("arl", arl, 0, InvalidConfigError)
    return -math.expm1(-n / arl)


def confidence_bounds(series, cfg: DtmConfig) -> tuple[float, float]:
    """(lcb, ucb) for the maximum of a series at level ``cfg.alpha``.

    ucb solves P{max > x} = alpha (the pipeline threshold,
    ``model.upper(alpha)``); lcb solves P{max < x} = alpha on the same fitted
    model (``model.lower(alpha)``).  For alpha < 1/2 lcb < ucb;
    at alpha = 1/2 the two coincide at the median of the fitted max
    distribution.
    """
    report = run_dtm(series, cfg)
    return report.model.lower(cfg.alpha), report.threshold
