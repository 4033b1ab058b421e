"""Distribution-free tail thresholds for maxima of dependent stationary series.

Given one sample path and a level alpha, the pipeline returns a threshold x
with P{max S_t > x} <= alpha by fitting the extreme value family on bootstrap
exceedances and the extremal index on the original inter-exceedance times.
"""

__version__ = "0.1.0"

from .applications import (
    BanditResult,
    BanditSpec,
    ChangePointResult,
    ErGraphSpec,
    MmdStreamSpec,
    bandit_run,
    change_point_run,
    mmd_stat,
    scan_series,
)
from .errors import (
    DegenerateHeightsError,
    DtmError,
    FitWarning,
    InvalidBandwidthError,
    InvalidConfigError,
    InvalidParamsError,
    InvalidQuantileError,
    InvalidSeriesError,
    InvalidSpecError,
    InvalidTargetError,
    InvalidThetaError,
    NoClustersError,
    OutOfSupportError,
    ParseError,
    SizeMismatchError,
    TooFewExceedancesError,
)
from .evt_core import GevParams, TailModel, gev_cdf, invert_tail, model_max_cdf, tail_fn
from .exceedance import ExceedanceSet, GapSet, extract, gaps, quantile_cutoff
from .extremal_index import ThetaEstimate, theta_closed_form, theta_log_likelihood
from .gev_fit import FitDiagnostics, fit, neg_log_likelihood
from .generators import GeneratorSpec, generate
from .mc_oracle import EmpiricalMaxDist, empirical_max_cdf, mc_threshold, sup_norm_gap
from .pipeline import DtmConfig, ThresholdReport, arl_to_alpha, confidence_bounds, run_dtm
from .resample import as_series, bootstrap, bootstrap_draw, make_rng

__all__ = [
    "__version__",
    # evt_core
    "GevParams", "TailModel", "gev_cdf", "tail_fn", "invert_tail", "model_max_cdf",
    # resample
    "as_series", "bootstrap", "bootstrap_draw", "make_rng",
    # exceedance
    "ExceedanceSet", "GapSet", "quantile_cutoff", "extract", "gaps",
    # gev_fit
    "FitDiagnostics", "neg_log_likelihood", "fit",
    # extremal_index
    "ThetaEstimate", "theta_log_likelihood", "theta_closed_form",
    # pipeline
    "DtmConfig", "ThresholdReport", "run_dtm", "arl_to_alpha", "confidence_bounds",
    # generators
    "GeneratorSpec", "generate",
    # mc_oracle
    "EmpiricalMaxDist", "empirical_max_cdf", "mc_threshold", "sup_norm_gap",
    # applications
    "ErGraphSpec", "scan_series", "mmd_stat", "MmdStreamSpec", "ChangePointResult",
    "change_point_run", "BanditSpec", "BanditResult", "bandit_run",
    # errors
    "DtmError", "InvalidParamsError", "OutOfSupportError", "InvalidTargetError",
    "InvalidQuantileError", "InvalidSeriesError", "TooFewExceedancesError",
    "DegenerateHeightsError", "InvalidThetaError", "NoClustersError", "InvalidSpecError",
    "InvalidConfigError", "SizeMismatchError", "InvalidBandwidthError", "ParseError",
    "FitWarning",
]
