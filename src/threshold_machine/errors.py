"""Exception and warning types shared across the package.

Every error carries a stable machine-readable ``code`` so front ends (the CLI
in particular) can map failures to structured error objects and exit codes
without parsing messages.
"""


class DtmError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InvalidParamsError(DtmError):
    """Distribution parameters violate their invariants (e.g. sigma <= 0)."""

    code = "invalid-params"


class OutOfSupportError(DtmError):
    """Evaluation point lies outside the support of the tail function."""

    code = "out-of-support"


class InvalidTargetError(DtmError):
    """Inversion target is non-positive or non-finite."""

    code = "invalid-target"


class InvalidQuantileError(DtmError):
    """Quantile level outside (0, 1)."""

    code = "invalid-quantile"


class InvalidSeriesError(DtmError):
    """Input series is empty or contains non-finite values."""

    code = "invalid-series"


class TooFewExceedancesError(DtmError):
    """Not enough points above the cutoff for the requested operation."""

    code = "too-few-exceedances"


class DegenerateHeightsError(DtmError):
    """All exceedance heights are equal; the tail fit is undefined."""

    code = "degenerate-heights"


class InvalidThetaError(DtmError):
    """Extremal index outside (0, 1], or no inter-exceedance gap to score it on."""

    code = "invalid-theta"


class NoClustersError(DtmError):
    """Every inter-exceedance gap equals one; the index estimate degenerates."""

    code = "no-clusters"


class InvalidSpecError(DtmError):
    """Generator or harness specification fails validation."""

    code = "invalid-spec"


class InvalidConfigError(DtmError):
    """Pipeline configuration fails validation."""

    code = "invalid-config"


class SizeMismatchError(DtmError):
    """Paired sample blocks have different sizes."""

    code = "size-mismatch"


class InvalidBandwidthError(DtmError):
    """Kernel bandwidth is non-positive or non-finite."""

    code = "invalid-bandwidth"


class ParseError(DtmError):
    """Input file could not be parsed."""

    code = "parse-error"


class SmallSampleWarning(UserWarning):
    """Sample size is below a heuristic bound for reliable tail estimates."""


class FitWarning(UserWarning):
    """A fit finished in a degraded state (non-convergence, clamped value)."""
