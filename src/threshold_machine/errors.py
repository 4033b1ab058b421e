"""Exception and warning types shared across the package, and the rules
that check its input values.

Every error carries a stable machine-readable ``code`` so front ends (the CLI
in particular) can map failures to structured error objects and exit codes
without parsing messages.

Each kind of input value has one rule here, and the caller names the error
it raises: :func:`check_count` for counts and seeds, :func:`check_level` for
levels and quantiles in (0, 1), :func:`check_real` for reals in an interval,
open by default and closed at either end on request, such as probabilities in
[0, 1] or an extremal index in (0, 1].  A rule refuses a value of the wrong
type, such as a string, None or a bool, Python's (what JSON ``true`` becomes)
or numpy's, though both compare as 0 and 1, the way it refuses one out of
range or not finite.
"""

import math
from numbers import Integral

import numpy as np

__all__ = [
    "DtmError", "InvalidParamsError", "OutOfSupportError", "InvalidTargetError",
    "InvalidQuantileError", "InvalidSeriesError", "TooFewExceedancesError",
    "DegenerateHeightsError", "InvalidThetaError", "NoClustersError", "InvalidSpecError",
    "InvalidConfigError", "SizeMismatchError", "InvalidBandwidthError", "ParseError",
    "FitWarning",
]

# check_real refuses these by type; numpy's bool is not a numbers.Integral,
# so check_count refuses it without them
_BOOLS = (bool, np.bool_)


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


class FitWarning(UserWarning):
    """``bandit_run`` could not bound an arm and skips it for the round.  The
    pipeline reports fit conditions only as its report's warning codes."""


def check_count(name: str, value, low, error: type[DtmError]) -> None:
    """Raise ``error`` unless ``value`` is an integer >= ``low``, not a bool."""
    # an exact int skips the slower isinstance test against the numbers.Integral ABC
    if (type(value) is not int and (type(value) is bool or not isinstance(value, Integral))
            or value < low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, low, error: type[DtmError], high=math.inf, ends="()") -> None:
    """Raise ``error`` unless ``value`` is a real in the interval from ``low``
    to ``high`` whose ends ``ends`` writes in interval notation: by default
    the open one, a finite real above ``low``; ``"[)"`` also admits ``low``,
    ``"(]"`` admits ``high`` and ``"[]"`` both.  A bool, Python's or numpy's,
    is not a real here."""
    # a value that does not compare with numbers raises TypeError; catching
    # it costs less than an isinstance test against numbers.Real
    try:
        if type(value) not in _BOOLS and (
                low < value or ends[0] == "[" and value == low) and (
                value < high or ends[1] == "]" and value == high):
            return
    except TypeError:
        pass
    raise error(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")


def check_level(name: str, value, error: type[DtmError]) -> None:
    """Raise ``error`` unless ``value`` is a level: a real in (0, 1)."""
    check_real(name, value, 0, error, 1)
