"""Series validation, the package PRNG, and the bootstrap index draw.

Every stochastic component in the package draws from numpy's PCG64 bit
generator seeded explicitly, so for a given numpy version any (input, seed)
pair reproduces the same index draws bit-for-bit across runs and platforms.
Floating-point results can differ in the last bits between machines, since
numpy picks its vectorized loops by CPU.  Derived streams (bootstrap
replicates, oracle replicates, harness arms) offset the base seed by a
documented integer.

A bootstrap replicate is defined by its index draw alone
(:func:`bootstrap_draw`): :func:`bootstrap` gathers the series through it,
and :func:`exceedance.extract` gathers the original series' exceedance set
through it, so no pipeline replicate re-validates, re-thresholds or copies
the path.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import DtmError, InvalidSeriesError

__all__ = ["as_series", "check_seed", "make_rng", "bootstrap_draw", "bootstrap"]


def as_series(values) -> np.ndarray:
    """Validate and return a series as a float ndarray.

    Accepts any one-dimensional array-like of finite reals with length >= 1.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidSeriesError(f"series must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidSeriesError("series must contain at least one value")
    if not np.isfinite(arr).all():
        raise InvalidSeriesError("series contains non-finite values")
    return arr


def check_seed(seed, error: type[DtmError]) -> None:
    """Raise ``error`` unless ``seed`` is a valid seed: a non-negative integer."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise error(f"seed must be a non-negative integer, got {seed!r}")


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: numpy Generator over PCG64 with explicit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def bootstrap_draw(n: int, seed: int) -> np.ndarray:
    """The n indices, each in [0, n), that bootstrap replicate ``seed`` of an
    n-long series draws with replacement."""
    return make_rng(seed).integers(0, n, size=n)


def bootstrap(values, seed: int) -> np.ndarray:
    """Sample-with-replacement copy of the series, same length:
    ``values[bootstrap_draw(n, seed)]``.

    Indices are drawn rather than values, so affine transformations of the
    input commute with resampling under a fixed seed.  Every output element
    equals some input element bitwise.
    """
    arr = as_series(values)
    return arr[bootstrap_draw(arr.size, seed)]
