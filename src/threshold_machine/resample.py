"""The package PRNG, the bootstrap index draw, and the bootstrap replicate.

Every stochastic component in the package draws from numpy's PCG64 bit
generator seeded explicitly, so for a given numpy version any (input, seed)
pair reproduces the same index draws bit-for-bit across runs and platforms.
Floating-point results can differ in the last bits between machines, since
numpy picks its vectorized loops by CPU.  Derived streams (bootstrap
replicates, oracle replicates, harness arms) offset the base seed by a
documented integer.

A bootstrap replicate is defined by its index draw alone
(:func:`bootstrap_draw`), and only its exceedances reach the fit, so
:func:`bootstrap` gathers the original series' exceedance set through the
draw with :func:`exceedance.extract`: no replicate re-validates,
re-thresholds or copies the path.
"""

from __future__ import annotations

import numpy as np

from .exceedance import ExceedanceSet, extract

__all__ = ["make_rng", "bootstrap_draw", "bootstrap"]


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: numpy Generator over PCG64 with explicit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def bootstrap_draw(n: int, seed: int) -> np.ndarray:
    """The n indices, each in [0, n), that bootstrap replicate ``seed`` of an
    n-long series draws with replacement."""
    return make_rng(seed).integers(0, n, size=n)


def bootstrap(exc: ExceedanceSet, seed: int) -> ExceedanceSet:
    """Replicate ``seed`` of the series that ``extract(series, u)`` cut ``exc``
    from: the exceedance set of ``series[bootstrap_draw(n, seed)]`` above the
    same cutoff, with n = ``exc.source_len``.

    Indices are drawn rather than values, so affine transformations of the
    input commute with resampling under a fixed seed.  Every height equals
    some input element bitwise.
    """
    return extract(exc, exc.cutoff, bootstrap_draw(exc.source_len, seed))
