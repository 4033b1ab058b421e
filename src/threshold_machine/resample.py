"""The package PRNG, the bootstrap index draw, and the bootstrap replicate.

Every stochastic component in the package draws from numpy's PCG64 bit
generator seeded explicitly, so for a given numpy version any (input, seed)
pair reproduces the same index draws bit-for-bit across runs and platforms.
Floating-point results can differ in the last bits between machines, since
numpy picks its vectorized loops by CPU.  The derived streams:

- bootstrap replicate r draws from seed ``seed + r``;
- the Monte Carlo oracle's path j from ``make_rng(seed + j)``;
- a bandit arm's rewards and bounds from :func:`stream_seed` of its run seed
  and index, so rewards and replicate 0 read one PCG64 stream: the
  replicate's odd-slot indices are ``floor(n * U_j)`` of the rewards' U_j;
- change-point snapshot t from ``make_rng((seed, t))``;
- ``validate``'s path from its spec seed, by default ``--seed``, which seeds
  replicate 0 too; its oracle from spec seed + 10 000; ``app scan``'s fit
  from seed + 1 and its Monte Carlo graph j from seed + 20 000 + j.

A bootstrap replicate is defined by its index draw alone
(:func:`bootstrap_draw`), and only its exceedances reach the fit, so
:func:`bootstrap` gathers the original series' exceedance set through the
draw with :func:`exceedance.extract`: no replicate re-validates,
re-thresholds or copies the path.

A replicate seed is a non-negative integer, checked by the rule
``DtmConfig.seed`` uses, so every replicate can be reproduced.  Seeding
PCG64 hashes the seed through ``SeedSequence`` into four words, which costs
more than drawing a bandit arm's few hundred indices, and a bandit run
recomputes an arm's bounds with the same seed on every pull.  So the draw
keeps the words of its last :data:`SEED_MEMO_SIZE` seeds and hands them to
PCG64 directly; the draw stays bit-identical to
``make_rng(seed).integers(0, n, size=n)``.  The memo holds seeding words,
never draws or fits, and it stays private to the draw: :func:`make_rng`
returns a generator over a real ``SeedSequence``, which callers may spawn.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidConfigError, check_count
from .exceedance import ExceedanceSet, extract

__all__ = ["make_rng", "bootstrap_draw", "bootstrap"]

# Seeds whose PCG64 seeding words bootstrap_draw keeps.  Bandit arms repeat
# one seed per arm on every pull; a run's replicate seeds cfg.seed + r repeat
# only when the same config is run again.
SEED_MEMO_SIZE = 64


def make_rng(seed: int | tuple[int, ...]) -> np.random.Generator:
    """The package-wide PRNG: numpy Generator over PCG64 with explicit seed,
    an integer or a non-empty tuple of integers (entropy for
    ``SeedSequence``), each >= 0 and not a bool, checked by the rule
    ``DtmConfig.seed`` uses (else :class:`InvalidConfigError`).  So no seed
    falls back to OS entropy (``None``), and an empty tuple, which
    ``SeedSequence`` reads as seed 0, is refused."""
    entries = seed if isinstance(seed, tuple) else (seed,)
    if not entries:
        raise InvalidConfigError("a tuple seed must hold at least one integer, got ()")
    for entry in entries:
        check_count("seed", entry, 0, InvalidConfigError)
    return np.random.Generator(np.random.PCG64(seed))


def stream_seed(seed: int, stream: int) -> int:
    """The seed of stream ``stream`` of a run seeded ``seed``: the first
    32-bit word of ``SeedSequence((seed, stream))``, whose tuple entropy
    keeps the streams of different run seeds apart, unlike ``seed + stream``."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


@functools.cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands PCG64 precomputed words.  It is
    defined on first use, because importing it loads ``numpy.random``, which
    importing the package does not."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly the four uint64 words stored
            return self.words

    return SeedWords


@functools.lru_cache(maxsize=SEED_MEMO_SIZE)
def _seed_words(seed: int):
    """``SeedSequence(seed)``'s PCG64 seeding words, wrapped for PCG64 and
    read-only, since every draw of the seed shares them."""
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _seed_words_type()(words)


def bootstrap_draw(n: int, seed: int) -> np.ndarray:
    """The n indices, each in [0, n), that bootstrap replicate ``seed`` of an
    n-long series draws with replacement: ``make_rng(seed).integers(0, n,
    size=n)``, bit for bit.

    ``n`` must be an integer >= 1 and ``seed`` an integer >= 0 (else
    :class:`InvalidConfigError`); the seeding words of recent seeds are
    memoized (see the module docstring), keyed on ``int(seed)`` so that
    ``np.int64(5)`` and ``5`` share an entry.
    """
    check_count("n", n, 1, InvalidConfigError)
    check_count("seed", seed, 0, InvalidConfigError)
    rng = np.random.Generator(np.random.PCG64(_seed_words(int(seed))))
    return rng.integers(0, n, size=n)


def bootstrap(exc: ExceedanceSet, seed: int) -> ExceedanceSet:
    """Replicate ``seed`` of the series that ``extract(series, u)`` cut ``exc``
    from: the exceedance set of ``series[bootstrap_draw(n, seed)]`` above the
    same cutoff, with n = ``exc.source_len``.

    Indices are drawn rather than values, so affine transformations of the
    input commute with resampling under a fixed seed.  Every height equals
    some input element bitwise.
    """
    return extract(exc, exc.cutoff, bootstrap_draw(exc.source_len, seed))
