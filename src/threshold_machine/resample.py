"""The package PRNG, the bootstrap index draw, and the bootstrap replicate.

Every stochastic component in the package draws from numpy's PCG64 bit
generator seeded explicitly, so for a given numpy version any (input, seed)
pair reproduces the same index draws bit-for-bit across runs and platforms.
Floating-point results can differ in the last bits between machines, since
numpy picks its vectorized loops by CPU.  Derived streams (bootstrap
replicates, oracle replicates) offset the base seed by a documented integer;
a bandit arm's stream takes :func:`stream_seed` of its run seed and index.

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

The Monte Carlo oracle draws path j from seed ``seed + j``, thousands of
fresh seeds a call.  :func:`make_rngs` yields those generators bit for bit,
checking the seeds once and running ``SeedSequence``'s hash on a block of
seeds at once as array arithmetic, in place of one ``SeedSequence`` object
per seed; the tests pin its words to numpy's.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidConfigError, check_count
from .exceedance import ExceedanceSet, extract

__all__ = ["make_rng", "make_rngs", "bootstrap_draw", "bootstrap"]

# Seeds whose PCG64 seeding words bootstrap_draw keeps.  Bandit arms repeat
# one seed per arm on every pull; a run's replicate seeds cfg.seed + r repeat
# only when the same config is run again.
SEED_MEMO_SIZE = 64
# SeedSequence's hash constants (after O'Neill's seed_seq_fe): the entropy
# hash, the output hash and the pool mix; its pool holds four 32-bit words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 4096  # seeds make_rngs hashes at once


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


def _hasher(init: int, mult: int):
    """SeedSequence's hash step with its own running constant, on uint32 arrays."""
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return step


def _seed_block_words(first: int, count: int) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for the seeds
    s = first, ..., first + count - 1 (each below 2**128), as the rows of a
    (count, 4) array: every step of the hash runs on all seeds at once."""
    data = b"".join(s.to_bytes(16, "little") for s in range(first, first + count))
    # a seed's 32-bit words, low first, padded with zeros to the pool's four
    entropy = np.frombuffer(data, dtype="<u4").reshape(count, 4).T
    mix_hash = _hasher(_INIT_A, _MULT_A)
    pool = [mix_hash(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * mix_hash(pool[src])
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    out_hash = _hasher(_INIT_B, _MULT_B)
    words = np.empty((count, 8), dtype=np.uint64)
    for i in range(8):
        words[:, i] = out_hash(pool[i % 4])
    # 64-bit word k joins 32-bit words 2k (low) and 2k + 1 (high)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


def make_rngs(first: int, count: int):
    """An iterator over ``make_rng(first + j)`` for j = 0, ..., count - 1,
    bit for bit.

    ``first`` and ``count`` are integers >= 0, checked once, here, by the
    rule ``make_rng`` uses (else :class:`InvalidConfigError`).  The seeds are
    hashed a block at a time as the iterator advances (see the module
    docstring); a seed of 2**128 or more, whose words ``SeedSequence`` mixes
    past its pool in a further pass, takes :func:`make_rng` itself.  The
    other generators hold their seeding words, not a ``SeedSequence``, so
    they cannot spawn.
    """
    check_count("seed", first, 0, InvalidConfigError)
    check_count("count", count, 0, InvalidConfigError)
    first, end = int(first), int(first) + int(count)

    def rngs():
        for lo in range(first, end, _SEED_BLOCK):
            hi = min(lo + _SEED_BLOCK, end)
            if hi > 1 << 128:
                yield from (make_rng(s) for s in range(lo, hi))
                continue
            for words in _seed_block_words(lo, hi - lo):
                yield np.random.Generator(np.random.PCG64(_seed_words_type()(words)))

    return rngs()


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
