"""Tests for series validation and bootstrap resampling."""

import warnings

import numpy as np
import pytest

from threshold_machine import (
    InvalidConfigError,
    InvalidSeriesError,
    as_series,
    bootstrap,
    bootstrap_draw,
    extract,
    make_rng,
    resample,
)


def replicate(values, seed):
    """Heights of replicate ``seed`` of a set that holds every point of the
    series: the resampled series itself, in draw order."""
    return bootstrap(extract(values, np.min(values) - 1), seed).heights


class TestAsSeries:
    def test_accepts_list(self):
        out = as_series([1.0, 2.0, 3.0])
        assert out.dtype == float and out.shape == (3,)

    def test_rejects_empty(self):
        with pytest.raises(InvalidSeriesError):
            as_series([])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidSeriesError):
            as_series([1.0, np.inf])
        with pytest.raises(InvalidSeriesError):
            as_series([1.0, np.nan])

    @pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, -1e308, 1e308]])
    def test_accepts_finite_values_whose_sum_overflows(self, values):
        # a finiteness test through the sum would need a fallback here, and
        # numpy would warn of the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_series(values).tolist() == values

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf,-inf"])
    @pytest.mark.parametrize("where", ["alone", "mid-path"])
    def test_rejects_each_non_finite_value(self, bad, where):
        values = np.array(bad)
        if where == "mid-path":
            values = np.random.default_rng(9).normal(size=10_000)
            values[5_000:5_000 + len(bad)] = bad
        with pytest.raises(InvalidSeriesError, match="non-finite"):
            as_series(values)

    def test_rejects_matrix(self):
        with pytest.raises(InvalidSeriesError):
            as_series([[1.0, 2.0], [3.0, 4.0]])


class TestBootstrap:
    def test_constant_series_unchanged(self):
        out = replicate(np.full(50, 3.25), seed=99)
        assert np.all(out == 3.25)

    def test_single_value_forced(self):
        assert replicate([7.5], seed=0).tolist() == [7.5]

    def test_length_preserved(self):
        s = np.arange(123, dtype=float)
        assert replicate(s, seed=1).shape == s.shape

    def test_membership_bitwise(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(0, 1, size=500)
        out = replicate(s, seed=3)
        assert np.all(np.isin(out, s))

    def test_deterministic_given_seed(self):
        s = np.random.default_rng(4).normal(size=1000)
        a = replicate(s, seed=42)
        b = replicate(s, seed=42)
        assert np.array_equal(a, b)
        c = replicate(s, seed=43)
        assert not np.array_equal(a, c)

    def test_ecdf_within_dkw_band(self):
        # DKW: sup |F_boot - F_orig| <= sqrt(log(2/delta) / (2n)) w.p. 1-delta
        n = 10_000
        delta = 0.001
        eps = np.sqrt(np.log(2 / delta) / (2 * n))
        s = np.sort(np.random.default_rng(5).normal(size=n))
        out = np.sort(replicate(s, seed=6))
        grid = s
        f_orig = np.searchsorted(s, grid, side="right") / n
        f_boot = np.searchsorted(out, grid, side="right") / n
        assert np.max(np.abs(f_boot - f_orig)) <= eps

    def test_draw_is_pinned(self):
        # the replicate stream, and with it every bootstrap-averaged fit, is
        # this draw; a refactor or a numpy upgrade that changes it fails here
        assert bootstrap_draw(10, 0).tolist() == [8, 6, 5, 2, 3, 0, 0, 0, 1, 8]
        assert bootstrap_draw(10, 12345).tolist() == [6, 2, 7, 3, 2, 7, 6, 6, 9, 3]

    def test_bootstrap_gathers_the_draw(self):
        s = np.random.default_rng(7).normal(size=300)
        assert replicate(s, seed=8).tobytes() == s[bootstrap_draw(s.size, 8)].tobytes()

    def test_pcg64_is_the_generator(self):
        # the documented PRNG contract: Generator over PCG64
        rng = make_rng(0)
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)

    def test_tuple_seed_is_seed_sequence_entropy(self):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, 3))))
        assert make_rng((7, 3)).random(5).tobytes() == ref.random(5).tobytes()

    @pytest.mark.parametrize("seed", [None, True, -1, 2.5, "3", (), (7, -1), (7, None),
                                      (np.True_, 3), [7, 3]])
    def test_seed_is_checked(self, seed):
        # None would seed from OS entropy, and SeedSequence reads () as seed 0
        with pytest.raises(InvalidConfigError, match="seed"):
            make_rng(seed)

    @pytest.mark.parametrize("seed", [np.int64(7), 2**70, (np.int64(7), 3)])
    def test_numpy_and_large_integer_seeds(self, seed):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert make_rng(seed).random(5).tobytes() == ref.random(5).tobytes()


class TestDrawCount:
    @pytest.mark.parametrize("n", [-1, 0, 2.5, "3", True, None])
    def test_count_is_a_positive_integer(self, n):
        with pytest.raises(InvalidConfigError, match="n must be an integer >= 1"):
            bootstrap_draw(n, 0)

    def test_numpy_integer_count(self):
        assert bootstrap_draw(np.int64(10), 5).tolist() == make_rng(5).integers(0, 10, 10).tolist()


class TestDrawSeed:
    @pytest.mark.parametrize("seed", [None, 5.0, -1, "3"])
    def test_seed_is_a_non_negative_integer(self, seed):
        # None would seed from OS entropy, and 5.0 must not share seed 5's memo entry
        with pytest.raises(InvalidConfigError):
            bootstrap_draw(10, seed)

    def test_numpy_integer_seed(self):
        assert bootstrap_draw(10, np.int64(5)).tolist() == make_rng(5).integers(0, 10, 10).tolist()

    @pytest.mark.parametrize("n", [1, 10, 550, 10_000])
    def test_memo_is_bit_identical(self, n):
        # a seed's first draw, a repeat from the memo, and a draw after more
        # seeds than the memo holds have evicted it
        memo = resample._seed_words
        memo.cache_clear()
        seed = 2**40 + n
        first = bootstrap_draw(n, seed)
        repeat = bootstrap_draw(n, seed)
        for other in range(resample.SEED_MEMO_SIZE):
            bootstrap_draw(1, other)
        evicted = bootstrap_draw(n, seed)
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, resample.SEED_MEMO_SIZE + 2)
        assert not memo(seed).words.flags.writeable
        ref = make_rng(seed).integers(0, n, size=n)
        for draw in (first, repeat, evicted):
            assert draw.dtype == ref.dtype and draw.tobytes() == ref.tobytes()
