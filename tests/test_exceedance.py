"""Tests for cutoff selection, exceedance extraction, and gaps."""

import numpy as np
import pytest

from threshold_machine import (
    InvalidQuantileError,
    TooFewExceedancesError,
    bootstrap,
    bootstrap_draw,
    extract,
    gaps,
    quantile_cutoff,
)
from threshold_machine.exceedance import nearest_rank


class TestNearestRank:
    def test_snaps_rounding_noise(self):
        # (1 - 0.41) * 100 evaluates to 59.00000000000001
        assert (1 - 0.41) * 100 > 59
        assert nearest_rank(1 - 0.41, 100) == 59

    def test_ceil_between_ranks(self):
        assert nearest_rank(0.951, 100) == 96

    def test_clipped_to_valid_ranks(self):
        assert nearest_rank(1e-6, 10) == 1
        assert nearest_rank(1 - 1e-12, 10) == 10


class TestQuantileCutoff:
    def test_nearest_rank_on_integers(self):
        s = np.arange(1, 101, dtype=float)
        assert quantile_cutoff(s, 0.95) == 95.0
        # tied values: ranks 91-100 all hold 9, rank 90 holds 8
        tied = np.random.default_rng(3).permutation(np.repeat(np.arange(10.0), 10))
        for q, expected in ((0.95, 9.0), (0.9, 8.0), (0.91, 9.0), (0.05, 0.0)):
            assert quantile_cutoff(tied, q) == expected
            assert quantile_cutoff(tied, q) == np.sort(tied)[nearest_rank(q, tied.size) - 1]

    def test_constant_series(self):
        assert quantile_cutoff([5.0, 5.0, 5.0], 0.5) == 5.0

    def test_normal_99_quantile(self):
        s = np.random.default_rng(7).normal(size=10_000)
        assert quantile_cutoff(s, 0.99) == pytest.approx(2.326, abs=0.15)

    def test_always_an_observed_value(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(size=137)
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            assert quantile_cutoff(s, q) in s

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, np.nan])
    def test_invalid_quantile(self, q):
        with pytest.raises(InvalidQuantileError):
            quantile_cutoff([1.0, 2.0], q)


class TestExtract:
    def test_enumeration(self):
        e = extract([1.0, 3.0, 2.0, 5.0], 2.5)
        assert e.indices.tolist() == [2, 4]
        assert e.heights.tolist() == [3.0, 5.0]
        assert e.source_len == 4

    def test_nothing_exceeds(self):
        e = extract([1.0, 2.0, 3.0], 3.0)  # strict inequality: ties excluded
        assert e.n_u == 0

    def test_everything_exceeds(self):
        e = extract([1.0, 2.0, 3.0], 0.5)
        assert e.n_u == 3
        assert e.indices.tolist() == [1, 2, 3]

    def test_heights_above_cutoff(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=1000)
        u = quantile_cutoff(s, 0.9)
        e = extract(s, u)
        assert np.min(e.heights) > u

    def test_count_matches_rank_for_distinct_values(self):
        rng = np.random.default_rng(10)
        for n in (100, 473, 1000):
            s = rng.uniform(size=n)  # distinct w.p. 1
            for q in (0.9, 0.95, 0.99):
                u = quantile_cutoff(s, q)
                assert extract(s, u).n_u == n - int(np.ceil(q * n))


class TestExtractThroughDraw:
    """``extract(s, u, draw)`` is the exceedance set of the resampled path."""

    @staticmethod
    def assert_same_set(got, want):
        assert got.cutoff == want.cutoff
        assert got.source_len == want.source_len
        assert got.indices.dtype == want.indices.dtype == np.int64
        assert np.array_equal(got.indices, want.indices)
        assert got.heights.dtype == want.heights.dtype
        assert got.heights.tobytes() == want.heights.tobytes()  # bitwise, same order

    def test_real_valued_path(self):
        s = np.random.default_rng(12).standard_t(4, size=5_000)
        u = quantile_cutoff(s, 0.95)
        for seed in (0, 1, 2):
            got = extract(s, u, bootstrap_draw(s.size, seed))
            assert got.n_u > 0
            self.assert_same_set(got, extract(bootstrap(s, seed), u))

    def test_lattice_path_with_ties_at_cutoff(self):
        s = np.random.default_rng(13).integers(0, 6, size=2_000).astype(float)
        u = quantile_cutoff(s, 0.7)
        assert np.sum(s == u) > 100  # many ties at u, all excluded
        for seed in (3, 4):
            got = extract(s, u, bootstrap_draw(s.size, seed))
            assert got.n_u > 0 and np.all(got.heights > u)
            self.assert_same_set(got, extract(bootstrap(s, seed), u))

    def test_draw_without_exceedances(self):
        s = np.arange(10.0)
        draw = bootstrap_draw(s.size, 0)  # never draws index 9, the one value above 8
        got = extract(s, 8.0, draw)
        assert got.n_u == 0
        self.assert_same_set(got, extract(bootstrap(s, 0), 8.0))


class TestGaps:
    def test_subtraction(self):
        s = np.zeros(20)
        s[[2, 3, 9]] = [5.0, 6.0, 7.0]  # 1-based indices 3, 4, 10
        g = gaps(extract(s, 1.0))
        assert g.gaps.tolist() == [1, 6]
        assert g.rate == pytest.approx(0.15)

    def test_adjacent_indices(self):
        s = np.zeros(12)
        s[[6, 7, 8]] = 9.0
        g = gaps(extract(s, 1.0))
        assert g.gaps.tolist() == [1, 1]

    def test_extreme_spread(self):
        n = 57
        s = np.zeros(n)
        s[[0, n - 1]] = 1.5
        g = gaps(extract(s, 1.0))
        assert g.gaps.tolist() == [n - 1]

    def test_gap_sum_telescopes(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=500)
        e = extract(s, quantile_cutoff(s, 0.9))
        g = gaps(e)
        assert g.gaps.sum() == e.indices[-1] - e.indices[0]

    def test_too_few(self):
        with pytest.raises(TooFewExceedancesError):
            gaps(extract([1.0, 5.0, 1.0], 2.0))
