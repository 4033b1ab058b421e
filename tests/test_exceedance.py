"""Tests for cutoff selection, exceedance extraction, and gaps."""

import numpy as np
import pytest

from threshold_machine import (
    ExceedanceSet,
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

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, np.nan, "0.5", None])
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
    """``extract(extract(s, u), u, draw)``, gathered from the original set, is
    the exceedance set of the resampled path ``s[draw]``."""

    @staticmethod
    def assert_same_set(got, want):
        assert got.cutoff == want.cutoff
        assert got.source_len == want.source_len
        assert got.indices.dtype == want.indices.dtype == np.int64
        assert np.array_equal(got.indices, want.indices)
        assert got.heights.dtype == want.heights.dtype
        assert got.heights.tobytes() == want.heights.tobytes()  # bitwise, same order

    def assert_replicate(self, s, u, seed):
        """The gather, and ``bootstrap``, give the exceedance set of
        ``s[bootstrap_draw(n, seed)]``."""
        draw = bootstrap_draw(len(s), seed)
        want = extract(np.asarray(s)[draw], u)
        got = extract(extract(s, u), u, draw)
        self.assert_same_set(got, want)
        self.assert_same_set(bootstrap(extract(s, u), seed), want)
        return got

    def test_real_valued_path(self):
        s = np.random.default_rng(12).standard_t(4, size=5_000)
        u = quantile_cutoff(s, 0.95)
        for seed in (0, 1, 2):
            assert self.assert_replicate(s, u, seed).n_u > 0

    def test_lattice_path_with_ties_at_cutoff(self):
        s = np.random.default_rng(13).integers(0, 6, size=2_000).astype(float)
        u = quantile_cutoff(s, 0.7)
        assert np.sum(s == u) > 100  # many ties at u, all excluded
        for seed in (3, 4):
            got = self.assert_replicate(s, u, seed)
            assert got.n_u > 0 and np.all(got.heights > u)

    def test_draw_without_exceedances(self):
        s = np.arange(10.0)
        # never draws index 9, the one value above 8
        assert self.assert_replicate(s, 8.0, 0).n_u == 0

    def test_list_input_keeps_a_validated_path(self):
        s = [1.0, 3.0, 2.0, 5.0]
        exc = extract(s, 2.5)
        assert exc.path.dtype == np.float64 and exc.path.tolist() == s
        self.assert_replicate(s, 2.5, 5)

    def test_negative_draw_entries(self):
        s = np.random.default_rng(14).normal(size=300)
        u = quantile_cutoff(s, 0.8)
        draw = np.random.default_rng(15).integers(-300, 300, size=300)
        assert np.any(draw < 0)
        self.assert_same_set(extract(extract(s, u), u, draw), extract(s[draw], u))

    @pytest.mark.parametrize("m", [1, 77, 1_000])
    def test_draw_length_sets_source_len(self, m):
        s = np.random.default_rng(16).exponential(size=300)
        u = quantile_cutoff(s, 0.9)
        draw = np.random.default_rng(m).integers(0, s.size, size=m)
        got = extract(extract(s, u), u, draw)
        assert got.source_len == m
        self.assert_same_set(got, extract(s[draw], u))

    def test_out_of_range_entry(self):
        s = np.arange(10.0)
        for bad in (10, -11):
            draw = np.array([0, bad, 3])
            with pytest.raises(IndexError):
                extract(extract(s, 4.0), 4.0, draw)

    def test_set_without_draw_is_refused(self):
        s = np.random.default_rng(17).normal(size=100)
        with pytest.raises(ValueError, match="takes a series, or a set"):
            extract(extract(s, 0.5), 0.5)

    def test_series_with_draw_is_refused(self):
        s = np.random.default_rng(17).normal(size=100)
        with pytest.raises(ValueError, match="takes a series, or a set"):
            extract(s, 0.5, bootstrap_draw(s.size, 0))

    def test_set_made_through_a_draw_is_refused(self):
        s = np.random.default_rng(18).normal(size=100)
        draw = bootstrap_draw(s.size, 0)
        replicate = extract(extract(s, 0.5), 0.5, draw)
        assert replicate.path is None and replicate.mask is None
        with pytest.raises(ValueError, match="made through a draw"):
            extract(replicate, 0.5, draw)

    def test_set_built_directly_is_refused(self):
        s = np.random.default_rng(18).normal(size=100)
        exc = extract(s, 0.5)
        assert np.array_equal(exc.mask, s > 0.5)
        built = ExceedanceSet(exc.cutoff, exc.indices, exc.heights, exc.source_len)
        assert built == exc
        with pytest.raises(ValueError, match="built directly"):
            extract(built, 0.5, bootstrap_draw(s.size, 0))

    def test_cutoff_must_match_the_set(self):
        s = np.random.default_rng(19).normal(size=100)
        exc = extract(s, 0.5)
        with pytest.raises(ValueError, match="cutoff"):
            extract(exc, 0.25, bootstrap_draw(s.size, 0))


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
