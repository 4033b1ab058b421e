"""Tests for the Monte Carlo max-distribution oracle."""

import numpy as np
import pytest

from threshold_machine import (
    EmpiricalMaxDist,
    GeneratorSpec,
    GevParams,
    InvalidQuantileError,
    InvalidSeriesError,
    InvalidSpecError,
    TailModel,
    empirical_max_cdf,
    generate,
    mc_threshold,
    sup_norm_gap,
)


def dist_from(maxima):
    return EmpiricalMaxDist(np.sort(np.asarray(maxima, dtype=float)))


class TestEmpiricalMaxCdf:
    def test_single_replicate_composition(self):
        spec = GeneratorSpec.chi_square(1, 100, 9)
        dist = empirical_max_cdf(spec, L=1)
        assert dist.maxima[0] == np.max(generate(spec.with_seed(spec.seed + 0)))

    def test_replicates_use_shifted_seeds(self):
        spec = GeneratorSpec.chi_square(1, 100, 9)
        dist = empirical_max_cdf(spec, L=5)
        expected = sorted(
            float(np.max(generate(spec.with_seed(9 + j)))) for j in range(5)
        )
        assert np.allclose(dist.maxima, expected)

    @pytest.mark.parametrize("L", [0, -1, 2.5, "3", None])
    def test_replicate_count_is_a_positive_integer(self, L):
        with pytest.raises(InvalidSpecError, match="L"):
            empirical_max_cdf(GeneratorSpec.chi_square(1, 100, 9), L)

    def test_reproducible(self):
        spec = GeneratorSpec.student_t(4, 200, 3)
        a = empirical_max_cdf(spec, L=20)
        b = empirical_max_cdf(spec, L=20)
        assert np.array_equal(a.maxima, b.maxima)

    def test_uniform_iid_max_cdf(self):
        # Beta(1, 1) is Uniform(0, 1): max CDF is x**n exactly
        n, L = 100, 10_000
        spec = GeneratorSpec.beta(1, 1, n, 31)
        dist = empirical_max_cdf(spec, L=L)
        assert float(dist.cdf(0.99)) == pytest.approx(0.99 ** n, abs=0.02)

    def test_uniform_iid_within_dkw_band(self):
        n, L = 50, 5_000
        spec = GeneratorSpec.beta(1, 1, n, 32)
        dist = empirical_max_cdf(spec, L=L)
        eps = np.sqrt(np.log(2 / 0.001) / (2 * L))
        xs = np.linspace(0.9, 0.999, 25)
        assert np.max(np.abs(dist.cdf(xs) - xs ** n)) <= eps


class TestEmpiricalMaxDist:
    @pytest.mark.parametrize("maxima", [
        [3.0, 1.0, 2.0], [1.0, 2.0, 2.0 - 1e-15], [], [[1.0, 2.0]], 1.0,
        [1.0, np.nan], [1.0, np.inf], [-np.inf, 1.0],
    ], ids=["unsorted", "last-bit-down", "empty", "2-d", "scalar", "nan", "inf", "minus-inf"])
    def test_refuses_maxima_it_cannot_read(self, maxima):
        # an unsorted array gave mc_threshold(d, 0.5) == 1.0 where the
        # nearest-rank answer is 2.0, and an empty one a nan CDF
        with pytest.raises(InvalidSeriesError):
            EmpiricalMaxDist(np.asarray(maxima, dtype=float))

    def test_admits_ties(self):
        dist = EmpiricalMaxDist(np.array([1.0, 2.0, 2.0, 3.0]))
        assert mc_threshold(dist, 0.5) == 2.0
        assert float(dist.cdf(2.0)) == 0.75

    def test_cdf_is_nan_at_a_nan_point(self):
        # searchsorted ranks nan after every maximum, but the CDF there is nan, not 1
        dist = EmpiricalMaxDist(np.array([1.0, 2.0, 3.0]))
        assert np.isnan(dist.cdf(np.nan))
        assert type(dist.cdf(2.0)) is np.float64
        got = dist.cdf([0.5, np.nan, 2.0, 3.5])
        assert np.isnan(got[1])
        assert got[[0, 2, 3]].tolist() == [0.0, 2 / 3, 1.0]


class TestMcThreshold:
    def test_nearest_rank(self):
        dist = dist_from(np.arange(1, 101, dtype=float))
        assert mc_threshold(dist, 0.05) == 95.0

    def test_rounding_noise_in_rank(self):
        dist = dist_from(np.arange(1, 101, dtype=float))
        assert mc_threshold(dist, 0.41) == 59.0

    def test_extreme_rank_is_max(self):
        dist = dist_from(np.arange(1, 101, dtype=float))
        assert mc_threshold(dist, 0.009) == 100.0

    def test_invalid_level(self):
        dist = dist_from([1.0, 2.0])
        for alpha in (0.0, 1.0, np.nan, "0.05", None):
            with pytest.raises(InvalidQuantileError):
                mc_threshold(dist, alpha)


class TestSupNormGap:
    def test_worst_case_model(self):
        # a model far left of the maxima evaluates to ~1 everywhere: the gap
        # is attained at the smallest maximum where the empirical CDF is 1/L
        dist = dist_from(np.linspace(10, 20, 100))
        low = TailModel(params=GevParams(0.0, 0.1, 0.0), theta=1.0, cutoff=0.0, horizon=10)
        assert sup_norm_gap(dist, low) == pytest.approx(1 - 1 / 100, abs=1e-12)

    def test_perfect_gumbel_fit_near_dkw(self):
        # maxima drawn from the model itself: gap is pure empirical noise
        rng = np.random.default_rng(33)
        L = 2000
        maxima = 3.0 - 0.5 * np.log(-np.log(rng.random(L)))
        dist = dist_from(maxima)
        model = TailModel(params=GevParams(3.0, 0.5, 0.0), theta=1.0, cutoff=0.0, horizon=10)
        eps = np.sqrt(np.log(2 / 0.001) / (2 * L))
        assert sup_norm_gap(dist, model) <= eps
