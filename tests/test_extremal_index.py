"""Tests for the extremal index estimator and its likelihood."""

import math

import numpy as np
import pytest

from threshold_machine import (
    GapSet,
    NoClustersError,
    extract,
    gaps,
    generate,
    GeneratorSpec,
    ThetaEstimate,
    quantile_cutoff,
    theta_closed_form,
    theta_log_likelihood,
)
from threshold_machine.extremal_index import InvalidThetaError


def gapset(gap_list, rate):
    return GapSet(gaps=np.asarray(gap_list, dtype=np.int64), rate=rate)


def grid_argmax(g, step=1e-3):
    grid = np.arange(step, 1.0 + step / 2, step)
    vals = [theta_log_likelihood(float(t), g) for t in grid]
    return float(grid[int(np.argmax(vals))])


class TestThetaLogLikelihood:
    def test_theta_one_all_gaps_open(self):
        # every T - 1 > 0 makes the (1-theta) exponent zero: finite at theta=1
        g = gapset([3, 5, 2], rate=0.1)
        expected = -1.0 * 0.1 * (2 + 4 + 1)
        assert theta_log_likelihood(1.0, g) == pytest.approx(expected, abs=1e-12)

    def test_theta_one_with_cluster_gap(self):
        # a gap of exactly 1 puts mass on log(1 - theta): -inf at theta=1
        g = gapset([1, 5], rate=0.1)
        assert theta_log_likelihood(1.0, g) == -math.inf

    def test_hand_evaluated_value(self):
        g = gapset([1, 6], rate=0.15)
        # 1*log(0.8) + 2*log(0.2) - 0.2*0.75
        assert theta_log_likelihood(0.2, g) == pytest.approx(-3.5920, abs=1e-4)

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, np.nan])
    def test_invalid_theta(self, theta):
        with pytest.raises(InvalidThetaError):
            theta_log_likelihood(theta, gapset([2, 3], rate=0.1))


    def test_error_exported_from_package(self):
        import threshold_machine

        assert threshold_machine.InvalidThetaError is InvalidThetaError
        assert issubclass(InvalidThetaError, threshold_machine.DtmError)


class TestThetaClosedForm:
    def test_independent_like_spacing(self):
        # all gaps > 1 and light total hazard: maximizer at the boundary 1
        g = gapset([3, 4, 6, 2, 5], rate=0.05)
        est = theta_closed_form(g)
        assert est.theta == 1.0
        assert est.n_c == 5

    @pytest.mark.parametrize("gap_list, rate", [([2, 2], 0.01), ([2, 3], 0.2), ([2, 6], 0.1)])
    def test_boundary_root_above_one_is_capped(self, gap_list, rate):
        # no gap of 1 (a = 0) and b >= c put the root at 1; on these sets the
        # square-root form would compute it one ulp above 1
        assert theta_closed_form(gapset(gap_list, rate)) == ThetaEstimate(theta=1.0, n_u=3, n_c=2)

    def test_boundary_root_below_one_is_exact(self):
        # a = 0 and b = 6 >= c = 2.3: the formula computes this root of 1 one
        # ulp below it, which no cap catches
        assert theta_closed_form(gapset([4, 11, 11], 0.1)).theta == 1.0

    @pytest.mark.parametrize("T", range(3, 400))
    def test_single_gap_root_is_exact_on_both_sides_of_b_equals_c(self, T):
        # a = 0, b = 2 and c = rate * (T - 1): with the rate 2 / (T - 1)
        # nudged 1-3 ulps up, c is just above b and the root is b / c, where
        # the square root's discriminant (b - c)^2 used to round negative
        up = down = 2 / (T - 1)
        for _ in range(3):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            assert theta_closed_form(gapset([T], up)).theta == 2 / (up * (T - 1))
            assert theta_closed_form(gapset([T], down)).theta == 1.0

    def test_zero_rate_root_is_one(self):
        assert theta_closed_form(gapset([2, 5], 0.0)) == ThetaEstimate(theta=1.0, n_u=3, n_c=2)

    @pytest.mark.parametrize(
        "spec",
        [GeneratorSpec.gaussian_ar1(0, 10_000, 0), GeneratorSpec.chi_square(1, 10_000, 0)],
        ids=["gaussian", "chi2"],
    )
    def test_series_gaps_with_no_gap_of_one_have_root_one(self, spec):
        # with a = 0, c <= n_u (n - n_u) / n < n_u <= 2 (n_u - 1) = b, so the
        # b / c branch is reached only by a directly built gap set
        boundary = 0
        for seed in range(200):
            s = generate(spec.with_seed(seed))
            g = gaps(extract(s, quantile_cutoff(s, 0.99)))
            if np.any(g.gaps == 1):
                continue
            boundary += 1
            b, c = 2 * g.gaps.size, g.rate * float(np.sum(g.gaps - 1))
            assert c < b
            assert theta_closed_form(g).theta == 1.0
        assert boundary > 0

    def test_estimate_in_unit_interval(self):
        # half the sets have no gap of 1 (a = 0), where b >= c puts the root
        # at exactly 1
        rng = np.random.default_rng(23)
        for i in range(2000):
            gap_list = rng.integers(2 if i % 2 else 1, 30, size=int(rng.integers(1, 60)))
            if np.all(gap_list == 1):
                continue
            g = gapset(gap_list, float(rng.uniform(0.005, 0.5)))
            theta = theta_closed_form(g).theta
            assert 0.0 < theta <= 1.0
            b, c = 2 * np.sum(gap_list > 1), g.rate * float(np.sum(gap_list - 1))
            if np.all(gap_list > 1) and b >= c:
                assert theta == 1.0

    def test_small_example_matches_grid_oracle(self):
        # indices [3, 4, 10] in n = 20: gaps [1, 6], rate 0.15.  The grid
        # argmax of the mixture log likelihood sits at 0.607, which the
        # closed form reproduces.
        g = gapset([1, 6], rate=0.15)
        est = theta_closed_form(g)
        assert est.n_u == 3 and est.n_c == 1
        assert est.theta == pytest.approx(grid_argmax(g), abs=2e-3)
        assert est.theta == pytest.approx(0.60703, abs=1e-4)

    def test_matches_grid_on_random_sets(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 60:
            k = int(rng.integers(3, 40))
            gap_list = rng.integers(1, 25, size=k)
            n_c = int(np.sum(gap_list > 1))
            if n_c < 1:
                continue
            rate = float(rng.uniform(0.02, 0.3))
            g = gapset(gap_list, rate)
            est = theta_closed_form(g)
            assert abs(est.theta - grid_argmax(g)) <= 2e-3
            checked += 1

    def test_time_rescaling_invariance(self):
        # doubling T - 1 while halving the rate leaves the estimate unchanged
        g1 = gapset([1, 6, 3], rate=0.2)
        g2 = gapset([1, 11, 5], rate=0.1)  # T-1: (0,5,2) -> (0,10,4)
        assert theta_closed_form(g1).theta == pytest.approx(
            theta_closed_form(g2).theta, abs=1e-12
        )

    def test_no_clusters_error(self):
        with pytest.raises(NoClustersError):
            theta_closed_form(gapset([1, 1, 1], rate=0.2))

    def test_depends_only_on_indices(self):
        # two series with identical exceedance indices but different heights
        s1 = np.zeros(40)
        s2 = np.zeros(40)
        s1[[4, 5, 19, 30]] = [5.0, 6.0, 7.0, 8.0]
        s2[[4, 5, 19, 30]] = [100.0, 50.0, 60.0, 70.0]
        g1 = gaps(extract(s1, 1.0))
        g2 = gaps(extract(s2, 1.0))
        assert theta_closed_form(g1) == theta_closed_form(g2)

    def test_iid_normal_series_near_one(self):
        thetas = []
        for seed in range(10):
            s = generate(GeneratorSpec.gaussian_ar1(0, 10_000, seed))
            g = gaps(extract(s, quantile_cutoff(s, 0.99)))
            thetas.append(theta_closed_form(g).theta)
        assert np.median(thetas) >= 0.9
