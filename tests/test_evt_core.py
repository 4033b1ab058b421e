"""Tests for the extreme value family evaluations."""

import math

import numpy as np
import pytest

from threshold_machine import (
    GevParams,
    InvalidParamsError,
    InvalidQuantileError,
    InvalidTargetError,
    TailModel,
    invert_tail,
    model_max_cdf,
)

from reference import gev_cdf, tail_fn


def random_params(rng, n):
    for _ in range(n):
        yield GevParams(
            mu=float(rng.uniform(-5, 5)),
            sigma=float(rng.uniform(0.1, 5)),
            xi=float(rng.uniform(-0.9, 0.9)),
        )


class TestGevCdf:
    def test_standard_gumbel_at_zero(self):
        assert gev_cdf(GevParams(0, 1, 0), 0.0) == pytest.approx(np.exp(-1), abs=1e-12)

    def test_bracket_one_at_location(self):
        # x = mu forces the bracket to 1 regardless of shape
        assert gev_cdf(GevParams(2, 3, 0.5), 2.0) == pytest.approx(np.exp(-1), abs=1e-12)

    def test_clamps_above_weibull_endpoint(self):
        # upper endpoint mu + sigma/|xi| = 2
        assert gev_cdf(GevParams(0, 1, -0.5), 3.0) == 1.0

    def test_clamps_below_frechet_endpoint(self):
        assert gev_cdf(GevParams(0, 1, 0.5), -3.0) == 0.0

    def test_nondecreasing_in_x(self):
        rng = np.random.default_rng(11)
        for params in random_params(rng, 20):
            x = np.sort(rng.uniform(params.mu - 8 * params.sigma,
                                    params.mu + 8 * params.sigma, size=200))
            g = gev_cdf(params, x)
            assert np.all(np.diff(g) >= -1e-15)
            assert np.all((g >= 0) & (g <= 1))

    def test_gumbel_branch_continuity_at_zero_shape(self):
        for xi in (1e-9, -1e-9):
            for z in np.linspace(-5, 5, 41):
                a = gev_cdf(GevParams(0, 1, xi), z)
                b = gev_cdf(GevParams(0, 1, 0.0), z)
                assert abs(a - b) <= 1e-6

    def test_near_tolerance_shapes_stay_close(self):
        for xi in (2e-8, -2e-8):
            for z in np.linspace(-5, 5, 41):
                a = gev_cdf(GevParams(0, 1, xi), z)
                b = gev_cdf(GevParams(0, 1, 0.0), z)
                assert abs(a - b) <= 1e-6

    def test_affine_equivariance(self):
        rng = np.random.default_rng(12)
        for params in random_params(rng, 20):
            a, b = float(rng.uniform(0.1, 10)), float(rng.uniform(-10, 10))
            moved = GevParams(a * params.mu + b, a * params.sigma, params.xi)
            x = float(rng.uniform(params.mu - 3 * params.sigma, params.mu + 3 * params.sigma))
            assert gev_cdf(params, x) == pytest.approx(gev_cdf(moved, a * x + b), abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            GevParams(0, 0, 0)
        with pytest.raises(InvalidParamsError):
            GevParams(0, -1, 0)
        with pytest.raises(InvalidParamsError):
            GevParams(np.nan, 1, 0)

    @pytest.mark.parametrize("field", ["mu", "sigma", "xi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
    def test_non_finite_params_rejected(self, field, bad):
        with pytest.raises(InvalidParamsError):
            GevParams(**{"mu": 0.0, "sigma": 1.0, "xi": 0.1, field: bad})


class TestTailFn:
    def test_gumbel_at_location(self):
        assert tail_fn(GevParams(0, 1, 0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fitted_stream_value(self):
        # hand evaluation of exp((5.717 - 5.5437) / 0.647)
        assert tail_fn(GevParams(5.717, 0.647, 0), 5.5437) == pytest.approx(1.3072, abs=2e-4)

    def test_frechet_direct(self):
        assert tail_fn(GevParams(0, 2, 1), 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_log_cdf_on_support(self):
        rng = np.random.default_rng(13)
        for params in random_params(rng, 30):
            z = rng.uniform(-0.9, 4.0, size=50)
            if abs(params.xi) < 1e-8:
                x = params.mu + params.sigma * z
            else:
                x = params.mu + params.sigma * z
                x = x[1 + params.xi * (x - params.mu) / params.sigma > 1e-6]
            c = tail_fn(params, x)
            assert np.allclose(np.exp(-c), gev_cdf(params, x), atol=1e-12)

    def test_strictly_decreasing(self):
        params = GevParams(1, 2, -0.3)
        x = np.linspace(-3, 7, 100)  # endpoint at 1 + 2/0.3 = 7.67
        c = tail_fn(params, x)
        assert np.all(np.diff(c) < 0)

    def test_out_of_support_raises(self):
        with pytest.raises(ValueError, match="outside support"):
            tail_fn(GevParams(0, 1, -0.5), 3.0)
        with pytest.raises(ValueError, match="outside support"):
            tail_fn(GevParams(0, 1, 0.5), -3.0)


class TestInvertTail:
    def test_unit_target_at_location(self):
        assert invert_tail(GevParams(0, 1, 0), 1.0) == 0.0

    def test_reference_changepoint_threshold(self):
        # the fitted quadruple (sigma, xi, mu, theta) = (0.647, 0, 5.717, 0.306)
        # at alpha = 1 - exp(-2000/5000) reproduces the threshold 5.54
        alpha = 1 - np.exp(-2000 / 5000)
        y = -(1 / 0.306) * np.log1p(-alpha)
        assert y == pytest.approx(0.4 / 0.306, abs=1e-12)
        x = invert_tail(GevParams(5.717, 0.647, 0), y)
        assert x == pytest.approx(5.54, abs=0.01)

    def test_inverse_of_frechet_example(self):
        assert invert_tail(GevParams(0, 2, 1), 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for params in random_params(rng, 50):
            z = rng.uniform(-0.9, 4.0, size=40)
            x = params.mu + params.sigma * z
            if abs(params.xi) >= 1e-8:
                x = x[1 + params.xi * (x - params.mu) / params.sigma > 1e-6]
            back = np.array([invert_tail(params, y) for y in tail_fn(params, x).tolist()])
            assert np.all(np.abs(back - x) <= 1e-9 * np.maximum(np.abs(x), 1.0))

    def test_bad_targets_rejected(self):
        # a bad value is refused in every form it comes in; a bool, a string,
        # None, a list and an array of one or more axes are no target at all
        wraps = (lambda y: y, float, np.float64, np.asarray, lambda y: np.array([y]))
        bad = [wrap(y) for y in (0, -1, np.inf, -np.inf, np.nan) for wrap in wraps]
        bad += [True, np.True_, np.asarray(True), "1.0", None, [1.0],
                np.array([1.0]), np.array([1.0, 2.0]), np.ones((1, 1))]
        for params in (GevParams(0, 1, 0), GevParams(0, 1, 0.2)):
            for y in bad:
                with pytest.raises(InvalidTargetError):
                    invert_tail(params, y)

    @pytest.mark.parametrize("params", [GevParams(5.717, 0.647, 0.0), GevParams(1.5, 2.0, 1e-9),
                                        GevParams(-2.0, 0.3, 0.4), GevParams(3.0, 1.7, -0.6)],
                             ids=["gumbel", "near-gumbel", "frechet", "weibull"])
    def test_scalar_forms_give_the_float_bits(self, params):
        # a numpy float64, a 0-d array and an int are read as their float,
        # whose path is the one TailModel.upper and lower take
        model = TailModel(params=params, theta=0.3, cutoff=0.0, horizon=100)
        pairs = [(-math.log1p(-a) / model.theta, model.upper(a)) for a in LEVELS]
        pairs += [(-math.log(a) / model.theta, model.lower(a)) for a in LEVELS]
        pairs += [(y, invert_tail(params, y)) for y in np.geomspace(1e-6, 1e3, 41).tolist()]
        for y, x in pairs:
            for form in (y, np.float64(y), np.asarray(y)):
                got = invert_tail(params, form)
                assert type(got) is float and got == x  # bit-identical
        for k in (1, 7, 1000):
            assert invert_tail(params, k) == invert_tail(params, np.int64(k)) == invert_tail(
                params, float(k))


class TestTailModel:
    def test_theta_one_equals_cdf(self):
        params = GevParams(1, 2, 0.1)
        model = TailModel(params=params, theta=1.0, cutoff=0.0, horizon=100)
        x = np.linspace(-2, 10, 50)
        assert np.allclose(model_max_cdf(model, x), gev_cdf(params, x), atol=1e-15)

    def test_square_root_exponent(self):
        params = GevParams(0, 1, 0)
        model = TailModel(params=params, theta=0.5, cutoff=0.0, horizon=100)
        x = invert_tail(params, -np.log(0.81))  # gev_cdf = 0.81 there
        assert model_max_cdf(model, x) == pytest.approx(0.9, abs=1e-9)

    def test_reference_quadruple_level(self):
        model = TailModel(params=GevParams(5.717, 0.647, 0.0), theta=0.306,
                          cutoff=4.0, horizon=2000)
        # at the exactly inverted threshold the level is exact
        y = -(1 / 0.306) * np.log1p(-(1 - np.exp(-0.4)))
        x = invert_tail(model.params, y)
        assert model_max_cdf(model, x) == pytest.approx(np.exp(-0.4), abs=1e-12)
        # at the rounded threshold value 5.54 it lands within 2e-3
        assert model_max_cdf(model, 5.54) == pytest.approx(0.6703, abs=2e-3)

    @pytest.mark.parametrize("xi", [0.0, 0.4, -0.6], ids=["gumbel", "frechet", "weibull"])
    def test_nan_point_is_nan(self, xi):
        # a nan x lies on neither side of the support, so neither clamp
        # applies; the finite points around it keep their values
        model = TailModel(params=GevParams(1.0, 2.0, xi), theta=0.5, cutoff=0.0, horizon=10)
        assert math.isnan(model_max_cdf(model, math.nan))
        x = np.array([-50.0, math.nan, 1.5, 50.0])
        got = model_max_cdf(model, x)
        assert np.isnan(got[1])
        assert got[[0, 2, 3]].tolist() == [model_max_cdf(model, v) for v in (-50.0, 1.5, 50.0)]

    def test_invariants_enforced(self):
        params = GevParams(0, 1, 0)
        with pytest.raises(InvalidParamsError):
            TailModel(params=params, theta=0.0, cutoff=0.0, horizon=10)
        with pytest.raises(InvalidParamsError):
            TailModel(params=params, theta=1.5, cutoff=0.0, horizon=10)
        with pytest.raises(InvalidParamsError):
            TailModel(params=params, theta=0.5, cutoff=0.0, horizon=0)

    @pytest.mark.parametrize("field", ["theta", "cutoff", "horizon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "x", None])
    def test_non_finite_fields_rejected(self, field, bad):
        fields = {"params": GevParams(0, 1, 0), "theta": 0.5, "cutoff": 0.0, "horizon": 10}
        with pytest.raises(InvalidParamsError):
            TailModel(**{**fields, field: bad})


# at theta = 1e-3 the levels sit where C(x) exceeds 745 and G(x) itself
# underflows, though G(x)**theta does not
LEVEL_MODELS = [TailModel(params=params, theta=theta, cutoff=0.0, horizon=1000)
                for params in (GevParams(5.717, 0.647, 0.0), GevParams(-2.0, 0.3, 0.4),
                               GevParams(3.0, 1.7, -0.6))
                for theta in (1.0, 0.3)]
LEVEL_MODELS += [TailModel(params=GevParams(0.0, 1.0, xi), theta=1e-3, cutoff=0.0, horizon=10)
                 for xi in (0.0, 0.3, -0.3)]
LEVEL_IDS = [f"{kind}-theta{theta}" for kind in ("gumbel", "frechet", "weibull")
             for theta in (1.0, 0.3)]
LEVEL_IDS += [f"{kind}-theta0.001" for kind in ("gumbel", "frechet", "weibull")]
LEVELS = (0.6, 0.5, 0.1, 0.05, 0.01, 0.005, 1e-6)


@pytest.mark.parametrize("model", LEVEL_MODELS, ids=LEVEL_IDS)
class TestLevelMap:
    def test_upper_is_the_pipeline_inversion(self, model):
        for a in LEVELS:
            assert model.upper(a) == invert_tail(model.params, -math.log1p(-a) / model.theta)

    def test_lower_is_the_confidence_bound_inversion(self, model):
        for a in LEVELS:
            assert model.lower(a) == invert_tail(model.params, -math.log(a) / model.theta)

    def test_levels_of_the_max_distribution(self, model):
        for a in LEVELS:
            assert abs(model_max_cdf(model, model.upper(a)) - (1 - a)) <= 1e-9
            assert abs(model_max_cdf(model, model.lower(a)) - a) <= 1e-9

    @pytest.mark.parametrize("bad", [0, 1, -0.1, 1.5, math.nan, math.inf, "0.1", None])
    def test_level_outside_unit_interval_rejected(self, model, bad):
        with pytest.raises(InvalidQuantileError):
            model.upper(bad)
        with pytest.raises(InvalidQuantileError):
            model.lower(bad)
