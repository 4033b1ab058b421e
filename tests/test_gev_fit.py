"""Tests for the marked Poisson likelihood and the exact profile-likelihood fit."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from threshold_machine import (
    DegenerateHeightsError,
    ExceedanceSet,
    GeneratorSpec,
    GevParams,
    InvalidConfigError,
    TooFewExceedancesError,
    extract,
    fit,
    generate,
    neg_log_likelihood,
    quantile_cutoff,
    tail_fn,
)
from threshold_machine import gev_fit
from threshold_machine.resample import make_rng


def exc_set(heights, u, n=None):
    heights = np.asarray(heights, dtype=float)
    n = n or len(heights) + 10
    return ExceedanceSet(
        cutoff=u,
        indices=np.arange(1, len(heights) + 1, dtype=np.int64),
        heights=heights,
        source_len=n,
    )


# the marginal families of acceptance criterion 5, first trial
CRITERION5_FAMILIES = {
    "beta25": GeneratorSpec.beta(2, 5, 10_000, 1),
    "chi2": GeneratorSpec.chi_square(1, 10_000, 1),
    "t4": GeneratorSpec.student_t(4, 10_000, 1),
    "ar1_m0": GeneratorSpec.gaussian_ar1(0, 10_000, 1),
    "ar1_m50": GeneratorSpec.gaussian_ar1(50, 10_000, 1),
}


# each family with a free shape (id: the family), then with the shape pinned
POLISH_CASES = [pytest.param(f, None, id=f) for f in sorted(CRITERION5_FAMILIES)] + [
    pytest.param(f, xi, id=f"{f}-xi={xi:g}")
    for xi in (-0.9, -0.2, 1e-6, 0.2, 1.5) for f in sorted(CRITERION5_FAMILIES)
]


def full_grid_search(w, shape):
    """``gev_fit._search`` over the whole grid, infeasible points included."""
    v_grid = gev_fit._LOG1P_T_GRID
    grid = gev_fit._profile(np.expm1(v_grid), w, shape)[0]
    return gev_fit._polish(w, shape, v_grid, int(np.argmin(grid)))


def profile_score(t, w, shape):
    """Derivative in ``t`` of the Pareto profile NLL per exceedance: of
    ``log(k/t) + 1 + k`` for a free shape and of ``log(shape/t) + k + k/shape``
    for a pinned one, with ``k = mean(log1p(t w))`` (Grimshaw 1993)."""
    k = np.mean(np.log1p(t * w))
    a = np.mean(w / (1 + t * w))
    if shape is not None:
        return (1 + 1 / shape) * a - 1 / t
    if t == 0:  # the limit, from k = a*t - mean(w**2)*t**2/2 + O(t**3)
        return a - np.mean(w**2) / (2 * a)
    return a / k - 1 / t + a


def gumbel_sample(mu, sigma, n, seed):
    u = make_rng(seed).random(n)
    return mu - sigma * np.log(-np.log(u))


class TestNegLogLikelihood:
    def test_gumbel_single_height(self):
        # exp(0) + (log 1 + (1.0 - 0)/1) = 2
        nll = neg_log_likelihood(GevParams(0, 1, 0), exc_set([1.0], u=0.0))
        assert nll == pytest.approx(2.0, abs=1e-12)

    def test_frechet_single_height(self):
        # C(u)=1, term = log 1 + 2 log 2
        nll = neg_log_likelihood(GevParams(0, 1, 1), exc_set([1.0], u=0.0))
        assert nll == pytest.approx(1 + 2 * math.log(2), abs=1e-12)

    def test_support_violation_is_inf_sentinel(self):
        # heights below the lower endpoint for positive shape
        p = GevParams(10.0, 0.5, 0.5)  # lower endpoint 10 - 1 = 9
        assert neg_log_likelihood(p, exc_set([8.0, 11.0], u=7.5)) == np.inf

    def test_cutoff_violation_is_inf_sentinel(self):
        p = GevParams(0.0, 1.0, -0.5)  # upper endpoint 2
        assert neg_log_likelihood(p, exc_set([1.5], u=2.5)) == np.inf

    def test_independent_of_indices(self):
        heights = [2.0, 3.0, 2.5]
        a = ExceedanceSet(1.0, np.array([1, 2, 3]), np.array(heights), 100)
        b = ExceedanceSet(1.0, np.array([10, 55, 90]), np.array(heights), 100)
        p = GevParams(2.0, 1.0, 0.1)
        assert neg_log_likelihood(p, a) == neg_log_likelihood(p, b)


class TestFit:
    def fit_tail(self, values, q, seed=0, **kw):
        u = quantile_cutoff(values, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit(extract(values, u), **kw)

    def test_exponential_type_tail(self):
        s = make_rng(31).chisquare(1, size=10_000)
        params, diag = self.fit_tail(s, 0.95)
        assert diag.converged
        assert abs(params.xi) <= 0.15

    def test_heavy_tail_sign(self):
        s = make_rng(32).standard_t(4, size=10_000)
        params, _ = self.fit_tail(s, 0.95)
        assert params.xi > 0

    def test_short_tail_sign(self):
        s = make_rng(33).beta(2, 5, size=10_000)
        params, _ = self.fit_tail(s, 0.95)
        assert params.xi < 0

    def test_monotone_improvement(self):
        s = make_rng(34).chisquare(1, size=5_000)
        u = quantile_cutoff(s, 0.95)
        e = extract(s, u)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params, diag = fit(e)
        assert diag.neg_log_lik <= neg_log_likelihood(diag.init, e) + 1e-9

    def test_stationarity_at_interior_optimum(self):
        s = make_rng(35).chisquare(1, size=10_000)
        u = quantile_cutoff(s, 0.95)
        e = extract(s, u)
        for fix_xi in (None, 0.2, -0.2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params, diag = fit(e, fix_xi=fix_xi)
            assert diag.converged
            # a pinned shape leaves only the (mu, sigma) gradient
            n_free = 3 if fix_xi is None else 2
            steps = (1e-5 * max(abs(params.mu), 1.0), 1e-5 * params.sigma, 1e-6)[:n_free]
            grads = []
            for i, h in enumerate(steps):
                delta = np.zeros(3)
                delta[i] = h
                hi = GevParams(params.mu + delta[0], params.sigma + delta[1], params.xi + delta[2])
                lo = GevParams(params.mu - delta[0], params.sigma - delta[1], params.xi - delta[2])
                grads.append((neg_log_likelihood(hi, e) - neg_log_likelihood(lo, e)) / (2 * h))
            # scale gradients by the parameter magnitudes and the sample size
            magnitudes = np.array([max(abs(params.mu), 1.0), params.sigma, 1.0])[:n_free]
            scaled = np.array(grads) * magnitudes / diag.n_u_used
            assert np.linalg.norm(scaled) <= 1e-3, fix_xi

    def test_affine_equivariance(self):
        s = make_rng(36).chisquare(1, size=5_000)
        u = quantile_cutoff(s, 0.95)
        a, b = 3.7, -2.2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p1, _ = fit(extract(s, u))
            p2, _ = fit(extract(a * s + b, a * u + b))
        assert p2.mu == pytest.approx(a * p1.mu + b, abs=1e-6 * max(1, abs(a * p1.mu + b)))
        assert p2.sigma == pytest.approx(a * p1.sigma, rel=1e-6)
        assert p2.xi == pytest.approx(p1.xi, abs=1e-6)

    def test_fixed_shape_fit(self):
        s = make_rng(37).chisquare(1, size=5_000)
        u = quantile_cutoff(s, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params, diag = fit(extract(s, u), fix_xi=0.0)
        assert params.xi == 0.0
        assert diag.converged

    def test_too_few_exceedances(self):
        with pytest.raises(TooFewExceedancesError):
            fit(exc_set([1.0, 2.0], u=0.5))

    def test_small_sample_warning(self):
        # the diagnostics carry the count; the pipeline applies the few-exceedances rule
        h = gumbel_sample(0, 1, 15, seed=38)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, diag = fit(exc_set(h, u=float(h.min()) - 0.5))
        assert diag.n_u_used == 15

    def test_degenerate_heights(self):
        with pytest.raises(DegenerateHeightsError):
            fit(exc_set([4.0] * 40, u=1.0))

    def test_shape_pinned_at_or_below_minus_one(self):
        s = make_rng(39).chisquare(1, size=5_000)
        with pytest.raises(InvalidConfigError):
            fit(extract(s, quantile_cutoff(s, 0.95)), fix_xi=-1.0)

    def test_gumbel_closed_form(self):
        s = make_rng(40).chisquare(1, size=5_000)
        e = extract(s, quantile_cutoff(s, 0.95))
        params, diag = fit(e, fix_xi=0.0)
        sigma = float(np.mean(e.heights - e.cutoff))
        assert params.sigma == pytest.approx(sigma, rel=1e-12)
        assert params.mu == pytest.approx(e.cutoff + sigma * math.log(e.n_u), rel=1e-12)
        assert params == diag.init
        # shapes on the Gumbel branch take the same closed form
        for tiny in (1e-9, -1e-9):
            assert fit(e, fix_xi=tiny) == (params, diag)

    def test_expected_count_at_cutoff(self):
        # the Poisson factor of the likelihood is maximized at C(u) = n_u
        s = make_rng(41).standard_t(4, size=10_000)
        e = extract(s, quantile_cutoff(s, 0.95))
        params, _ = fit(e)
        assert tail_fn(params, e.cutoff) == pytest.approx(e.n_u, rel=1e-9)

    @pytest.mark.parametrize("family", sorted(CRITERION5_FAMILIES))
    def test_pinned_search_matches_full_grid(self, family):
        # a pinned shape searches only the grid points of its sign, plus t = 0
        for seed in (1, 2, 3, 4):
            s = generate(CRITERION5_FAMILIES[family].with_seed(seed))
            e = extract(s, quantile_cutoff(s, 0.95))
            y = e.heights - e.cutoff
            w = y / y.max()
            for xi in (-0.9, -0.5, -0.2, -1e-6, 1e-6, 0.2, 0.5, 1.5):
                assert gev_fit._search(w, xi) == full_grid_search(w, xi), (seed, xi)

    @pytest.mark.parametrize("family, fix_xi", POLISH_CASES)
    def test_simplex_polish_finds_nothing_lower(self, family, fix_xi):
        s = generate(CRITERION5_FAMILIES[family])
        e = extract(s, quantile_cutoff(s, 0.95))
        params, diag = fit(e, fix_xi=fix_xi)
        # the reported NLL is read off the profile, not evaluated
        assert diag.neg_log_lik == pytest.approx(neg_log_likelihood(params, e), rel=1e-12)

        def nll(v):
            xi = v[2] if fix_xi is None else fix_xi
            return neg_log_likelihood(GevParams(v[0], math.exp(v[1]), xi), e)

        start = [params.mu, math.log(params.sigma)] + ([params.xi] if fix_xi is None else [])
        res = minimize(nll, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert res.fun >= diag.neg_log_lik - 1e-8 * e.n_u

    @pytest.mark.parametrize("family, shape", [
        pytest.param(f, xi, id=f if xi is None else f"{f}-xi={xi:g}")
        for xi in (None, -0.2, 0.2) for f in sorted(CRITERION5_FAMILIES)
    ])
    def test_search_finds_the_score_root(self, family, shape):
        # the polish reaches the root of the analytic score in the grid bracket
        s = generate(CRITERION5_FAMILIES[family])
        e = extract(s, quantile_cutoff(s, 0.95))
        w = (e.heights - e.cutoff) / (e.heights - e.cutoff).max()
        _, xi, scale, _, converged = gev_fit._search(w, shape)
        v_grid = gev_fit._LOG1P_T_GRID
        i = int(np.argmin(gev_fit._profile(np.expm1(v_grid), w, shape)[0]))
        lo, hi = np.expm1(v_grid[[i - 1, i + 1]])
        t_ref = brentq(profile_score, lo, hi, args=(w, shape), xtol=1e-300, rtol=1e-15)
        assert converged
        assert xi / scale == pytest.approx(t_ref, rel=1e-10, abs=0)

    def test_boundary_fit_is_flagged(self):
        # uniform exceedances put the free shape on the k > -1 boundary; the
        # diagnostics flag it, and the fit raises no warning
        s = make_rng(0).random(1000)
        e = extract(s, quantile_cutoff(s, 0.9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, diag = fit(e)
            assert not fit(e, fix_xi=-0.9)[1].boundary
        assert params.xi == pytest.approx(-1, abs=1e-6)
        assert diag.boundary

    def test_unfinished_polish_is_not_converged(self, monkeypatch):
        # the evaluation cap stops the polish at its last feasible point
        monkeypatch.setattr(gev_fit, "_MAX_EVALUATIONS", 3)
        s = generate(CRITERION5_FAMILIES["chi2"])
        e = extract(s, quantile_cutoff(s, 0.95))
        params, diag = fit(e)
        assert (diag.iterations, diag.converged) == (3, False)
        assert diag.neg_log_lik == pytest.approx(neg_log_likelihood(params, e), rel=1e-12)
