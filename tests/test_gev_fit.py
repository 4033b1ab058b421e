"""Tests for the marked Poisson likelihood and the exact profile-likelihood fit."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from threshold_machine import (
    DegenerateHeightsError,
    ErGraphSpec,
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
    scan_series,
    tail_fn,
)
from threshold_machine import gev_fit
from threshold_machine.resample import bootstrap_draw, make_rng


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


# series whose tails are hard on a grid search: bounded and flat, lattice
# valued, infinite mean, and the criterion-7 scan statistic
HARD_SERIES = {
    "uniform": lambda: make_rng(0).random(1000),
    "beta11": lambda: generate(GeneratorSpec.beta(1, 1, 10_000, 3)),
    "poisson": lambda: make_rng(4).poisson(3, 10_000).astype(float),
    "rounded-gaussian": lambda: np.round(make_rng(5).standard_normal(10_000), 1),
    "pareto0.8": lambda: generate(GeneratorSpec.pareto(0.8, 10_000, 6)),
    "t1": lambda: generate(GeneratorSpec.student_t(1, 10_000, 7)),
    "scan": lambda: scan_series(ErGraphSpec(N=100, p0=0.1, p1=0.1, k=10, seed=0), 5000),
}
SEARCH_SHAPES = (None, -0.9, -0.2, -1e-6, 1e-6, 0.2, 1.5)


def search_weights(spec_or_series, q, draw_seed=None):
    """``y / max(y)`` of the exceedances above the q cutoff, of the series or
    of its bootstrap replicate ``draw_seed``; None for fewer than two
    distinct heights, which fit rejects."""
    s = spec_or_series
    if isinstance(s, GeneratorSpec):
        s = generate(s)
    e = extract(s, quantile_cutoff(s, q))
    if draw_seed is not None:
        e = extract(e, e.cutoff, bootstrap_draw(s.size, draw_seed))
    y = e.heights - e.cutoff
    if y.size == 0 or y.min() == y.max():
        return None
    return y / y.max()


# each family with a free shape (id: the family), then with the shape pinned
POLISH_CASES = [pytest.param(f, None, id=f) for f in sorted(CRITERION5_FAMILIES)] + [
    pytest.param(f, xi, id=f"{f}-xi={xi:g}")
    for xi in (-0.9, -0.2, 1e-6, 0.2, 1.5) for f in sorted(CRITERION5_FAMILIES)
]


def full_grid_search(w, shape):
    """The one-pass search the two-level ``gev_fit._search`` must equal: the
    polish from the best point of the whole grid, infeasible points included."""
    grid = gev_fit._profile(np.expm1(gev_fit._LOG1P_T_GRID), w, shape)
    return gev_fit._polish(w, shape, int(np.argmin(grid)))


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
        e = extract(s, quantile_cutoff(s, 0.95))
        for bad in (-1.0, -1.5, -np.inf, np.inf, np.nan):
            with pytest.raises(InvalidConfigError):
                fit(e, fix_xi=bad)

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

    @pytest.mark.parametrize("name", sorted(HARD_SERIES))
    def test_search_matches_full_grid_on_hard_data(self, name):
        # the two grid passes find the full grid's best point, free or pinned,
        # on bootstrap replicates too, and down to a few exceedances at q = 0.999
        s = HARD_SERIES[name]()
        for q in (0.9, 0.99, 0.999):
            for draw_seed in (None, 1, 2):
                w = search_weights(s, q, draw_seed)
                if w is None:
                    continue
                for shape in SEARCH_SHAPES:
                    assert gev_fit._search(w, shape) == full_grid_search(w, shape), (
                        q, draw_seed, shape)

    @pytest.mark.parametrize("spec, q, draw_seed, xi", [
        # the full grid's best point is a narrow dip at the k > -1 boundary,
        # between coarse points and away from the coarse minimum
        pytest.param(GeneratorSpec.chi_square(1, 10_000, 20), 0.999, None, -1, id="chi2-edge"),
        pytest.param(GeneratorSpec.student_t(1, 10_000, 30), 0.999, 2, -1, id="t1-edge"),
        # two basins: the coarse minimum lies in the boundary one, the full
        # grid's best point next to the runner-up
        pytest.param(GeneratorSpec.beta(1, 1, 10_000, 7), 0.99, None, -0.983, id="beta11-runner-up"),
    ])
    def test_search_windows_cover_edge_and_runner_up(self, spec, q, draw_seed, xi):
        w = search_weights(spec, q, draw_seed)
        found = gev_fit._search(w, None)
        assert found == full_grid_search(w, None)
        assert found[1] == pytest.approx(xi, abs=1e-3)

    def test_coarse_pass_holds_the_gumbel_point(self):
        # so a free fit is never above init, and a pinned shape's sign
        # subgrid starts or ends with a coarse point
        i = gev_fit._GUMBEL_INDEX
        assert gev_fit._T_GRID[i] == 0 and i % gev_fit._COARSE_STEP == 0

    @pytest.mark.parametrize("shape", SEARCH_SHAPES)
    def test_profile_rows_do_not_depend_on_the_batch(self, shape):
        # the two-level search relies on each grid row's bits being the same
        # whichever rows one _profile call evaluates
        t = gev_fit._T_GRID
        rng = make_rng(8)
        for name, spec in CRITERION5_FAMILIES.items():
            w = search_weights(spec, 0.95)
            full = gev_fit._profile(t, w, shape)
            for size in (1, 2, 7, 27, 50):
                rows = np.sort(rng.choice(t.size, size, replace=False))
                part = gev_fit._profile(t[rows], w, shape)
                assert part.tobytes() == full[rows].tobytes(), (name, rows)

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
        i = int(np.argmin(gev_fit._profile(np.expm1(v_grid), w, shape)))
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
