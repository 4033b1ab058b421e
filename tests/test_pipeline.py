"""Tests for the end-to-end pipeline, ARL mapping, and confidence bounds."""

import dataclasses
import warnings

import numpy as np
import pytest

from threshold_machine import (
    DtmConfig,
    FitWarning,
    GeneratorSpec,
    GevParams,
    InvalidConfigError,
    TooFewExceedancesError,
    arl_to_alpha,
    bootstrap_draw,
    confidence_bounds,
    extract,
    fit,
    generate,
    make_rng,
    model_max_cdf,
    quantile_cutoff,
    run_dtm,
)
from threshold_machine import evt_core, exceedance, pipeline, resample
from threshold_machine.exceedance import WARN_EXCEEDANCES


def chi2_series(n=5000, seed=0):
    return generate(GeneratorSpec.chi_square(1, n, seed))


CRITERION5_FAMILIES = {
    "beta25": GeneratorSpec.beta(2, 5, 10_000, 1),
    "chi2": GeneratorSpec.chi_square(1, 10_000, 1),
    "t4": GeneratorSpec.student_t(4, 10_000, 1),
    "ar1_m0": GeneratorSpec.gaussian_ar1(0, 10_000, 1),
    "ar1_m50": GeneratorSpec.gaussian_ar1(50, 10_000, 1),
}


class TestDtmConfig:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(InvalidConfigError):
            DtmConfig(alpha=alpha)

    def test_quantile_domain(self):
        with pytest.raises(InvalidConfigError):
            DtmConfig(alpha=0.05, cutoff_quantile=1.0)

    def test_bootstrap_reps_floor(self):
        with pytest.raises(InvalidConfigError):
            DtmConfig(alpha=0.05, bootstrap_reps=0)

    @pytest.mark.parametrize("field, bad", [
        ("seed", -1), ("seed", 1.5), ("seed", np.nan), ("seed", "3"),
        ("bootstrap_reps", 2.5), ("bootstrap_reps", np.nan), ("bootstrap_reps", "3"),
        ("cutoff", np.nan), ("cutoff", np.inf), ("cutoff", -np.inf),
        ("fix_xi", np.nan), ("fix_xi", np.inf), ("fix_xi", -np.inf), ("fix_xi", -1.0),
        ("fix_xi", -1.5),
        # mistyped values; None is a valid cutoff and fix_xi
        ("alpha", "x"), ("alpha", None), ("cutoff_quantile", "x"), ("cutoff_quantile", None),
        ("cutoff", "x"), ("fix_xi", "x"),
        # bools, which Python compares as 0 and 1
        ("seed", False), ("bootstrap_reps", True), ("cutoff", True), ("fix_xi", False),
        ("seed", np.False_), ("bootstrap_reps", np.True_), ("cutoff", np.True_),
        ("fix_xi", np.True_), ("fix_xi", np.False_),
    ])
    def test_every_field_validated(self, field, bad):
        with pytest.raises(InvalidConfigError, match=field):
            DtmConfig(**{"alpha": 0.05, field: bad})

    def test_numpy_integers_accepted(self):
        cfg = DtmConfig(alpha=0.05, seed=np.int64(3), bootstrap_reps=np.int32(2), fix_xi=-0.5)
        assert (cfg.seed, cfg.bootstrap_reps) == (3, 2)


class TestRunDtm:
    def test_construction_identity(self):
        rep = run_dtm(chi2_series(), DtmConfig(alpha=0.05, seed=1))
        assert model_max_cdf(rep.model, rep.threshold) == pytest.approx(0.95, abs=1e-6)

    def test_monotone_in_alpha(self):
        s = chi2_series(seed=2)
        x_strict = run_dtm(s, DtmConfig(alpha=0.01, seed=3)).threshold
        x_loose = run_dtm(s, DtmConfig(alpha=0.05, seed=3)).threshold
        assert x_strict > x_loose

    def test_explicit_cutoff_respected(self):
        s = chi2_series(seed=4)
        rep = run_dtm(s, DtmConfig(alpha=0.05, cutoff=4.0, seed=5))
        assert rep.model.cutoff == 4.0

    def test_affine_equivariance(self):
        s = chi2_series(n=2000, seed=6)
        cfg = DtmConfig(alpha=0.05, seed=7)
        x = run_dtm(s, cfg).threshold
        a, b = 2.5, -1.0
        x_moved = run_dtm(a * s + b, cfg).threshold
        assert x_moved == pytest.approx(a * x + b, rel=1e-6)

    def test_bootstrap_averaging_changes_fit(self):
        s = chi2_series(seed=8)
        r1 = run_dtm(s, DtmConfig(alpha=0.05, seed=9, bootstrap_reps=1))
        r5 = run_dtm(s, DtmConfig(alpha=0.05, seed=9, bootstrap_reps=5))
        assert r1.model.params != r5.model.params
        assert model_max_cdf(r5.model, r5.threshold) == pytest.approx(0.95, abs=1e-6)

    def test_replicates_are_bootstrap_fits(self):
        # each replicate fits the exceedances of s[bootstrap_draw(n, seed + r)]
        s = chi2_series(seed=15)
        u = quantile_cutoff(s, 0.95)
        fits = [fit(extract(s[bootstrap_draw(s.size, 16 + r)], u))[0] for r in range(3)]
        want = GevParams(mu=float(np.mean([p.mu for p in fits])),
                         sigma=float(np.mean([p.sigma for p in fits])),
                         xi=float(np.mean([p.xi for p in fits])))
        rep = run_dtm(s, DtmConfig(alpha=0.05, seed=16, bootstrap_reps=3))
        assert rep.model.params == want  # bit-identical

    @pytest.mark.parametrize("fix_xi", [None, 0.0, 0.2])
    def test_single_replicate_is_its_fit(self, fix_xi):
        s = chi2_series(seed=21)
        u = quantile_cutoff(s, 0.95)
        want = fit(extract(s[bootstrap_draw(s.size, 22)], u), fix_xi)[0]
        rep = run_dtm(s, DtmConfig(alpha=0.05, seed=22, fix_xi=fix_xi))
        assert rep.model.params == want  # bit-identical

    @pytest.mark.parametrize("reps", [1, 3])
    def test_stage_call_counts(self, monkeypatch, reps):
        # one extract of the original series, which validates and thresholds
        # it, plus one per replicate, which bootstrap makes to gather that
        # exceedance set through the replicate's draw; one fit per replicate
        # and one inversion, which the fitted model makes: the spans the
        # benchmark traces, counted at every module that binds them
        originals = {"extract": exceedance.extract, "bootstrap": resample.bootstrap,
                     "fit": fit, "invert_tail": evt_core.invert_tail}
        calls = dict.fromkeys(originals, 0)

        def counting(name):
            inner = originals[name]

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name, inner in originals.items():
            for mod in (pipeline, resample, exceedance, evt_core):
                if getattr(mod, name, None) is inner:
                    monkeypatch.setattr(mod, name, counting(name))
        run_dtm(chi2_series(seed=23), DtmConfig(alpha=0.05, seed=24, bootstrap_reps=reps))
        assert calls == {"extract": 1 + reps, "bootstrap": reps, "fit": reps, "invert_tail": 1}

    def test_path_validated_independently_of_reps(self, monkeypatch):
        # replicates reuse the original exceedance set, not the series; the
        # series is validated where it enters quantile_cutoff and extract
        calls = []
        original = exceedance.as_series

        def counting(values):
            calls.append(len(values))
            return original(values)

        for mod in (pipeline, exceedance, resample):
            monkeypatch.setattr(mod, "as_series", counting, raising=False)
        s = chi2_series(seed=25)
        counts = []
        for reps, cutoff in ((1, None), (10, None), (1, 4.0), (10, 4.0)):
            calls.clear()
            run_dtm(s, DtmConfig(alpha=0.05, seed=26, bootstrap_reps=reps, cutoff=cutoff))
            counts.append(len(calls))
        assert counts == [2, 2, 1, 1]

    def test_replicate_warnings_reach_the_caller(self, monkeypatch):
        # the pipeline filters no warning
        def warning_fit(exc, fix_xi=None):
            warnings.warn("replicate fit", FitWarning)
            warnings.warn("replicate other", UserWarning)
            return fit(exc, fix_xi)

        monkeypatch.setattr(pipeline, "fit", warning_fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_dtm(chi2_series(seed=17), DtmConfig(alpha=0.05, seed=17, bootstrap_reps=2))
        assert [(w.category, str(w.message)) for w in caught] == [
            (FitWarning, "replicate fit"), (UserWarning, "replicate other")] * 2

    @pytest.mark.parametrize("series, cfg, codes", [
        *(pytest.param(generate(spec), DtmConfig(alpha=0.05, bootstrap_reps=10), (), id=name)
          for name, spec in CRITERION5_FAMILIES.items()),
        pytest.param(make_rng(0).random(1000),
                     DtmConfig(alpha=0.05, cutoff_quantile=0.9, bootstrap_reps=10),
                     ("boundary-shape",), id="uniform"),
        pytest.param(chi2_series(n=700, seed=5), DtmConfig(alpha=0.05, seed=3, bootstrap_reps=5),
                     ("few-exceedances",), id="chi2-n700"),
    ])
    def test_conditions_reach_only_the_codes(self, series, cfg, codes):
        # the report's codes are the only channel for fit conditions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_dtm(series, cfg).warnings == codes

    def test_deterministic_given_seed(self):
        s = chi2_series(seed=10)
        cfg = DtmConfig(alpha=0.1, seed=11)
        assert run_dtm(s, cfg).threshold == run_dtm(s, cfg).threshold

    def test_too_few_exceedances_raises(self):
        normals = generate(GeneratorSpec.gaussian_ar1(0, 2000, 12))
        cases = [
            (chi2_series(n=50, seed=12), DtmConfig(alpha=0.05)),
            # 5 values above the cutoff; the original series is checked first
            (normals, DtmConfig(alpha=0.05, cutoff=float(np.sort(normals)[-6]),
                                bootstrap_reps=3)),
        ]
        for series, cfg in cases:
            with pytest.raises(TooFewExceedancesError, match="original series"):
                run_dtm(series, cfg)

    def test_failed_replicate_is_named(self):
        # the original set has 20 exceedances, replicates 0-4 have
        # 15 / 21 / 18 / 15 / 9; the fit refuses replicate 4
        s = generate(GeneratorSpec.beta(1, 1, 2000, 104))
        cfg = DtmConfig(alpha=0.05, cutoff_quantile=0.99, seed=104, bootstrap_reps=5)
        with pytest.raises(TooFewExceedancesError, match=r"^bootstrap replicate 4 \(seed 108\): "
                           r"fit needs at least 10 exceedances, got 9$"):
            run_dtm(s, cfg)

    def test_small_sample_warning_code(self):
        # alpha = 0.01 needs n of order 1e4 by the heuristic bound
        rep = run_dtm(chi2_series(n=2000, seed=13), DtmConfig(alpha=0.01, seed=13))
        assert "small-sample" in rep.warnings

    def test_few_exceedances_in_any_replicate(self):
        # replicate 0 has 37 exceedances, replicate 4 only 25; the report
        # keeps the smallest count, the one the code reads
        s = chi2_series(n=700, seed=5)
        rep = run_dtm(s, DtmConfig(alpha=0.05, seed=3, bootstrap_reps=5))
        assert rep.gev_diag.n_u_used == 25 < WARN_EXCEEDANCES
        assert "few-exceedances" in rep.warnings

    def test_merged_diagnostics_match_the_codes(self):
        # replicates 0 and 1 sit inside the shape's range, 2-4 on its
        # boundary; the smallest exceedance count (14) is replicate 0's
        s = generate(GeneratorSpec.beta(1, 1, 2000, 3))
        cfg = DtmConfig(alpha=0.05, cutoff_quantile=0.99, seed=3, bootstrap_reps=5)
        rep = run_dtm(s, cfg)
        exc = extract(s, rep.model.cutoff)
        diags = [fit(resample.bootstrap(exc, cfg.seed + r))[1] for r in range(5)]
        assert [d.boundary for d in diags] == [False, False, True, True, True]
        assert rep.gev_diag == dataclasses.replace(
            diags[0], converged=True, boundary=True, n_u_used=min(d.n_u_used for d in diags))
        assert rep.gev_diag.n_u_used == 14
        assert rep.warnings == ("boundary-shape", "few-exceedances")

    def test_boundary_shape_in_any_replicate(self):
        # uniform exceedances put every replicate's free shape on the k > -1 boundary
        s = make_rng(0).random(1000)
        rep = run_dtm(s, DtmConfig(alpha=0.05, cutoff_quantile=0.9, bootstrap_reps=10))
        assert "boundary-shape" in rep.warnings

    def test_fixed_shape_passthrough(self):
        rep = run_dtm(chi2_series(seed=14), DtmConfig(alpha=0.05, seed=14, fix_xi=0.0))
        assert rep.model.params.xi == 0.0


class TestArlToAlpha:
    def test_known_mapping_value(self):
        assert arl_to_alpha(2000, 5000) == pytest.approx(1 - np.exp(-0.4), abs=1e-12)

    def test_first_order_limit(self):
        assert arl_to_alpha(1, 1_000_000) == pytest.approx(1e-6, rel=1e-3)

    def test_equal_window_and_arl(self):
        assert arl_to_alpha(1000, 1000.0) == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_invalid_arl(self):
        for n, arl in [(100, 0.0), (0, 100.0), (100, -5.0), (100, np.nan), (100, np.inf),
                       (100, "x"), (100, None), (2.5, 100.0), ("100", 100.0)]:
            with pytest.raises(InvalidConfigError):
                arl_to_alpha(n, arl)


class TestConfidenceBounds:
    def test_bounds_ordered_for_small_delta(self):
        s = generate(GeneratorSpec.pareto(3.5, 500, 15))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lcb, ucb = confidence_bounds(s, DtmConfig(alpha=0.005, seed=16))
        assert lcb < ucb

    def test_bounds_coincide_at_half(self):
        s = chi2_series(n=2000, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lcb, ucb = confidence_bounds(s, DtmConfig(alpha=0.5, seed=18))
        assert lcb == pytest.approx(ucb, rel=1e-12)

    def test_ucb_is_the_threshold(self):
        s = chi2_series(n=2000, seed=19)
        cfg = DtmConfig(alpha=0.1, seed=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ucb = confidence_bounds(s, cfg)
            rep = run_dtm(s, cfg)
        assert ucb == rep.threshold


class TestCoverage:
    def test_chi2_coverage_statistical(self):
        # fraction of fresh paths whose max exceeds the fitted threshold
        cfg = DtmConfig(alpha=0.05, seed=100)
        rep = run_dtm(generate(GeneratorSpec.chi_square(1, 10_000, 555)), cfg)
        exceed = 0
        trials = 200
        for j in range(trials):
            s = generate(GeneratorSpec.chi_square(1, 10_000, 70_000 + j))
            exceed += float(np.max(s)) > rep.threshold
        assert 0.01 <= exceed / trials <= 0.12
