"""Tests for the scan, change-point, and bandit harnesses."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from threshold_machine import (
    BanditSpec,
    DtmConfig,
    ErGraphSpec,
    GeneratorSpec,
    InvalidBandwidthError,
    InvalidConfigError,
    InvalidSpecError,
    MmdStreamSpec,
    SizeMismatchError,
    arl_to_alpha,
    bandit_run,
    change_point_run,
    generate,
    mmd_stat,
    run_dtm,
    scan_series,
)
from threshold_machine import applications
from threshold_machine.applications import _arm_stream, _median_heuristic, _snapshot


class TestScanSeries:
    def test_empty_graph(self):
        spec = ErGraphSpec(N=30, p0=0.0, p1=0.0, k=5, seed=1)
        assert np.all(scan_series(spec, 100) == 0)

    def test_complete_graph(self):
        spec = ErGraphSpec(N=30, p0=1.0 - 1e-15, p1=1.0, k=10, seed=2)
        s = scan_series(spec, 50)
        assert np.all(s == 45)

    def test_integer_range(self):
        spec = ErGraphSpec(N=100, p0=0.1, p1=0.1, k=10, seed=3)
        s = scan_series(spec, 2000)
        assert np.all(s == np.round(s))
        assert np.all((s >= 0) & (s <= 45))

    def test_planted_community_raises_statistics(self):
        null = ErGraphSpec(N=100, p0=0.1, p1=0.9, k=10, seed=4)
        s0 = scan_series(null, 3000, planted=False)
        s1 = scan_series(null, 3000, planted=True)
        assert s1.max() > s0.max()

    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            ErGraphSpec(N=10, p0=0.5, p1=0.1, k=3, seed=0)  # p1 < p0
        with pytest.raises(InvalidSpecError):
            ErGraphSpec(N=10, p0=0.1, p1=0.2, k=11, seed=0)  # k > N

    def test_one_fit_answers_every_level(self):
        # the criterion-7 series: a run at any level returns the threshold
        # that the model fitted at another level reads off for it
        series = scan_series(ErGraphSpec(N=100, p0=0.1, p1=0.1, k=10, seed=0), 5000)

        def cfg(alpha):
            return DtmConfig(alpha=alpha, cutoff_quantile=0.95, bootstrap_reps=10, seed=1)

        model = run_dtm(series, cfg(0.01)).model
        for a in (0.1, 0.05, 0.03, 0.01):
            assert run_dtm(series, cfg(a)).threshold == model.upper(a)


@pytest.mark.parametrize("cls, field, value", [
    (ErGraphSpec, "N", 30.5),
    (ErGraphSpec, "k", 5.0),
    (MmdStreamSpec, "block_size", 8.5),
    (MmdStreamSpec, "n_nodes", 20.5),
    (MmdStreamSpec, "n_nodes", 1),
    (MmdStreamSpec, "horizon", 4400.0),
    (MmdStreamSpec, "train_len", "2000"),
    (MmdStreamSpec, "change_time", 300.5),
    (BanditSpec, "burn_in", 50.5),
    (BanditSpec, "window", 2.5),
    # the pipeline fields a harness copies into its DtmConfig
    (MmdStreamSpec, "cutoff_quantile", "x"),
    (MmdStreamSpec, "cutoff_quantile", 1.0),
    (MmdStreamSpec, "bootstrap_reps", 2.5),
    (MmdStreamSpec, "bootstrap_reps", 0),
    (MmdStreamSpec, "fix_xi", "x"),
    (MmdStreamSpec, "fix_xi", -1.0),
    (MmdStreamSpec, "bandwidth", "x"),
    (BanditSpec, "cutoff_quantile", None),
    (BanditSpec, "cutoff_quantile", 0.0),
    (BanditSpec, "fix_xi", "x"),
    (BanditSpec, "fix_xi", np.nan),
    (BanditSpec, "delta", "x"),
])
def test_spec_counts_are_integers(cls, field, value):
    base = {ErGraphSpec: dict(N=30, p0=0.1, p1=0.1, k=5),
            BanditSpec: dict(tail_exponents=(3.5, 4.0))}.get(cls, {})
    cls(**base)  # the defaults are valid
    with pytest.raises(InvalidSpecError, match=field):
        cls(**{**base, field: value})


class TestMmdStat:
    def test_identical_blocks_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 4))
        assert abs(mmd_stat(X, X.copy(), bandwidth=1.0)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        Y = rng.normal(size=(8, 3)) + 0.5
        assert mmd_stat(X, Y, 1.3) == pytest.approx(mmd_stat(Y, X, 1.3), abs=1e-12)

    def test_two_point_hand_computation(self):
        # B = 2: statistic = h(x1, x2, y1, y2) with
        # h = k(x1,x2) + k(y1,y2) - k(x1,y2) - k(x2,y1)
        x1, x2 = np.array([0.0]), np.array([1.0])
        y1, y2 = np.array([2.0]), np.array([3.0])
        bw = 1.0
        k = lambda a, b: math.exp(-((a - b) ** 2) / (2 * bw * bw))
        expected = k(0, 1) + k(2, 3) - k(0, 3) - k(1, 2)
        got = mmd_stat(np.array([x1, x2]), np.array([y1, y2]), bw)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_null_concentration(self):
        rng = np.random.default_rng(7)
        X = (rng.random((50, 10_000)) < 0.3).astype(float)
        Y = (rng.random((50, 10_000)) < 0.3).astype(float)
        bw = _median_heuristic(Y)
        assert abs(mmd_stat(X, Y, bw)) <= 0.1

    def test_median_heuristic_matches_pdist(self):
        spec = MmdStreamSpec(seed=4)
        snapshots = np.stack([_snapshot(spec, t) for t in range(1, spec.block_size + 1)])
        real = np.random.default_rng(9).normal(size=(30, 7))
        for block in (snapshots, real):
            expected = math.sqrt(np.median(pdist(block, "sqeuclidean")))
            assert _median_heuristic(block) == pytest.approx(expected, rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            mmd_stat(np.zeros((3, 2)), np.zeros((4, 2)), 1.0)
        with pytest.raises(SizeMismatchError):
            mmd_stat(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)

    def test_bad_bandwidth(self):
        for bandwidth in (0.0, -1.0, np.nan, np.inf, "x", None):
            with pytest.raises(InvalidBandwidthError):
                mmd_stat(np.zeros((3, 2)), np.ones((3, 2)), bandwidth)


def small_stream_spec(**kw):
    defaults = dict(block_size=8, n_nodes=20, p_pre=0.3, p_post=0.5,
                    change_time=None, horizon=400, train_len=260,
                    bootstrap_reps=3, seed=0)
    defaults.update(kw)
    return MmdStreamSpec(**defaults)


class TestChangePointRun:
    def test_threshold_composition_identity(self):
        spec = small_stream_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = change_point_run(spec, arl=500.0)
        alpha = arl_to_alpha(spec.train_len, 500.0)
        assert res.threshold == res.report.model.upper(alpha)

    @pytest.mark.parametrize("geometry, times", [
        (dict(horizon=300), (16, 19, 100, 300)),
        (dict(block_size=50, n_nodes=100, horizon=400), (100, 103, 250, 400)),
    ], ids=["8x190", "50x4950"])
    def test_stream_matches_direct_mmd(self, geometry, times):
        # ring-buffer bookkeeping must reproduce the blockwise statistic, also
        # at the default geometry of 50 snapshots of 4950 edges
        spec = small_stream_spec(train_len=260, **geometry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = change_point_run(spec, arl=500.0)
        B = spec.block_size
        ref = np.stack([_snapshot(spec, t) for t in range(1, B + 1)])
        bw = _median_heuristic(ref)
        for t in times:
            X = np.stack([_snapshot(spec, s) for s in range(t - B + 1, t + 1)])
            direct = mmd_stat(X, ref, bw)
            assert res.stream[t - res.stream_start] == pytest.approx(direct, abs=1e-12)

    def test_detects_planted_change(self):
        spec = small_stream_spec(change_time=320, horizon=400, p_post=0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = change_point_run(spec, arl=2000.0)
        assert res.stopping_time is not None
        assert 320 < res.stopping_time <= 360

    def test_snapshot_respects_change_time(self):
        spec = small_stream_spec(change_time=50, p_pre=0.0, p_post=1.0)
        assert _snapshot(spec, 50).sum() == 0
        assert _snapshot(spec, 51).sum() == spec.n_nodes * (spec.n_nodes - 1) // 2

    def test_horizon_validation(self):
        with pytest.raises(InvalidSpecError):
            MmdStreamSpec(block_size=50, horizon=90)

    @pytest.mark.parametrize("arl", ["x", None, -5.0, 0.0, np.nan, np.inf])
    def test_arl_refused_before_any_snapshot(self, monkeypatch, arl):
        drawn = []
        monkeypatch.setattr(applications, "_snapshot", lambda spec, t: drawn.append(t))
        with pytest.raises(InvalidConfigError, match="arl"):
            change_point_run(small_stream_spec(), arl)
        assert drawn == []

    def test_stream_clustering_in_reference_band(self):
        # the sliding window makes consecutive statistics overlap in B-1
        # snapshots; the fitted extremal index lands near 0.3
        spec = MmdStreamSpec(change_time=None, horizon=2200, train_len=2000, seed=0)
        res = change_point_run(spec, arl=5000.0)
        assert res.report.model.params.xi == 0.0  # pinned by the harness
        assert 0.306 - 0.1 <= res.report.model.theta <= 0.306 + 0.1

    def test_no_change_false_alarm_rate(self):
        # nominal false-alarm probability over the monitored stretch is
        # 1 - exp(-2000/5000) ~= 0.33, so most runs should stay silent
        no_stop = 0
        for seed in range(20):
            spec = MmdStreamSpec(change_time=None, horizon=4100,
                                 train_len=2000, seed=seed)
            res = change_point_run(spec, arl=5000.0)
            no_stop += res.stopping_time is None
        assert no_stop >= 12  # >= 60% of 20 runs


class TestBanditRun:
    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_window_one_stream_is_iid_pareto(self, arm, seed):
        # a one-wide moving average draws the iid Pareto stream of its seed
        spec = BanditSpec(tail_exponents=(3.5, 4.0))
        want = generate(GeneratorSpec.pareto(spec.tail_exponents[arm], n=1000, seed=seed))
        assert np.array_equal(_arm_stream(spec, arm, seed, 1000), want)

    def test_needs_at_least_two_arms(self):
        with pytest.raises(InvalidSpecError):
            BanditSpec(tail_exponents=(3.5,), delta=0.005, burn_in=10, seed=0)

    def test_symmetric_arms_tie_break_to_lowest(self):
        spec = BanditSpec(tail_exponents=(3.5, 3.5), delta=0.01, burn_in=300,
                          cutoff_quantile=0.9, seed=0, arm_seeds=(123, 123))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bandit_run(spec, total_pulls=620)
        assert res.initial_bounds[0] == res.initial_bounds[1]
        assert res.pulls[0] == 0

    def test_bounds_ordered_each_round(self):
        spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.01, burn_in=300,
                          cutoff_quantile=0.9, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bandit_run(spec, total_pulls=650)
        for bounds in res.bounds_history:
            for pair in bounds:
                if pair is not None:
                    assert pair[0] < pair[1]

    def test_dependent_rewards_run(self):
        spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.01, burn_in=300,
                          cutoff_quantile=0.9, window=10, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bandit_run(spec, total_pulls=640)
        assert len(res.pulls) + res.stopped_early > 0

    def test_dependent_bounds_in_reference_band(self):
        # window-10 averaged Pareto rewards: initial bounds land within 30%
        # of the reference values (2.439, 2.638) and (1.614, 2.085)
        reference = {0: (2.439, 2.638), 1: (1.614, 2.085)}
        collected = {0: [], 1: []}
        for seed in range(5):
            spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005,
                              burn_in=500, window=10, seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = bandit_run(spec, total_pulls=1010)
            for arm in (0, 1):
                collected[arm].append(res.initial_bounds[arm])
        for arm in (0, 1):
            med = np.median(np.array(collected[arm]), axis=0)
            lo, hi = reference[arm]
            assert abs(med[0] - lo) <= 0.3 * lo
            assert abs(med[1] - hi) <= 0.3 * hi

    def test_total_pulls_floor(self):
        spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.01, burn_in=300, seed=3)
        for total_pulls in (600, 650.0, "650", None):
            with pytest.raises(InvalidSpecError, match="total_pulls"):
                bandit_run(spec, total_pulls=total_pulls)
