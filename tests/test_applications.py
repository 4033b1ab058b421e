"""Tests for the scan, change-point, and bandit harnesses."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from threshold_machine import (
    BanditSpec,
    DtmConfig,
    DtmError,
    ErGraphSpec,
    FitWarning,
    GeneratorSpec,
    InvalidBandwidthError,
    InvalidConfigError,
    InvalidSpecError,
    MmdStreamSpec,
    arl_to_alpha,
    bandit_run,
    change_point_run,
    confidence_bounds,
    generate,
    run_dtm,
    scan_series,
)
from threshold_machine import applications
from threshold_machine.applications import _arm_stream, _bandwidth, _snapshot
from threshold_machine.resample import stream_seed

from reference import median_heuristic, mmd_stat


class TestScanSeries:
    def test_empty_graph(self):
        spec = ErGraphSpec(N=30, p0=0.0, k=5, seed=1)
        assert np.all(scan_series(spec, 100) == 0)

    def test_complete_graph(self):
        spec = ErGraphSpec(N=30, p0=1.0 - 1e-15, k=10, seed=2)
        s = scan_series(spec, 50)
        assert np.all(s == 45)

    def test_integer_range(self):
        spec = ErGraphSpec(N=100, p0=0.1, k=10, seed=3)
        s = scan_series(spec, 2000)
        assert np.all(s == np.round(s))
        assert np.all((s >= 0) & (s <= 45))

    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            ErGraphSpec(N=10, p0=0.1, k=11, seed=0)  # k > N
        with pytest.raises(TypeError):
            ErGraphSpec(N=10, p0=0.1, p1=0.2, k=3, seed=0)  # the scan draws only the null

    def test_one_fit_answers_every_level(self):
        # the criterion-7 series: a run at any level returns the threshold
        # that the model fitted at another level reads off for it
        series = scan_series(ErGraphSpec(N=100, p0=0.1, k=10, seed=0), 5000)

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
    # the default horizon leaves 4400 - 2 * 50 + 1 = 4301 statistics
    (MmdStreamSpec, "train_len", 4302),
    (MmdStreamSpec, "horizon", 100),
    (MmdStreamSpec, "change_time", 300.5),
    (BanditSpec, "burn_in", 50.5),
    (BanditSpec, "window", 2.5),
    # a bool is not a count, though Python counts True as 1
    (ErGraphSpec, "k", True),
    (MmdStreamSpec, "seed", False),
    (BanditSpec, "window", True),
    # the pipeline fields a harness copies into its DtmConfig
    (MmdStreamSpec, "bootstrap_reps", 2.5),
    (MmdStreamSpec, "bootstrap_reps", 0),
    (MmdStreamSpec, "bootstrap_reps", True),
    (BanditSpec, "delta", "x"),
])
def test_spec_counts_are_integers(cls, field, value):
    base = {ErGraphSpec: dict(N=30, p0=0.1, k=5),
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
        bw = median_heuristic(Y)
        assert abs(mmd_stat(X, Y, bw)) <= 0.1

    def test_median_heuristic_matches_pdist(self):
        # the harness reads the bandwidth off the Hamming counts of packed
        # snapshots; the odd block of 3-edge snapshots has a median that is
        # one count, the even ones the mean of two
        for geometry in (dict(seed=4), dict(block_size=8, n_nodes=20, seed=1),
                         dict(block_size=9, n_nodes=3, p_pre=0.5, seed=1)):
            spec = MmdStreamSpec(**geometry)
            block = np.stack([_snapshot(spec, t) for t in range(1, spec.block_size + 1)])
            P = np.packbits(block > 0, axis=1)
            H = np.bitwise_count(P[:, None] ^ P).sum(axis=-1)
            expected = math.sqrt(np.median(pdist(block, "sqeuclidean")))
            assert _bandwidth(H) == pytest.approx(expected, rel=1e-12)
        # a real-valued block takes the float route of the reference
        real = np.random.default_rng(9).normal(size=(30, 7))
        expected = math.sqrt(np.median(pdist(real, "sqeuclidean")))
        assert median_heuristic(real) == pytest.approx(expected, rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            mmd_stat(np.zeros((3, 2)), np.zeros((4, 2)), 1.0)
        with pytest.raises(ValueError, match="at least 2"):
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
        (dict(n_nodes=3, p_pre=0.5, horizon=300, seed=1), (16, 19, 100, 300)),
    ], ids=["8x190", "50x4950", "8x3-extremes"])
    def test_stream_matches_direct_mmd(self, geometry, times):
        # ring-buffer bookkeeping must reproduce the blockwise statistic, also
        # at the default geometry of 50 snapshots of 4950 edges, and with 3
        # edges, where the reference block holds an all-zero and an all-one
        # snapshot, so every statistic reads the kernel at the largest
        # distance d, the last entry of the stream's kernel table
        spec = small_stream_spec(train_len=260, **geometry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = change_point_run(spec, arl=500.0)
        B = spec.block_size
        ref = np.stack([_snapshot(spec, t) for t in range(1, B + 1)])
        if spec.n_nodes == 3:
            assert {0.0, 3.0} <= set(ref.sum(axis=1))
        bw = median_heuristic(ref)
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

    def test_snapshot_stream_is_pinned(self):
        # snapshot t of a spec draws from SeedSequence entropy (seed, t)
        spec = small_stream_spec(p_pre=0.5, seed=3)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, 7))))
        d = spec.n_nodes * (spec.n_nodes - 1) // 2
        assert _snapshot(spec, 7).tobytes() == (rng.random(d) < 0.5).astype(float).tobytes()

    def test_horizon_validation(self):
        with pytest.raises(InvalidSpecError):
            MmdStreamSpec(block_size=50, horizon=90)

    # arl = 5 is too short for train_len = 260: 1 - exp(-52) rounds to 1
    @pytest.mark.parametrize("arl", ["x", None, -5.0, 0.0, np.nan, np.inf, 5.0])
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
        # a one-wide window returns the iid Pareto stream of its seed, bit for
        # bit, at the default window and at an explicit one
        for spec in (BanditSpec(tail_exponents=(3.5, 4.0)),
                     BanditSpec(tail_exponents=(3.5, 4.0), window=1)):
            want = generate(GeneratorSpec.pareto(spec.tail_exponents[arm], n=1000, seed=seed))
            assert np.array_equal(_arm_stream(spec, arm, seed, 1000), want)

    @pytest.mark.parametrize("arm", [0, 1])
    @pytest.mark.parametrize("window", [2, 4, 10])
    def test_windowed_stream_is_sliding_mean(self, arm, window):
        # reward t is the mean of Pareto draws t .. t + window - 1 of the seed
        spec = BanditSpec(tail_exponents=(3.5, 4.0), window=window)
        raw = generate(GeneratorSpec.pareto(spec.tail_exponents[arm], n=50 + window - 1, seed=12))
        want = np.convolve(raw, np.ones(window) / window, mode="valid")
        got = _arm_stream(spec, arm, 12, 50)
        assert len(got) == 50
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_needs_at_least_two_arms(self):
        with pytest.raises(InvalidSpecError):
            BanditSpec(tail_exponents=(3.5,), delta=0.005, burn_in=10, seed=0)

    def test_symmetric_arms_tie_break_to_lowest(self, monkeypatch):
        # both arms draw the same stream and bootstrap with the same seed
        monkeypatch.setattr(applications, "stream_seed", lambda seed, arm: 123)
        spec = BanditSpec(tail_exponents=(3.5, 3.5), delta=0.01, burn_in=300, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bandit_run(spec, total_pulls=620)
        assert res.initial_bounds[0] == res.initial_bounds[1]
        assert res.pulls[0] == 0

    def test_bounds_ordered_each_round(self):
        spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.01, burn_in=300, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bandit_run(spec, total_pulls=650)
        for bounds in res.bounds_history:
            for pair in bounds:
                if pair is not None:
                    assert pair[0] < pair[1]

    def test_dependent_rewards_run(self):
        spec = BanditSpec(tail_exponents=(3.5, 4.0), delta=0.01, burn_in=300,
                          window=10, seed=2)
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


def criterion_9_spec(seed):
    return BanditSpec(tail_exponents=(3.5, 4.0), delta=0.005, burn_in=500, seed=seed)


def arm_bounds(spec, arm, total_pulls):
    """The arm's bounds on the first m rewards of its stream, as a function of m:
    ``confidence_bounds`` with the config bandit_run documents."""
    seed = stream_seed(spec.seed, arm)
    stream = _arm_stream(spec, arm, seed, total_pulls)
    cfg = DtmConfig(alpha=spec.delta, fix_xi=0.0, seed=seed)
    return lambda m: confidence_bounds(stream[:m], cfg)


def leader_of(bounds):
    """The arm with bounds and the highest ucb, the lowest such index on a tie."""
    live = [k for k, b in enumerate(bounds) if b is not None]
    top = max(bounds[k][1] for k in live)
    return min(k for k in live if bounds[k][1] == top)


def stop_rule(bounds, leader):
    """The leader's lcb exceeds the ucb of every other arm with bounds, and
    there is one."""
    others = [b for k, b in enumerate(bounds) if b is not None and k != leader]
    return bool(others) and all(bounds[leader][0] > b[1] for b in others)


class TestBanditRoundRule:
    """The round rule of bandit_run, replayed from its result: which arm is
    pulled, what its new bounds are, and when the run stops."""

    TOTAL_PULLS = 1100

    def replay(self, spec, res, failing=()):
        """Check every round of ``res`` against the rule; ``failing`` names
        arms whose bounds raise on every fit."""
        K = spec.n_arms
        bounds_of = [arm_bounds(spec, k, self.TOTAL_PULLS) for k in range(K)]
        counts = [spec.burn_in] * K
        before = [None if k in failing else bounds_of[k](spec.burn_in) for k in range(K)]
        assert res.initial_bounds == before
        assert len(res.bounds_history) == len(res.pulls)
        for pulled, after in zip(res.pulls, res.bounds_history):
            assert pulled == leader_of(before)
            assert not stop_rule(before, pulled)
            counts[pulled] += 1
            want = list(before)
            want[pulled] = bounds_of[pulled](counts[pulled])
            assert after == want
            before = after
        if res.stopped_early:
            assert stop_rule(before, leader_of(before))
        else:
            assert len(res.pulls) == self.TOTAL_PULLS - K * spec.burn_in

    # seeds 0-2 pull to the end, seeds 1 and 2 pulling both arms; seed 7 stops
    # early, so both outcomes of the stop rule are replayed
    @pytest.mark.parametrize("seed, stops", [(0, False), (1, False), (2, False), (7, True)])
    def test_rounds_follow_the_rule(self, seed, stops):
        spec = criterion_9_spec(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bandit_run(spec, self.TOTAL_PULLS)
        assert res.stopped_early == stops
        self.replay(spec, res)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failed_bounds_keep_the_previous_ones(self, monkeypatch, seed):
        # arm 0's first recomputation after burn-in raises: the arm keeps its
        # burn-in bounds for that round and the run warns once
        spec = criterion_9_spec(seed)
        seed0 = stream_seed(spec.seed, 0)

        def flaky(series, cfg):
            if cfg.seed == seed0 and len(series) == spec.burn_in + 1:
                raise DtmError("injected")
            return confidence_bounds(series, cfg)

        monkeypatch.setattr(applications, "confidence_bounds", flaky)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = bandit_run(spec, self.TOTAL_PULLS)
        assert [(w.category, str(w.message)) for w in caught] == [
            (FitWarning, "arm 0 bounds failed: injected")]
        first = res.pulls.index(0)
        before = res.bounds_history[first - 1] if first else res.initial_bounds
        assert res.bounds_history[first] == before

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_arm_without_bounds_is_skipped(self, monkeypatch, seed):
        # arm 1 never gets bounds: every round pulls arm 0, and with no other
        # arm to beat the run never stops early
        spec = criterion_9_spec(seed)
        seed1 = stream_seed(spec.seed, 1)

        def failing_arm_1(series, cfg):
            if cfg.seed == seed1:
                raise DtmError("injected")
            return confidence_bounds(series, cfg)

        monkeypatch.setattr(applications, "confidence_bounds", failing_arm_1)
        with pytest.warns(FitWarning, match="arm 1 bounds failed: injected") as caught:
            res = bandit_run(spec, self.TOTAL_PULLS)
        assert len(caught) == 1
        assert res.pulls == [0] * (self.TOTAL_PULLS - 2 * spec.burn_in)
        self.replay(spec, res, failing=(1,))

    def test_scripted_bounds(self, monkeypatch):
        # bounds scripted per (arm, rewards seen): a ucb tie goes to the lower
        # index, the last arm scanned takes the lead over two others, an arm
        # without bounds is ignored by the stop rule, and the run stops once
        # the leader's lcb clears every other ucb
        spec = BanditSpec(tail_exponents=(3.5, 4.0, 4.5, 5.0), burn_in=10, seed=3)
        script = {
            0: {10: (1.0, 5.0)},
            1: {10: (2.0, 6.0), 11: (1.5, 5.5)},
            2: {10: (0.0, 6.0), 11: (3.0, 7.0), 12: (6.5, 9.0)},
        }
        arm_of = {stream_seed(spec.seed, k): k for k in range(spec.n_arms)}

        def scripted(series, cfg):
            arm = arm_of[cfg.seed]
            if arm == 3:
                raise DtmError("injected")
            return script[arm][len(series)]

        monkeypatch.setattr(applications, "confidence_bounds", scripted)
        with pytest.warns(FitWarning, match="arm 3 bounds failed") as caught:
            res = bandit_run(spec, 4 * 10 + 6)
        assert len(caught) == 1
        assert res.initial_bounds == [(1.0, 5.0), (2.0, 6.0), (0.0, 6.0), None]
        assert res.pulls == [1, 2, 2]
        assert res.bounds_history == [
            [(1.0, 5.0), (1.5, 5.5), (0.0, 6.0), None],
            [(1.0, 5.0), (1.5, 5.5), (3.0, 7.0), None],
            [(1.0, 5.0), (1.5, 5.5), (6.5, 9.0), None],
        ]
        assert res.stopped_early

    def test_every_arm_failing_raises(self, monkeypatch):
        def failing(series, cfg):
            raise DtmError("injected")

        monkeypatch.setattr(applications, "confidence_bounds", failing)
        with pytest.warns(FitWarning) as caught:
            with pytest.raises(DtmError, match="every arm"):
                bandit_run(criterion_9_spec(0), self.TOTAL_PULLS)
        assert len(caught) == 2
