"""Tests for the synthetic series generators."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

from threshold_machine import GeneratorSpec, InvalidSpecError, generate, make_rng
from threshold_machine import generators

KS_SIGNIFICANCE = 0.001


class TestValidation:
    def test_unknown_kind(self):
        # a sliding mean is the bandit's window (applications._arm_stream)
        for kind in ("weibull", "moving_average"):
            with pytest.raises(InvalidSpecError) as exc:
                GeneratorSpec(kind, {}, 10, 0)
            assert str(exc.value) == f"unknown generator kind {kind!r}"

    def test_bad_params(self):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec.beta(0, 5, 10, 0)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec.pareto(-1.0, 10, 0)
        with pytest.raises(InvalidSpecError):
            GeneratorSpec.gaussian_ar1(-5, 10, 0)

    @pytest.mark.parametrize("n, seed", [(0, 1), (10.0, 1), (10, -1), (10, 2.0), (10, "3")])
    def test_length_and_seed_are_checked(self, n, seed):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec.chi_square(1, n, seed)

    def test_from_dict_refuses_fractions(self):
        d = GeneratorSpec.chi_square(1, 1000, 4).to_dict()
        assert GeneratorSpec.from_dict({**d, "n": 1e3, "seed": 4.0}) == GeneratorSpec.from_dict(d)
        for key in ("n", "seed"):
            with pytest.raises(InvalidSpecError):
                GeneratorSpec.from_dict({**d, key: 1000.5})

    def test_dict_round_trip(self):
        spec = GeneratorSpec.pareto(3.5, 500, 7)
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"kind": "pareto", "n": 500, "seed": 7,
                                  "params": {"alpha_tail": 3.5}}
        assert spec.to_dict()["params"] is not spec.params

    @pytest.mark.parametrize("extra, message", [
        # a key from_dict does not read is refused, not dropped
        ({"length": 50}, "unknown generator spec key 'length'"),
        ({"m": 50}, "unknown generator spec key 'm'"),
        ({"params": [["df", 1]]}, "generator params must be an object, got [['df', 1]]"),
        ({"params": None}, "generator params must be an object, got None"),
    ])
    def test_from_dict_refuses_unknown_keys_and_non_object_params(self, extra, message):
        d = {**GeneratorSpec.chi_square(1, 2000, 0).to_dict(), **extra}
        with pytest.raises(InvalidSpecError) as exc:
            GeneratorSpec.from_dict(d)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, params, message", [
        ("beta", {"a": 0, "b": 5}, "beta a must lie in (0, inf), got 0"),
        ("beta", {"a": 2}, "beta b must lie in (0, inf), got None"),
        ("chi_square", {"df": 0.5}, "chi_square df must lie in [1, inf), got 0.5"),
        ("student_t", {"df": math.inf}, "student_t df must lie in [1, inf), got inf"),
        ("pareto", {"alpha_tail": -1.0}, "pareto alpha_tail must lie in (0, inf), got -1.0"),
        ("gaussian_ar1", {"m": -5}, "gaussian_ar1 m must lie in [0, inf), got -5"),
        # a parameter the kind does not read is refused, not carried along
        ("gaussian_ar1", {"m": 50, "phi": 0.9}, "unknown gaussian_ar1 parameter 'phi'"),
        ("chi_square", {"df": 1, "dof": 2}, "unknown chi_square parameter 'dof'"),
    ])
    def test_each_parameter_is_checked(self, kind, params, message):
        with pytest.raises(InvalidSpecError) as exc:
            GeneratorSpec(kind, params, 10, 0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, params", [
        ("chi_square", {"df": 1}), ("student_t", {"df": 1.0}), ("gaussian_ar1", {"m": 0})])
    def test_closed_lower_ends_are_admitted(self, kind, params):
        assert GeneratorSpec(kind, params, 10, 0).params == params


class TestDeterminism:
    @pytest.mark.parametrize("ctor,args", [
        (GeneratorSpec.beta, (2, 5)),
        (GeneratorSpec.chi_square, (1,)),
        (GeneratorSpec.student_t, (4,)),
        (GeneratorSpec.pareto, (3.5,)),
        (GeneratorSpec.gaussian_ar1, (50,)),
    ])
    def test_same_seed_same_series(self, ctor, args):
        a = generate(ctor(*args, 500, 42))
        b = generate(ctor(*args, 500, 42))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = generate(GeneratorSpec.chi_square(1, 500, 1))
        b = generate(GeneratorSpec.chi_square(1, 500, 2))
        assert not np.array_equal(a, b)


class TestMarginals:
    def test_beta_ks(self):
        s = generate(GeneratorSpec.beta(2, 5, 10_000, 3))
        assert stats.kstest(s, stats.beta(2, 5).cdf).pvalue > KS_SIGNIFICANCE

    def test_chi_square_ks(self):
        s = generate(GeneratorSpec.chi_square(1, 10_000, 4))
        assert stats.kstest(s, stats.chi2(1).cdf).pvalue > KS_SIGNIFICANCE

    def test_student_t_ks(self):
        s = generate(GeneratorSpec.student_t(4, 10_000, 5))
        assert stats.kstest(s, stats.t(4).cdf).pvalue > KS_SIGNIFICANCE

    def test_pareto_ks(self):
        s = generate(GeneratorSpec.pareto(3.5, 10_000, 6))
        assert stats.kstest(s, lambda x: 1 - x ** -3.5).pvalue > KS_SIGNIFICANCE

    def test_pareto_support_and_median(self):
        s = generate(GeneratorSpec.pareto(3.5, 10_000, 7))
        assert np.mean(s <= 1.0) == 0.0
        assert np.median(s) == pytest.approx(2 ** (1 / 3.5), abs=0.05)


class TestGaussianAr1:
    def test_iid_case_uncorrelated(self):
        s = generate(GeneratorSpec.gaussian_ar1(0, 10_000, 8))
        r1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert abs(r1) <= 0.05

    def test_lag_one_autocorrelation(self):
        s = generate(GeneratorSpec.gaussian_ar1(50, 10_000, 9))
        r1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert r1 == pytest.approx(np.exp(-1 / 50), abs=0.05)

    def test_stationary_moments(self):
        s = generate(GeneratorSpec.gaussian_ar1(50, 10_000, 3))
        assert abs(np.mean(s)) <= 0.05
        assert np.var(s) == pytest.approx(1.0, abs=0.1)

    # m = 1e-3 underflows phi to 0.0 and m = 0.05 gives short scan rows; the
    # lengths sit below, at and across the 64-step row edges
    @pytest.mark.parametrize("m", [1e-3, 0.05, 0.3, 1, 50, 500, 1e4])
    @pytest.mark.parametrize("n", [1, 10, 63, 64, 65, 129, 10_000, 200_001])
    def test_matches_linear_filter(self, m, n):
        # the recursion S_t = phi S_{t-1} + x_t on the same draws, by scipy
        burn, phi = math.ceil(10 * m), math.exp(-1 / m)
        z = make_rng(21).standard_normal(n + burn)
        x = math.sqrt(1 - math.exp(-2 / m)) * z
        x[0] = z[0]
        ref = lfilter([1.0], [1.0, -phi], x)[burn:]
        s = generate(GeneratorSpec.gaussian_ar1(m, n, 21))
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_peak_memory_is_the_draws(self):
        # the scan runs in place on the draws, with no path-sized temporary
        n, burn = 10**6, 500
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            generate(GeneratorSpec.gaussian_ar1(50, n, 13))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (n + burn)

    def test_iid_case_is_standard_normal(self):
        s = generate(GeneratorSpec.gaussian_ar1(0, 10_000, 11))
        assert stats.kstest(s, stats.norm.cdf).pvalue > KS_SIGNIFICANCE


def chunk_paths(m, n):
    """Paths per chunk of an AR(1) spec in generators.maxima."""
    return max(1, generators._CHUNK // generators._ar1_layout(m, n)[2])


def maxima_cases():
    for spec in (GeneratorSpec.beta(2, 5, 200, 3), GeneratorSpec.chi_square(1, 200, 3),
                 GeneratorSpec.student_t(4, 200, 3), GeneratorSpec.pareto(2.5, 200, 3),
                 GeneratorSpec.gaussian_ar1(0, 200, 3)):
        for L in (1, 2, 7):  # drawn path by path, no chunks
            yield pytest.param(spec, L, id=f"{spec.kind}-L{L}")
    # m = 0.2 scans rows of 41 steps; n = 300_000 leaves one path per chunk
    for m, n in ((0.2, 500), (50, 500), (50, 300_000)):
        c = chunk_paths(m, n)
        for L in sorted({1, c, c + 1, 2 * c + 3}):
            yield pytest.param(GeneratorSpec.gaussian_ar1(m, n, 3), L, id=f"ar1-m{m}-n{n}-L{L}")
    # seeds whose 32-bit word count grows within the range, and a numpy seed
    # that wraps negative if j is added to it before it is made an int
    for label, seed, L in (("2**32-3", 2**32 - 3, 6), ("2**64-2", 2**64 - 2, 4),
                           ("2**128-2", 2**128 - 2, 4), ("int64(2**63-2)", np.int64(2**63 - 2), 4)):
        for spec in (GeneratorSpec.chi_square(1, 200, seed), GeneratorSpec.gaussian_ar1(50, 200, seed)):
            yield pytest.param(spec, L, id=f"{spec.kind}-seed{label}-L{L}")


class TestMaxima:
    @pytest.mark.parametrize("spec, L", maxima_cases())
    def test_matches_one_path_at_a_time(self, spec, L):
        got = generators.maxima(spec, L)
        want = [np.max(generate(spec.with_seed(int(spec.seed) + j))) for j in range(L)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_chunk_sizes(self):
        assert chunk_paths(0.2, 500) > 1 and chunk_paths(50, 500) > 1
        assert chunk_paths(50, 300_000) == 1

    def test_peak_memory_is_one_chunk(self):
        # a path longer than a chunk is drawn alone: the buffer holds one path
        n, burn = 300_000, 500
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            generators.maxima(GeneratorSpec.gaussian_ar1(50, n, 13), 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (n + burn)
