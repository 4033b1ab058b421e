"""Seeded synthetic series generators for experiments and validation.

Supported kinds:

- ``beta(a, b)`` via Gamma ratios (short upper tail, bounded support)
- ``chi_square(df)`` (exponentially decaying tail)
- ``student_t(df)`` via the normal / chi-square ratio (heavy tail)
- ``pareto(alpha_tail)`` via inverse-CDF draws (heavy tail, support [1, inf))
- ``gaussian_ar1(m)``: S_t = exp(-1/m) S_{t-1} + sqrt(1 - exp(-2/m)) Z_t,
  a stationary standard Gaussian process with correlation length m
  (m = 0 means iid); a burn-in of 10*m steps is discarded.  The recursion
  runs in place on the scaled draws as a blocked scan: the path is cut into
  rows of 16 steps, each one product with the decay kernel, and only the
  row ends are carried from row to row, so the draws are the only
  path-sized array

Everything draws from the package PRNG (PCG64), so a spec is reproducible
bit-for-bit and two specs differing only in seed are independent streams.

One routine draws every path of every kind, one path from one generator:
:func:`generate` takes the single path of its spec's seed, and
:func:`maxima` the maxima of L paths, path j drawn from
``make_rng(seed + j)``, as the Monte Carlo oracle needs them, with no spec
built per path.  A path drawn either way is the same bit for bit.  Each path
is drawn alone and reduced to its maximum before the next is drawn, so
``maxima`` holds one path at a time, whatever L is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError, check_count, check_real
from .resample import make_rng

__all__ = ["GeneratorSpec", "generate", "maxima"]

# The AR(1) scan takes each row of _ROW steps as one product with the
# (_ROW, _ROW) decay kernel, _BLOCK elements of a path at a time, so that the
# product finds a block in cache.
_ROW, _BLOCK = 16, 1 << 15
# Each kind's real parameters as check_real rules (name, lower end, interval
# ends); a kind reads no other parameter.
_PARAMS = {
    "beta": (("a", 0, "()"), ("b", 0, "()")),
    "chi_square": (("df", 1, "[)"),),
    "student_t": (("df", 1, "[)"),),
    "pareto": (("alpha_tail", 0, "()"),),
    "gaussian_ar1": (("m", 0, "[)"),),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic series."""

    kind: str
    params: dict = field(default_factory=dict)
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise InvalidSpecError(f"unknown generator kind {self.kind!r}")
        check_count("series length n", self.n, 1, InvalidSpecError)
        check_count("seed", self.seed, 0, InvalidSpecError)
        _validate_params(self.kind, self.params)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def beta(cls, a: float, b: float, n: int, seed: int) -> "GeneratorSpec":
        return cls("beta", {"a": a, "b": b}, n, seed)

    @classmethod
    def chi_square(cls, df: float, n: int, seed: int) -> "GeneratorSpec":
        return cls("chi_square", {"df": df}, n, seed)

    @classmethod
    def student_t(cls, df: float, n: int, seed: int) -> "GeneratorSpec":
        return cls("student_t", {"df": df}, n, seed)

    @classmethod
    def pareto(cls, alpha_tail: float, n: int, seed: int) -> "GeneratorSpec":
        return cls("pareto", {"alpha_tail": alpha_tail}, n, seed)

    @classmethod
    def gaussian_ar1(cls, m: float, n: int, seed: int) -> "GeneratorSpec":
        return cls("gaussian_ar1", {"m": m}, n, seed)

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)

    # -- (de)serialization for config files --------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "n": self.n, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        # a key it did not read would be dropped, and run another experiment
        for key in d:
            if key not in ("kind", "params", "n", "seed"):
                raise InvalidSpecError(f"unknown generator spec key {key!r}")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise InvalidSpecError(f"generator params must be an object, got {params!r}")
        try:
            return cls(d["kind"], dict(params), _whole(d["n"]), _whole(d["seed"]))
        except (KeyError, TypeError) as e:
            raise InvalidSpecError(f"malformed generator spec: {e}") from e


def _whole(value):
    # JSON may write a count as a float (1e6); a whole one stands for its
    # integer, and anything else is left for the spec's checks to refuse
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _validate_params(kind: str, p: dict) -> None:
    # a parameter the kind does not read would ride along in to_dict, so a
    # misspelt name would run another experiment under its name
    known = {r[0] for r in _PARAMS[kind]}
    for name in p:
        if name not in known:
            raise InvalidSpecError(f"unknown {kind} parameter {name!r}")
    for name, low, ends in _PARAMS[kind]:
        check_real(f"{kind} {name}", p.get(name), low, InvalidSpecError, ends=ends)


def _draw_path(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """One path of ``spec`` drawn from ``rng``."""
    kind, p, n = spec.kind, spec.params, spec.n
    if kind == "beta":
        g1 = rng.gamma(shape=p["a"], scale=1.0, size=n)
        g2 = rng.gamma(shape=p["b"], scale=1.0, size=n)
        return g1 / (g1 + g2)
    if kind == "chi_square":
        return rng.gamma(shape=p["df"] / 2.0, scale=2.0, size=n)
    if kind == "student_t":
        z = rng.standard_normal(n)
        v = rng.gamma(shape=p["df"] / 2.0, scale=2.0, size=n)
        return z / np.sqrt(v / p["df"])
    if kind == "pareto":
        return (1.0 - rng.random(n)) ** (-1.0 / p["alpha_tail"])
    m = p["m"]
    if m == 0:
        return rng.standard_normal(n)  # iid standard normal
    # whole rows of _ROW steps, burn-in included; the draws past n + burn
    # continue the stream and are dropped
    burn = int(math.ceil(10 * m))
    z = rng.standard_normal(-(-(n + burn) // _ROW) * _ROW)
    # x_t = innov_sd Z_t with x_1 = Z_1 (stationary start), in place
    z0 = z[0]
    z *= math.sqrt(1.0 - math.exp(-2.0 / m))
    z[0] = z0
    _ar1_scan(z.reshape(-1, _ROW), m)
    return z[burn:burn + n]


@functools.lru_cache(maxsize=16)
def _ar1_kernel(m: float) -> np.ndarray:
    """One row's decay kernel K[i, j] = phi**(j - i) for i <= j, else 0,
    read-only, as it is shared by every path of the same m.  Entries below
    the smallest normal float are 0: no subnormal slows the BLAS, and none
    could move a row sum, which holds its draw with weight 1."""
    lag = np.arange(_ROW) - np.arange(_ROW)[:, None]  # j - i
    kernel = np.exp(-np.abs(lag) / m)
    kernel[(lag < 0) | (kernel < np.finfo(float).tiny)] = 0.0
    kernel.flags.writeable = False
    return kernel


def _ar1_scan(rows: np.ndarray, m: float) -> None:
    """Replace the path laid out as ``rows`` (rows, _ROW steps) in place by
    S_t = phi S_{t-1} + x_t, S_1 = x_1, phi = exp(-1/m)."""
    # Row r is (x + c_r e_1) K from its carry-in c_r = phi T_{r-1}.  The row
    # ends follow T_r = E_r + phi**16 T_{r-1}, with E_r = x K[:, -1] the row's
    # end from a zero start, run as a doubling scan (Blelloch 1990) over the
    # ends only: after the pass with offset k, T_r holds sum_{i<2k}
    # phi**(16 i) E_{r-i}; later terms are exactly 0 once k covers the rows or
    # the weight underflows.
    kernel = _ar1_kernel(m)
    n_rows = len(rows)
    ends = rows @ kernel[:, -1]
    k, a = 1, math.exp(-_ROW / m)
    while k < n_rows and a > 0:
        ends[k:] += a * ends[:-k]
        k, a = 2 * k, a * a
    rows[1:, 0] += math.exp(-1.0 / m) * ends[:-1]
    step = _BLOCK // _ROW
    for i in range(0, n_rows, step):
        blk = rows[i:i + step]
        blk[...] = blk @ kernel  # faster than a product into its own input


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Generate the series described by ``spec``; deterministic given seed."""
    return _draw_path(spec, make_rng(spec.seed))


def maxima(spec: GeneratorSpec, L: int) -> np.ndarray:
    """The maximum of each of L paths of ``spec``, path j drawn alone from
    ``make_rng(spec.seed + j)``: equal bit for bit to
    ``np.max(generate(spec.with_seed(spec.seed + j)))``, without a spec per
    path, and holding one path at a time.
    """
    check_count("L", L, 1, InvalidSpecError)
    # int() first: a numpy-integer seed near 2**63 would wrap when j is added
    seed = int(spec.seed)
    out = np.empty(L)
    for j in range(L):
        out[j] = np.maximum.reduce(_draw_path(spec, make_rng(seed + j)))
    return out
