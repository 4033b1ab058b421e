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
  rows of 64 steps (fewer for m < 0.32), each a scaled cumulative sum, and
  only the row ends are carried from row to row, so with 64-step rows the
  draws are the only path-sized array

Everything draws from the package PRNG (PCG64), so a spec is reproducible
bit-for-bit and two specs differing only in seed are independent streams.

One routine draws every path: :func:`generate` takes the single path of its
spec's seed, and :func:`maxima` the maxima of L paths, path j drawn from
``make_rng(seed + j)``, as the Monte Carlo oracle needs them, with no spec
built per path.  A path drawn either way is the same bit for bit.  AR(1)
paths with m > 0 are drawn in chunks: the innovations of as many paths as
fit in ``_CHUNK`` = 2**18 draws (2 MB, and one path if a path is longer) go
into one reused buffer, and one scan runs over the chunk, so the scan's
fixed cost is paid once per chunk and the buffer never holds more than one
chunk, whatever n and L are.  The other kinds draw path by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError, check_count, check_real
from .resample import make_rng

__all__ = ["GeneratorSpec", "generate", "maxima"]

# The AR(1) scan's rows of at most _ROW steps bound the rounding of each
# row's cumulative sum; it works _BLOCK elements at a time, so that the passes
# over one block find it in cache.  AR(1) paths are drawn in chunks of at most
# _CHUNK draws, so that the buffer stays bounded whatever n and L are.
_ROW, _BLOCK, _CHUNK = 64, 1 << 15, 1 << 18
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


def _draw_path(kind: str, p: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """One path of any kind but AR(1) with m > 0, which :func:`_paths` draws."""
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
    return rng.standard_normal(n)  # gaussian_ar1 with m = 0: iid standard normal


def _ar1_scan(rows: np.ndarray, m: float) -> None:
    """Replace each path of the batch laid out as ``rows`` (paths, rows, steps)
    by S_t = phi S_{t-1} + x_t, S_1 = x_1, in place, with phi = exp(-1/m)."""
    # Row r from its carry-in c_r = phi T_{r-1} is, at step j,
    # phi**j * (c_r + cumsum(x_j phi**-j)).  The row ends follow
    # T_r = E_r + phi**b T_{r-1}, with E_r the row's end from a zero start,
    # run as a doubling scan (Blelloch 1990) over the ends only: after the
    # pass with offset k, T_r holds sum_{i<2k} phi**(b i) E_{r-i}; later terms
    # are exactly 0 once k covers the rows or the weight underflows.  Each
    # path's ends are its own gemv (the stacked matmul), and every other step
    # is elementwise or runs along one row, so a path's bits do not depend on
    # the batch it is scanned in.
    _, n_rows, b = rows.shape
    j = np.arange(b)
    up, down = np.exp(j / m), np.exp(-j / m)
    ends = rows @ down[::-1]  # E_r = sum_j x_j phi**(b-1-j)
    k, a = 1, math.exp(-b / m)
    while k < n_rows and a > 0:
        ends[:, k:] += a * ends[:, :-k]
        k, a = 2 * k, a * a
    carry = np.empty_like(ends)
    carry[:, 0] = 0.0
    np.multiply(math.exp(-1.0 / m), ends[:, :-1], out=carry[:, 1:])
    flat, carry = rows.reshape(-1, b), carry.reshape(-1)
    step = _BLOCK // b
    for i in range(0, len(flat), step):
        blk = flat[i:i + step]
        blk *= up
        blk[:, 0] += carry[i:i + step]
        np.cumsum(blk, axis=1, out=blk)
        blk *= down


def _ar1_layout(m: float, n: int) -> tuple[int, int, int]:
    """(steps b per scan row, burn-in, draws per path) of an AR(1) path, m > 0.

    b comes from m, not from log(phi), which is -inf once phi underflows
    (m < 1/745); (b - 1)/m <= 200 keeps phi**-j far from overflow.  The draws
    fill whole rows: the ones past n + burn continue the stream and are
    dropped.
    """
    b = min(_ROW, 1 + int(200 * m))
    burn = int(math.ceil(10 * m))
    return b, burn, -(-(n + burn) // b) * b


def _paths(spec: GeneratorSpec, rngs, count: int):
    """Yield the paths of ``spec`` drawn from the ``count`` generators of
    ``rngs``, in order, as the rows of 2-D blocks: AR(1) with m > 0 a chunk
    of at most ``_CHUNK`` draws (or one path, if longer) at a time, each
    block a view of one reused buffer; every other kind one row per path."""
    kind, p, n = spec.kind, spec.params, spec.n
    if kind != "gaussian_ar1" or p["m"] == 0:
        for rng in rngs:
            yield _draw_path(kind, p, n, rng)[None]
        return
    m = p["m"]
    b, burn, size = _ar1_layout(m, n)
    c = min(count, max(1, _CHUNK // size))
    buf = np.empty((c, size))
    innov_sd = math.sqrt(1.0 - math.exp(-2.0 / m))
    for i in range(0, count, c):
        z = buf[:min(c, count - i)]
        for row, rng in zip(z, rngs):  # z first: zip takes len(z) generators
            rng.standard_normal(out=row)  # the stream of a sized draw
        # x_t = innov_sd Z_t with x_1 = Z_1 (stationary start), in place
        z0 = z[:, 0].copy()
        z *= innov_sd
        z[:, 0] = z0
        _ar1_scan(z.reshape(len(z), -1, b), m)  # burn-in and padding included
        yield z[:, burn:burn + n]


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Generate the series described by ``spec``; deterministic given seed."""
    return next(_paths(spec, (make_rng(spec.seed),), 1))[0]


def maxima(spec: GeneratorSpec, L: int) -> np.ndarray:
    """The maximum of each of L paths of ``spec``, path j drawn from
    ``make_rng(spec.seed + j)``: equal bit for bit to
    ``np.max(generate(spec.with_seed(spec.seed + j)))``, without a spec per
    path (see the module docstring for the chunked AR(1) draw).
    """
    check_count("L", L, 1, InvalidSpecError)
    # int() first: a numpy-integer seed near 2**63 would wrap when j is added
    rngs = (make_rng(int(spec.seed) + j) for j in range(L))
    out = np.empty(L)
    i = 0
    for block in _paths(spec, rngs, L):
        np.maximum.reduce(block, axis=1, out=out[i:i + len(block)])
        i += len(block)
    return out
