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
- ``moving_average(base, window)``: sliding mean of an iid base spec

Everything draws from the package PRNG (PCG64), so a spec is reproducible
bit-for-bit and two specs differing only in seed are independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError, check_count, check_real
from .resample import make_rng

__all__ = ["GeneratorSpec", "generate"]

_KINDS = ("beta", "chi_square", "student_t", "pareto", "gaussian_ar1", "moving_average")
# The AR(1) scan's rows of at most _ROW steps bound the rounding of each
# row's cumulative sum; it works _CHUNK elements at a time, so that the passes
# over one chunk find it in cache.
_ROW, _CHUNK = 64, 1 << 15


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic series."""

    kind: str
    params: dict = field(default_factory=dict)
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
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

    @classmethod
    def moving_average(cls, base: "GeneratorSpec", window: int, n: int, seed: int) -> "GeneratorSpec":
        return cls("moving_average", {"base": base, "window": window}, n, seed)

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)

    # -- (de)serialization for config files --------------------------------

    def to_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == "moving_average":
            params["base"] = params["base"].to_dict()
        return {"kind": self.kind, "params": params, "n": self.n, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        try:
            params = dict(d.get("params", {}))
            if d["kind"] == "moving_average":
                params["base"] = cls.from_dict(params["base"])
                params["window"] = _whole(params.get("window"))
            return cls(d["kind"], params, _whole(d["n"]), _whole(d["seed"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidSpecError(f"malformed generator spec: {e}") from e


def _whole(value):
    # JSON may write a count as a float (1e6); a whole one stands for its
    # integer, and anything else is left for the spec's checks to refuse
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _validate_params(kind: str, p: dict) -> None:
    def positive(name):
        check_real(f"{kind} {name}", p.get(name), 0, InvalidSpecError)

    if kind == "beta":
        positive("a")
        positive("b")
    elif kind == "chi_square":
        if not (p.get("df", 0) >= 1):
            raise InvalidSpecError(f"chi_square needs df >= 1, got {p.get('df')}")
    elif kind == "student_t":
        if not (p.get("df", 0) >= 1):
            raise InvalidSpecError(f"student_t needs df >= 1, got {p.get('df')}")
    elif kind == "pareto":
        positive("alpha_tail")
    elif kind == "gaussian_ar1":
        m = p.get("m")
        if m is None or m < 0 or not math.isfinite(m):
            raise InvalidSpecError(f"gaussian_ar1 needs m >= 0, got {m}")
    elif kind == "moving_average":
        base = p.get("base")
        if not isinstance(base, GeneratorSpec):
            raise InvalidSpecError("moving_average needs a base GeneratorSpec")
        if base.kind in ("gaussian_ar1", "moving_average"):
            raise InvalidSpecError("moving_average base must be an iid kind")
        check_count("window", p.get("window"), 1, InvalidSpecError)


def _draw_iid(kind: str, p: dict, n: int, rng: np.random.Generator) -> np.ndarray:
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
        u = rng.random(n)
        return (1.0 - u) ** (-1.0 / p["alpha_tail"])
    raise InvalidSpecError(f"{kind} is not an iid kind")  # pragma: no cover


def _ar1_scan(rows: np.ndarray, m: float) -> None:
    """Replace the path laid out as ``rows`` by S_t = phi S_{t-1} + x_t,
    S_1 = x_1, in place, with phi = exp(-1/m)."""
    # Row r from its carry-in c_r = phi T_{r-1} is, at step j,
    # phi**j * (c_r + cumsum(x_j phi**-j)).  The row ends follow
    # T_r = E_r + phi**b T_{r-1}, with E_r the row's end from a zero start,
    # run as a doubling scan (Blelloch 1990) over the ends only: after the
    # pass with offset k, T_r holds sum_{i<2k} phi**(b i) E_{r-i}; later terms
    # are exactly 0 once k covers the rows or the weight underflows.
    b = rows.shape[1]
    j = np.arange(b)
    up, down = np.exp(j / m), np.exp(-j / m)
    ends = rows @ down[::-1]  # E_r = sum_j x_j phi**(b-1-j)
    k, a = 1, math.exp(-b / m)
    while k < ends.size and a > 0:
        ends[k:] += a * ends[:-k]
        k, a = 2 * k, a * a
    carry = np.concatenate(([0.0], math.exp(-1.0 / m) * ends[:-1]))
    step = _CHUNK // b
    for i in range(0, len(rows), step):
        blk = rows[i:i + step]
        blk *= up
        blk[:, 0] += carry[i:i + step]
        np.cumsum(blk, axis=1, out=blk)
        blk *= down


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Generate the series described by ``spec``; deterministic given seed."""
    rng = make_rng(spec.seed)
    n = spec.n

    if spec.kind == "gaussian_ar1":
        m = spec.params["m"]
        if m == 0:
            return rng.standard_normal(n)
        burn = int(math.ceil(10 * m))
        innov_sd = math.sqrt(1.0 - math.exp(-2.0 / m))
        # Rows of b steps.  b comes from m, not from log(phi), which is -inf
        # once phi underflows (m < 1/745); (b - 1)/m <= 200 keeps phi**-j far
        # from overflow.  The draws fill whole rows: the ones past n + burn
        # continue the stream and are dropped.
        b = min(_ROW, 1 + int(200 * m))
        z = rng.standard_normal(-(-(n + burn) // b) * b)
        # x_t = innov_sd Z_t with x_1 = Z_1 (stationary start), in place
        z0 = z[0]
        z *= innov_sd
        z[0] = z0
        _ar1_scan(z.reshape(-1, b), m)
        return z[burn:burn + n]

    if spec.kind == "moving_average":
        base: GeneratorSpec = spec.params["base"]
        w = int(spec.params["window"])
        raw = _draw_iid(base.kind, base.params, n + w - 1, rng)
        if w == 1:
            return raw
        csum = np.concatenate(([0.0], np.cumsum(raw)))
        return (csum[w:] - csum[:-w]) / w

    return _draw_iid(spec.kind, spec.params, n, rng)
