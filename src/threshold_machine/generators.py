"""Seeded synthetic series generators for experiments and validation.

Supported kinds:

- ``beta(a, b)`` via Gamma ratios (short upper tail, bounded support)
- ``chi_square(df)`` (exponentially decaying tail)
- ``student_t(df)`` via the normal / chi-square ratio (heavy tail)
- ``pareto(alpha_tail)`` via inverse-CDF draws (heavy tail, support [1, inf))
- ``gaussian_ar1(m)``: S_t = exp(-1/m) S_{t-1} + sqrt(1 - exp(-2/m)) Z_t,
  a stationary standard Gaussian process with correlation length m
  (m = 0 means iid); a burn-in of 10*m steps is discarded
- ``moving_average(base, window)``: sliding mean of an iid base spec

Everything draws from the package PRNG (PCG64), so a spec is reproducible
bit-for-bit and two specs differing only in seed are independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError
from .resample import make_rng

__all__ = ["GeneratorSpec", "generate"]

_KINDS = ("beta", "chi_square", "student_t", "pareto", "gaussian_ar1", "moving_average")


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
        if self.n < 1:
            raise InvalidSpecError(f"series length must be >= 1, got {self.n}")
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
            return cls(d["kind"], params, int(d["n"]), int(d["seed"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidSpecError(f"malformed generator spec: {e}") from e


def _validate_params(kind: str, p: dict) -> None:
    def positive(name):
        v = p.get(name)
        if v is None or not (v > 0) or not math.isfinite(v):
            raise InvalidSpecError(f"{kind} needs {name} > 0, got {v}")

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
        if not (p.get("window", 0) >= 1):
            raise InvalidSpecError(f"window must be >= 1, got {p.get('window')}")


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


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Generate the series described by ``spec``; deterministic given seed."""
    rng = make_rng(spec.seed)
    n = spec.n

    if spec.kind == "gaussian_ar1":
        m = spec.params["m"]
        if m == 0:
            return rng.standard_normal(n)
        burn = int(math.ceil(10 * m))
        phi = math.exp(-1.0 / m)
        innov_sd = math.sqrt(1.0 - math.exp(-2.0 / m))
        z = rng.standard_normal(n + burn)
        # S_t = phi * S_{t-1} + x_t with x_1 = Z_1 (stationary start), as a
        # doubling scan (Blelloch 1990): after the pass with offset k, s_t
        # holds sum_{j<2k} phi**j x_{t-j}.  Later terms are exactly 0 once
        # k covers the path or phi**k underflows.
        s = innov_sd * z
        s[0] = z[0]
        k, a = 1, phi
        while k < s.size and a > 0:
            s[k:] += a * s[:-k]
            k, a = 2 * k, a * a
        return s[burn:]

    if spec.kind == "moving_average":
        base: GeneratorSpec = spec.params["base"]
        w = int(spec.params["window"])
        raw = _draw_iid(base.kind, base.params, n + w - 1, rng)
        if w == 1:
            return raw
        csum = np.concatenate(([0.0], np.cumsum(raw)))
        return (csum[w:] - csum[:-w]) / w

    return _draw_iid(spec.kind, spec.params, n, rng)
