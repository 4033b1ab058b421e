"""Per-layer spans recorded from outside the package.

The tracer replaces each traced function at every name a package module (or
the package namespace) binds it to, so ``pipeline.fit`` and ``gev_fit.fit``
both record into the span ``gev_fit.fit``.  Nothing under ``src/`` changes
and :meth:`Tracer.remove` puts every original object back.

A span's self time is its duration minus the time of the traced spans it
called.  Spans accumulate into the current phase (``setup``, ``warmup`` or
``ops``), so set-up work such as oracle construction and the warm-up are
kept apart from the timed ops.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "threshold_machine"

# (module, function) of every traced span, named "<module>.<function>".
SPANS = (
    ("resample", "bootstrap"),
    ("exceedance", "quantile_cutoff"),
    ("exceedance", "extract"),
    ("exceedance", "gaps"),
    ("gev_fit", "fit"),
    ("extremal_index", "theta_closed_form"),
    ("evt_core", "invert_tail"),
    ("pipeline", "run_dtm"),
    ("pipeline", "confidence_bounds"),
    ("applications", "bandit_run"),
    ("generators", "generate"),
    ("mc_oracle", "empirical_max_cdf"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANS)
PHASES = ("setup", "warmup", "ops")


class Tracer:
    """Wraps the traced functions; use as a context manager."""

    def __init__(self):
        self.phase = "setup"
        self.calls = {(p, s): 0 for p in PHASES for s in SPAN_NAMES}
        self.self_s = {(p, s): 0.0 for p in PHASES for s in SPAN_NAMES}
        self.fit_iterations = 0
        self.fits_converged = 0
        self.extract_n_u = 0
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dur
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_s[key] += dur - child
            if self.phase == "ops":
                self._count(name, out)
            return out

        return traced

    def _count(self, name: str, out) -> None:
        if name == "gev_fit.fit":
            diag = out[1]
            self.fit_iterations += diag.iterations
            self.fits_converged += diag.converged
        elif name == "exceedance.extract":
            self.extract_n_u += out.n_u

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, fn_name in SPANS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def metrics(self, n_setups: int, n_ops: int, op_seconds: float) -> dict[str, float]:
        """Per-span figures: calls and self time per op, share of op wall time,
        and self time per set-up."""
        out = {}
        for s in SPAN_NAMES:
            out[f"{s}.calls"] = self.calls[("ops", s)] / n_ops
            out[f"{s}.self_ms"] = 1e3 * self.self_s[("ops", s)] / n_ops
            out[f"{s}.share"] = self.self_s[("ops", s)] / op_seconds
            out[f"{s}.setup_ms"] = 1e3 * self.self_s[("setup", s)] / n_setups
        fits = self.calls[("ops", "gev_fit.fit")]
        extracts = self.calls[("ops", "exceedance.extract")]
        out["gev_fit.fit.iterations"] = self.fit_iterations / n_ops
        out["gev_fit.fit.converged_ratio"] = self.fits_converged / fits if fits else 0.0
        out["exceedance.extract.n_u"] = self.extract_n_u / extracts if extracts else 0.0
        return out
