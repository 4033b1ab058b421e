"""Command-line front end.

Three subcommands:

- ``threshold``: read a one-column CSV series, run the pipeline, emit a JSON
  report whose manifest reproduces the run.
- ``validate``: run the pipeline on one generated path and the Monte Carlo
  oracle on L paths, compare, emit a JSON report.
- ``app``: run an application harness (scan | changepoint | bandit) from a
  JSON spec file and write its artifacts to an output directory.

Exit codes: 0 success, 1 statistical warnings only, 2 input error, 3 fit
failure.  Each pipeline warning code is also logged at WARNING level; the log
level comes from the THRESHOLD_MACHINE_LOG environment variable.  Every
command requires --seed, from which all randomness flows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (
    BanditSpec,
    ErGraphSpec,
    MmdStreamSpec,
    bandit_run,
    change_point_run,
    scan_series,
)
from .errors import (
    DegenerateHeightsError,
    DtmError,
    InvalidSpecError,
    NoClustersError,
    ParseError,
    TooFewExceedancesError,
    check_count,
    check_level,
    check_real,
)
from .generators import GeneratorSpec, generate
from .mc_oracle import EmpiricalMaxDist, empirical_max_cdf, mc_threshold, sup_norm_gap
from .pipeline import DtmConfig, ThresholdReport, run_dtm

SCHEMA_VERSION = 2
GAP_TOLERANCE = 0.1  # validate's pass bar on the sup-norm gap: criterion 5's bound

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_INPUT_ERROR = 2
EXIT_FIT_FAILURE = 3

_FIT_ERRORS = (TooFewExceedancesError, DegenerateHeightsError, NoClustersError)

log = logging.getLogger("threshold_machine")


def _manifest(command: str, config: dict, seed) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "seed": seed,
    }


def _report_payload(report: ThresholdReport) -> dict:
    p = report.model.params
    return {
        "threshold": report.threshold,
        "mu": p.mu,
        "sigma": p.sigma,
        "xi": p.xi,
        "theta": report.model.theta,
        "n": report.model.horizon,
        "n_u": report.theta_est.n_u,
        "cutoff": report.model.cutoff,
        "alpha": report.config.alpha,
        "warnings": list(report.warnings),
        "seed": report.config.seed,
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _exit_status(codes) -> int:
    """Log each warning code; a run with any code exits with EXIT_WARNINGS."""
    for code in codes:
        log.warning("pipeline warning: %s", code)
    return EXIT_WARNINGS if codes else EXIT_OK


def _error_payload(code: str, message: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "error": {"code": code, "message": message}}


def _read_series(path: str) -> np.ndarray:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    values = []
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path} contains no data")
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1  # header line
    for ln in lines[start:]:
        field = ln.split(",")[0].strip()
        try:
            values.append(float(field))
        except ValueError as e:
            raise ParseError(f"non-numeric value {field!r} in {path}") from e
    if not values:
        raise ParseError(f"{path} contains no numeric rows")
    return np.asarray(values)


def _dtm_config(args) -> DtmConfig:
    return DtmConfig(alpha=args.alpha, cutoff_quantile=args.quantile, seed=args.seed,
                     bootstrap_reps=args.bootstrap_reps)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_threshold(args) -> int:
    series = _read_series(args.input)
    log.info("read %d values from %s", len(series), args.input)
    cfg = _dtm_config(args)
    report = run_dtm(series, cfg)
    log.info("threshold %.6g at alpha %.4g", report.threshold, cfg.alpha)
    payload = _report_payload(report)
    payload["manifest"] = _manifest("threshold", dataclasses.asdict(cfg), args.seed)
    _emit(payload, args.out)
    return _exit_status(report.warnings)


def _cmd_validate(args) -> int:
    # flags before the spec, so a bad --seed is invalid-config, as in threshold
    cfg = _dtm_config(args)
    check_count("--mc-reps", args.mc_reps, 1, InvalidSpecError)
    spec_dict = _load_json_arg(args.spec)
    spec_dict.setdefault("n", 10_000)
    spec_dict.setdefault("seed", args.seed)
    spec = GeneratorSpec.from_dict(spec_dict)
    report = run_dtm(generate(spec), cfg)
    # oracle replicates derive from a shifted seed so they are independent of
    # the fitted path
    dist = empirical_max_cdf(spec.with_seed(spec.seed + 10_000), args.mc_reps)
    gap = sup_norm_gap(dist, report.model)
    mc_x = mc_threshold(dist, args.alpha)
    payload = {
        "dtm_threshold": report.threshold,
        "mc_threshold": mc_x,
        "sup_norm_gap": gap,
        "gap_tolerance": GAP_TOLERANCE,
        "passed": bool(gap <= GAP_TOLERANCE),
        "fit": _report_payload(report),
        "manifest": _manifest(
            "validate",
            {"spec": spec.to_dict(), "L": args.mc_reps, "alpha": args.alpha,
             "dtm": dataclasses.asdict(cfg)},
            args.seed,
        ),
    }
    _emit(payload, args.out)
    status = _exit_status(report.warnings)
    return status if payload["passed"] else EXIT_WARNINGS


def _load_json_arg(value: str) -> dict:
    text = value
    if not value.lstrip().startswith("{"):
        try:
            text = Path(value).read_text()
        except OSError as e:
            raise ParseError(f"cannot read spec {value}: {e}") from e
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON spec: {e}") from e
    if not isinstance(d, dict):
        raise ParseError("spec JSON must be an object")
    return d


def _write_csv(path: Path, header: list[str], rows) -> None:
    # a harness's first artifact creates --outdir, so a refused spec leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_app(args) -> int:
    spec_dict = _load_json_arg(args.spec)
    seed = spec_dict.setdefault("seed", args.seed)  # a spec seed wins over --seed
    outdir = Path(args.outdir)
    runner = {"scan": _app_scan, "changepoint": _app_changepoint, "bandit": _app_bandit}[args.harness]
    # the runner pops its run keys from a copy, so the manifest keeps them
    summary = runner(dict(spec_dict), outdir)
    summary["manifest"] = _manifest(f"app:{args.harness}", spec_dict, seed)
    _emit(summary, str(outdir / "summary.json"))
    print(f"wrote {outdir}/summary.json")
    # bandit_run keeps no reports, so its summary has no warnings
    return _exit_status(summary.get("warnings", []))


@contextlib.contextmanager
def _spec_errors(harness: str):
    """A missing, unknown, mistyped or refused key of a harness spec is an
    input error; so the harness runs only on a spec that passed every check."""
    try:
        yield
    except (KeyError, TypeError) as e:
        raise InvalidSpecError(f"malformed {harness} spec: {e!r}") from e
    except DtmError as e:
        raise InvalidSpecError(f"malformed {harness} spec: {e}") from e


def _app_scan(spec_dict: dict, outdir: Path) -> dict:
    alphas = spec_dict.pop("alphas", [0.1, 0.05, 0.03, 0.01])
    n_subgraphs = spec_dict.pop("n_subgraphs", 5000)
    mc_reps = spec_dict.pop("mc_reps", 100)
    with _spec_errors("scan"):
        if not (isinstance(alphas, list) and alphas):
            raise InvalidSpecError(f"alphas must be a non-empty list of levels, got {alphas!r}")
        for a in alphas:
            check_level("each of alphas", a, InvalidSpecError)
        check_count("n_subgraphs", n_subgraphs, 1, InvalidSpecError)
        check_count("mc_reps", mc_reps, 1, InvalidSpecError)
        spec = ErGraphSpec(**spec_dict)
        # no stage but the inversion reads alpha, so one fit answers every
        # level; of its codes only small-sample reads alpha, and below 0.86
        # its bound falls as alpha rises, so the smallest level raises every
        # code any does
        cfg = DtmConfig(alpha=min(alphas), seed=spec.seed + 1)
    series = scan_series(spec, n_subgraphs)
    report = run_dtm(series, cfg)
    _write_csv(outdir / "scan_series.csv", ["index", "statistic"],
               enumerate(series, start=1))

    reps = (dataclasses.replace(spec, seed=spec.seed + 20_000 + j) for j in range(mc_reps))
    mc = EmpiricalMaxDist(np.sort([np.max(scan_series(rep, n_subgraphs)) for rep in reps]))
    return {"dtm_thresholds": {str(a): report.model.upper(a) for a in alphas},
            "mc_thresholds": {str(a): mc_threshold(mc, a) for a in alphas},
            "n_subgraphs": n_subgraphs, "mc_reps": mc_reps,
            "warnings": list(report.warnings)}


def _app_changepoint(spec_dict: dict, outdir: Path) -> dict:
    arl = spec_dict.pop("arl", 5000.0)
    with _spec_errors("changepoint"):
        spec = MmdStreamSpec(**spec_dict)
        check_real("arl", arl, 0, InvalidSpecError)
    result = change_point_run(spec, arl)
    times = range(result.stream_start, result.stream_start + len(result.stream))
    _write_csv(outdir / "changepoint_stream.csv", ["time", "statistic", "threshold"],
               ((t, s, result.threshold) for t, s in zip(times, result.stream)))
    p = result.report.model.params
    return {
        "stopping_time": result.stopping_time,
        "threshold": result.threshold,
        "arl": arl,
        "alpha": result.report.config.alpha,
        "fitted": {"mu": p.mu, "sigma": p.sigma, "xi": p.xi,
                   "theta": result.report.model.theta},
        "warnings": list(result.report.warnings),
    }


def _app_bandit(spec_dict: dict, outdir: Path) -> dict:
    total_pulls = spec_dict.pop("total_pulls", 1200)
    with _spec_errors("bandit"):
        spec_dict["tail_exponents"] = tuple(spec_dict["tail_exponents"])
        spec = BanditSpec(**spec_dict)
        # bandit_run's own floor: every arm's burn-in, then at least one round
        check_count("total_pulls", total_pulls, spec.n_arms * spec.burn_in + 1, InvalidSpecError)
    result = bandit_run(spec, total_pulls)
    rows = []
    for rnd, (arm, bounds) in enumerate(zip(result.pulls, result.bounds_history)):
        row = [rnd, arm]
        for b in bounds:
            row.extend(["" if b is None else b[0], "" if b is None else b[1]])
        rows.append(row)
    header = ["round", "pulled_arm"]
    for k in range(spec.n_arms):
        header.extend([f"lcb_{k}", f"ucb_{k}"])
    _write_csv(outdir / "bandit_rounds.csv", header, rows)
    return {
        "initial_bounds": [list(b) if b else None for b in result.initial_bounds],
        "pull_counts": result.pull_counts(spec.n_arms),
        "stopped_early": result.stopped_early,
        "total_pulls": total_pulls,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-machine",
        description="Distribution-free tail thresholds for maxima of dependent series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pipeline=True):
        p.add_argument("--seed", type=int, default=None, help="PRNG seed (required)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if not pipeline:  # the harnesses take their settings from the spec
            return
        p.add_argument("--alpha", type=float, required=True, help="tail probability level")
        p.add_argument("--quantile", type=float, default=DtmConfig.cutoff_quantile,
                       help="cutoff quantile in (0,1), default %(default)s")
        p.add_argument("--bootstrap-reps", type=int, default=1, dest="bootstrap_reps")

    t = sub.add_parser("threshold", help="threshold for a series read from CSV")
    t.add_argument("--input", required=True, help="CSV file, one numeric value per line")
    common(t)

    v = sub.add_parser("validate", help="compare the pipeline against the Monte Carlo oracle")
    v.add_argument("--spec", required=True, help="generator spec JSON (inline or file path)")
    v.add_argument("--mc-reps", type=int, default=2000, dest="mc_reps", help="oracle replicates L")
    common(v)

    a = sub.add_parser("app", help="run an application harness")
    a.add_argument("harness", choices=["scan", "changepoint", "bandit"])
    a.add_argument("--spec", required=True, help="harness spec JSON (inline or file path)")
    a.add_argument("--outdir", required=True, help="directory for run artifacts")
    common(a, pipeline=False)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("THRESHOLD_MACHINE_LOG", "WARNING").upper())
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"threshold": _cmd_threshold, "validate": _cmd_validate, "app": _cmd_app}
    try:
        if args.seed is None:
            raise ParseError(f"{args.command} requires --seed for reproducibility")
        return handlers[args.command](args)
    except _FIT_ERRORS as e:
        _emit(_error_payload(e.code, str(e)), getattr(args, "out", None))
        return EXIT_FIT_FAILURE
    except DtmError as e:
        _emit(_error_payload(e.code, str(e)), getattr(args, "out", None))
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
