"""Tests for the command-line front end."""

import json
import re

import numpy as np
import pytest

from threshold_machine import (BanditSpec, DtmConfig, GeneratorSpec, bandit_run, generate,
                               make_rng, run_dtm)
from threshold_machine import applications, cli
from threshold_machine.cli import main


def write_series(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


def count_snapshots(monkeypatch):
    """Record the time of every change-point snapshot drawn from now on."""
    drawn = []
    original = applications._snapshot

    def counting(spec, t):
        drawn.append(t)
        return original(spec, t)

    monkeypatch.setattr(applications, "_snapshot", counting)
    return drawn


@pytest.fixture()
def chi2_csv(tmp_path):
    p = tmp_path / "series.csv"
    write_series(p, generate(GeneratorSpec.chi_square(1, 10_000, 77)))
    return p


class TestThresholdCommand:
    def test_report_contents(self, chi2_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["threshold", "--input", str(chi2_csv), "--alpha", "0.05",
                     "--seed", "3", "--out", str(out)])
        assert code in (0, 1)
        report = json.loads(out.read_text())
        for key in ("threshold", "mu", "sigma", "xi", "theta", "n", "n_u",
                    "cutoff", "alpha", "warnings", "seed"):
            assert key in report
        assert report["n"] == 10_000
        assert abs(report["xi"]) <= 0.15
        assert report["manifest"]["schema_version"] == 2
        assert report["manifest"]["config"]["alpha"] == 0.05

    def test_header_autodetect(self, tmp_path):
        p = tmp_path / "with_header.csv"
        p.write_text("value\n" + "\n".join(
            str(v) for v in generate(GeneratorSpec.chi_square(1, 2000, 5))))
        out = tmp_path / "r.json"
        code = main(["threshold", "--input", str(p), "--alpha", "0.1",
                     "--seed", "1", "--out", str(out)])
        assert code in (0, 1)
        assert json.loads(out.read_text())["n"] == 2000

    def test_alpha_monotonicity(self, chi2_csv, tmp_path):
        thresholds = {}
        for alpha in ("0.05", "0.01"):
            out = tmp_path / f"r{alpha}.json"
            main(["threshold", "--input", str(chi2_csv), "--alpha", alpha,
                  "--seed", "3", "--out", str(out)])
            thresholds[alpha] = json.loads(out.read_text())["threshold"]
        assert thresholds["0.01"] > thresholds["0.05"]

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code = main(["threshold", "--input", str(p), "--alpha", "0.05", "--seed", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "parse-error"

    def test_requires_seed(self, chi2_csv, capsys):
        assert main(["threshold", "--input", str(chi2_csv), "--alpha", "0.05"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == {"code": "parse-error",
                                "message": "threshold requires --seed for reproducibility"}

    @pytest.mark.parametrize("flags", [
        ["--alpha", "0.05", "--seed", "-1"], ["--alpha", "0", "--seed", "1"],
        ["--alpha", "0.05", "--quantile", "1.5", "--seed", "1"],
        ["--alpha", "0.05", "--bootstrap-reps", "0", "--seed", "1"],
    ])
    def test_invalid_config_is_input_error(self, chi2_csv, capsys, flags):
        code = main(["threshold", "--input", str(chi2_csv), *flags])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "invalid-config"

    @pytest.mark.parametrize("argv", [
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": 1}, "n": 1000.5}',
         "--seed", "1"],
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": 1}, "seed": 2.5}',
         "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 0.1, "k": 5}', "--seed", "-1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 0.1, "k": 5, "seed": -3}',
         "--seed", "1"],
        ["app", "changepoint", "--spec", "{}", "--seed", "-1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0]}', "--seed", "-1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "arm_seeds": [1, -2]}',
         "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30.5, "p0": 0.1, "k": 5}', "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 0.1, "k": 5.5}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"block_size": 8.5}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"change_time": 300.5}', "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "burn_in": 50.5}',
         "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "window": 2.5}',
         "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 0.1, "k": 5, "alphas": 0.05}',
         "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 0.1, "k": 5, "mc_reps": 0}',
         "--seed", "1"],
        ["app", "scan", "--spec",
         '{"N": 30, "p0": 0.1, "k": 5, "n_subgraphs": 100.5}', "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "total_pulls": "x"}',
         "--seed", "1"],
        ["app", "changepoint", "--spec", '{"cutoff_quantile": "x"}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"fix_xi": "x"}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"arl": "x"}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"arl": -5}', "--seed", "1"],
        ["app", "changepoint", "--spec", '{"arl": NaN}', "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "cutoff_quantile": "x"}',
         "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [3.5, 4.0], "fix_xi": "x"}',
         "--seed", "1"],
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": "x"}}', "--seed", "1"],
        ["validate", "--spec", '{"kind": "student_t", "params": {"df": Infinity}}',
         "--seed", "1"],
        ["validate", "--spec", '{"kind": "gaussian_ar1", "params": {"m": 50, "phi": 0.9}}',
         "--seed", "1"],
        ["app", "scan", "--spec", '{"N": 30, "p0": 1.0000000000001, "k": 5}',
         "--seed", "1"],
        ["app", "changepoint", "--spec", '{"p_pre": "x"}', "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": ["x", 4.0]}', "--seed", "1"],
        ["app", "bandit", "--spec", '{"tail_exponents": [Infinity, 4.0]}', "--seed", "1"],
    ], ids=["validate-fractional-n", "validate-fractional-seed", "scan-flag",
            "scan-spec", "changepoint-flag", "bandit-flag", "bandit-arm-seeds",
            "scan-fractional-N", "scan-fractional-k", "changepoint-fractional-block-size",
            "changepoint-fractional-change-time", "bandit-fractional-burn-in",
            "bandit-fractional-window", "scan-scalar-alphas", "scan-zero-mc-reps",
            "scan-fractional-n-subgraphs", "bandit-text-total-pulls",
            "changepoint-text-quantile", "changepoint-text-fix-xi", "changepoint-text-arl",
            "changepoint-negative-arl", "changepoint-nan-arl", "bandit-text-quantile",
            "bandit-text-fix-xi", "validate-text-df", "validate-infinite-df",
            "validate-unknown-param", "scan-p0-above-one", "changepoint-text-p-pre",
            "bandit-text-exponent", "bandit-infinite-exponent"])
    def test_invalid_spec_is_input_error(self, argv, tmp_path, monkeypatch):
        snapshots = count_snapshots(monkeypatch)
        out = tmp_path / "error.json"
        extra = ["--alpha", "0.05"] if argv[0] == "validate" else ["--outdir", str(tmp_path / "x")]
        assert main([*argv, *extra, "--out", str(out)]) == 2
        assert json.loads(out.read_text())["error"]["code"] == "invalid-spec"
        assert snapshots == []  # refused before the change-point stream is drawn

    def test_changepoint_arl_too_short_names_arl(self, tmp_path, monkeypatch):
        # the spec's default train_len is 2000, and 1 - exp(-2000 / 50) rounds to 1
        snapshots = count_snapshots(monkeypatch)
        out = tmp_path / "error.json"
        code = main(["app", "changepoint", "--spec", '{"arl": 50}', "--seed", "0",
                     "--outdir", str(tmp_path / "x"), "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["error"] == {
            "code": "invalid-config",
            "message": "arl=50 is too short for n=2000: 1 - exp(-n / arl) rounds to 1"}
        assert snapshots == []

    def test_non_numeric_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\nbanana\n2.0\n")
        assert main(["threshold", "--input", str(p), "--alpha", "0.05", "--seed", "1"]) == 2

    def test_fit_failure_exit_code(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        write_series(p, np.arange(30, dtype=float))
        code = main(["threshold", "--input", str(p), "--alpha", "0.05", "--seed", "1"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "too-few-exceedances"

    def test_json_round_trip(self, chi2_csv, tmp_path):
        out = tmp_path / "r.json"
        main(["threshold", "--input", str(chi2_csv), "--alpha", "0.05",
              "--seed", "3", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert json.loads(json.dumps(payload)) == payload

    def test_manifest_reproduces_the_run(self, chi2_csv, tmp_path):
        out = tmp_path / "r.json"
        main(["threshold", "--input", str(chi2_csv), "--alpha", "0.02", "--quantile", "0.9",
              "--bootstrap-reps", "3", "--seed", "4", "--out", str(out)])
        payload = json.loads(out.read_text())
        cfg = DtmConfig(**payload["manifest"]["config"])
        assert run_dtm(np.loadtxt(chi2_csv), cfg).threshold == payload["threshold"]

    def test_boundary_fit_exits_with_warnings(self, tmp_path):
        p = tmp_path / "uniform.csv"
        write_series(p, make_rng(0).random(1000))
        out = tmp_path / "r.json"
        code = main(["threshold", "--input", str(p), "--alpha", "0.05", "--quantile", "0.9",
                     "--bootstrap-reps", "10", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["warnings"] == ["boundary-shape"]

    def test_boundary_extremal_index_exits_ok(self, tmp_path):
        # the series whose extremal index root rounds one ulp above 1
        p = tmp_path / "ar1.csv"
        write_series(p, generate(GeneratorSpec.gaussian_ar1(0, 10_000, 7)))
        out = tmp_path / "r.json"
        code = main(["threshold", "--input", str(p), "--alpha", "0.05", "--quantile", "0.99",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["theta"] == 1.0 and payload["warnings"] == []

    def test_warning_codes_are_logged(self, tmp_path, caplog):
        # the log, and so stderr at the default level, names each code once
        p = tmp_path / "uniform.csv"
        write_series(p, make_rng(0).random(1000))
        with caplog.at_level("WARNING", logger="threshold_machine"):
            main(["threshold", "--input", str(p), "--alpha", "0.05", "--quantile", "0.9",
                  "--bootstrap-reps", "10", "--seed", "0", "--out", str(tmp_path / "r.json")])
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("threshold_machine", "WARNING", "pipeline warning: boundary-shape")]

    @pytest.mark.parametrize("command, own_flags", [
        ("threshold", {"--input"}),
        ("validate", {"--spec", "--mc-reps"}),
    ])
    def test_pipeline_flags(self, command, own_flags, capsys):
        # JSON is the only output format, and the exceedance floor, the
        # cutoff rule and validate's pass bar are constants; the spec sets n
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == own_flags | {
            "--help", "--seed", "--out", "--alpha", "--quantile", "--bootstrap-reps"}

    @pytest.mark.parametrize("argv", [
        ["threshold", "--input", "series.csv", "--cutoff", "4"],
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": 1}}', "--cutoff", "4"],
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": 1}}', "--n", "100"],
        ["validate", "--spec", '{"kind": "chi_square", "params": {"df": 1}}',
         "--gap-tolerance", "0.2"],
    ], ids=["threshold-cutoff", "validate-cutoff", "validate-n", "validate-gap-tolerance"])
    def test_removed_flags_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alpha", "0.05", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_chi2(self, tmp_path):
        out = tmp_path / "v.json"
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}, "n": 4000})
        code = main(["validate", "--spec", spec, "--mc-reps", "200",
                     "--alpha", "0.05", "--seed", "11", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) >= {"dtm_threshold", "mc_threshold", "sup_norm_gap", "passed"}
        assert code in (0, 1)

    def test_requires_seed(self, tmp_path, capsys):
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}})
        assert main(["validate", "--spec", spec, "--alpha", "0.05"]) == 2

    def test_spec_sets_the_length(self, tmp_path):
        # n comes from the spec alone, 10 000 when the spec omits it
        out = tmp_path / "v.json"
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}})
        main(["validate", "--spec", spec, "--mc-reps", "5", "--alpha", "0.05", "--seed", "2",
              "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["manifest"]["config"]["spec"]["n"] == payload["fit"]["n"] == 10_000
        assert payload["gap_tolerance"] == cli.GAP_TOLERANCE == 0.1
        assert "gap_tolerance" not in payload["manifest"]["config"]

    def test_malformed_spec(self, capsys):
        assert main(["validate", "--spec", "{not json", "--alpha", "0.05",
                     "--seed", "1"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--alpha", "0"], ["--alpha", "0.05", "--quantile", "1.5"],
        ["--alpha", "0.05", "--bootstrap-reps", "0"],
        # a bad seed reads as in threshold, though validate also takes a spec seed
        ["--alpha", "0.05", "--seed", "-1"],
    ])
    def test_invalid_pipeline_flag_is_input_error(self, flags, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "generate", lambda spec: drawn.append(spec))
        monkeypatch.setattr(cli, "empirical_max_cdf", lambda spec, L: drawn.append(spec))
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}})
        assert main(["validate", "--spec", spec, "--seed", "1", *flags]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-config"
        assert drawn == []  # refused before any path or oracle is drawn

    def test_manifest_reproduces_the_run(self, tmp_path):
        # the manifest alone rebuilds the path and the pipeline run
        out = tmp_path / "v.json"
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}, "n": 3000})
        main(["validate", "--spec", spec, "--mc-reps", "20", "--alpha", "0.05",
              "--quantile", "0.9", "--bootstrap-reps", "3", "--seed", "5", "--out", str(out)])
        payload = json.loads(out.read_text())
        config = payload["manifest"]["config"]
        series = generate(GeneratorSpec.from_dict(config["spec"]))
        report = run_dtm(series, DtmConfig(**config["dtm"]))
        assert report.threshold == payload["dtm_threshold"]
        assert config["dtm"]["cutoff_quantile"] == 0.9 and config["dtm"]["bootstrap_reps"] == 3

    @pytest.mark.parametrize("mc_reps", ["0", "-1"])
    def test_invalid_mc_reps_is_input_error(self, mc_reps, capsys, monkeypatch):
        calls = {"generate": 0, "run_dtm": 0}

        def counting(name):
            inner = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        spec = json.dumps({"kind": "chi_square", "params": {"df": 1}, "n": 2000})
        code = main(["validate", "--spec", spec, "--alpha", "0.05",
                     "--seed", "1", "--mc-reps", mc_reps])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-spec"
        assert calls == {"generate": 0, "run_dtm": 0}  # refused before the path is drawn


class TestAppCommand:
    def test_bandit_artifacts(self, tmp_path):
        spec = {"tail_exponents": [3.5, 4.0], "delta": 0.01, "burn_in": 300,
                "total_pulls": 650}
        spec_path = tmp_path / "bandit.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "run"
        code = main(["app", "bandit", "--spec", str(spec_path),
                     "--outdir", str(outdir), "--seed", "5"])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["initial_bounds"]) == 2
        assert (outdir / "bandit_rounds.csv").exists()
        assert summary["manifest"]["command"] == "app:bandit"

    def test_manifest_records_the_seed_the_run_used(self, tmp_path):
        # a spec seed wins over --seed, and the manifest says so
        spec = {"tail_exponents": [3.5, 4.0], "seed": 3, "total_pulls": 1010}
        outdir = tmp_path / "run"
        code = main(["app", "bandit", "--spec", json.dumps(spec),
                     "--outdir", str(outdir), "--seed", "5"])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["manifest"]["seed"] == 3
        assert summary["manifest"]["config"] == spec  # total_pulls included
        ran = bandit_run(BanditSpec(tail_exponents=(3.5, 4.0), seed=3), 1010)
        assert summary["initial_bounds"] == [list(b) for b in ran.initial_bounds]

    def test_bandit_single_arm_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"tail_exponents": [3.5]}))
        code = main(["app", "bandit", "--spec", str(spec_path),
                     "--outdir", str(tmp_path / "x"), "--seed", "5"])
        assert code == 2

    @pytest.mark.parametrize("harness, spec", [
        ("bandit", {}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "no_such_key": 1}),
        ("scan", {}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "no_such_key": 1}),
        ("changepoint", {"no_such_key": 1}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "alphas": 0.05}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "alphas": []}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "alphas": [0.05, 1.0]}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "alphas": ["0.05"]}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "mc_reps": 0}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "n_subgraphs": "x"}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "n_subgraphs": 100.5}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "cutoff_quantile": "x"}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "total_pulls": "x"}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "total_pulls": 5}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "burn_in": 100, "total_pulls": 200}),
        ("changepoint", {"cutoff_quantile": "x"}),
        ("changepoint", {"cutoff_quantile": 1.0}),
        ("changepoint", {"fix_xi": "x"}),
        ("changepoint", {"bootstrap_reps": 2.5}),
        ("changepoint", {"arl": "x"}),
        ("changepoint", {"arl": -5}),
        ("changepoint", {"arl": float("nan")}),
        ("changepoint", {"train_len": 5000}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "cutoff_quantile": "x"}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "fix_xi": "x"}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "delta": None}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "n_subgraphs": True, "mc_reps": 2}),
        ("changepoint", {"bootstrap_reps": True}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "seed": False}),
        # settings the harnesses fix: a valid value is refused, not ignored
        ("changepoint", {"fix_xi": 0.0}),
        ("changepoint", {"bandwidth": 1.0}),
        ("changepoint", {"cutoff_quantile": 0.9}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "fix_xi": 0.0}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "arm_seeds": [1, 2]}),
        ("bandit", {"tail_exponents": [3.5, 4.0], "cutoff_quantile": 0.9}),
        ("scan", {"N": 30, "p0": 0.1, "k": 5, "cutoff_quantile": 0.9}),
        # the scan draws only the null graph: a community probability is unknown
        ("scan", {"N": 30, "p0": 0.1, "p1": 0.1, "k": 5}),
    ], ids=["bandit-missing", "bandit-unknown", "scan-missing", "scan-unknown",
            "changepoint-unknown", "scan-scalar-alphas", "scan-empty-alphas",
            "scan-alpha-one", "scan-text-alpha", "scan-zero-mc-reps",
            "scan-text-n-subgraphs", "scan-fractional-n-subgraphs", "scan-text-quantile",
            "bandit-text-total-pulls", "bandit-short-total-pulls",
            "bandit-total-pulls-at-burn-in", "changepoint-text-quantile", "changepoint-quantile-one",
            "changepoint-text-fix-xi", "changepoint-fractional-reps", "changepoint-text-arl",
            "changepoint-negative-arl", "changepoint-nan-arl", "changepoint-long-train",
            "bandit-text-quantile", "bandit-text-fix-xi", "bandit-none-delta",
            "scan-bool-n-subgraphs", "changepoint-bool-reps", "bandit-bool-seed",
            "changepoint-fixed-shape", "changepoint-fixed-bandwidth",
            "changepoint-fixed-quantile", "bandit-fixed-shape", "bandit-fixed-arm-seeds",
            "bandit-fixed-quantile", "scan-fixed-quantile",
            "scan-community-probability"])
    def test_malformed_spec_is_input_error(self, harness, spec, tmp_path, monkeypatch):
        ran = []
        for name in ("scan_series", "change_point_run", "bandit_run"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
        out = tmp_path / "error.json"
        code = main(["app", harness, "--spec", json.dumps(spec), "--outdir",
                     str(tmp_path / "x"), "--seed", "5", "--out", str(out)])
        assert code == 2
        error = json.loads(out.read_text())["error"]
        assert error["code"] == "invalid-spec"
        assert error["message"].startswith(f"malformed {harness} spec")
        assert ran == []  # refused before any harness draws data
        assert not (tmp_path / "x").exists()  # nor creates --outdir

    def test_pipeline_flags_rejected(self, tmp_path):
        # the harnesses read their settings from the spec, not from pipeline flags
        spec = json.dumps({"tail_exponents": [3.5, 4.0], "total_pulls": 650})
        with pytest.raises(SystemExit) as exc:
            main(["app", "bandit", "--spec", spec, "--outdir", str(tmp_path / "x"),
                  "--seed", "5", "--bootstrap-reps", "5"])
        assert exc.value.code == 2

    def test_scan_artifacts(self, tmp_path):
        spec = {"N": 40, "p0": 0.1, "k": 6, "n_subgraphs": 800,
                "mc_reps": 10, "alphas": [0.1, 0.05]}
        spec_path = tmp_path / "scan.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "scanrun"
        code = main(["app", "scan", "--spec", str(spec_path),
                     "--outdir", str(outdir), "--seed", "6"])
        assert code == 1
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary["dtm_thresholds"]) == {"0.1", "0.05"}
        assert summary["warnings"] == ["few-exceedances"]
        assert (outdir / "scan_series.csv").exists()

    def test_failed_scan_fit_leaves_no_artifact(self, tmp_path):
        # the series has 5 exceedances above its cutoff, so the fit refuses
        # it; like changepoint and bandit, a failed run writes no file
        spec = {"N": 30, "p0": 0.1, "k": 5, "n_subgraphs": 400, "mc_reps": 4,
                "alphas": [0.1, 0.02]}
        out = tmp_path / "error.json"
        outdir = tmp_path / "scanrun"
        code = main(["app", "scan", "--spec", json.dumps(spec), "--outdir", str(outdir),
                     "--seed", "6", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["error"]["code"] == "too-few-exceedances"
        assert not outdir.exists()

    def test_scan_manifest_replays_the_run(self, tmp_path):
        # the manifest records the spec as given, run keys included, so it
        # alone reruns the harness; its seed wins over another --seed
        spec = {"N": 40, "p0": 0.1, "k": 6, "n_subgraphs": 800, "mc_reps": 4,
                "alphas": [0.1, 0.02]}
        summaries = []
        for source, seed in ((spec, "6"), (None, "9")):
            outdir = tmp_path / f"run{seed}"
            source = source or summaries[0]["manifest"]["config"]
            assert main(["app", "scan", "--spec", json.dumps(source), "--outdir", str(outdir),
                         "--seed", seed]) in (0, 1)
            summaries.append(json.loads((outdir / "summary.json").read_text()))
        assert summaries[0]["manifest"]["config"] == {**spec, "seed": 6}
        first, second = ({k: v for k, v in s.items() if k != "manifest"} for s in summaries)
        assert first == second

    def test_scan_mc_threshold_nearest_rank(self, tmp_path, monkeypatch):
        # distinct maxima 799 + seed/1e5 per replicate, so each rank has its own value
        monkeypatch.setattr(cli, "scan_series", lambda spec, n: (
            make_rng(spec.seed).permutation(n) + spec.seed / 1e5))
        spec = {"N": 40, "p0": 0.1, "k": 6, "n_subgraphs": 800,
                "mc_reps": 100, "alphas": [0.41]}
        spec_path = tmp_path / "scan.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "scanrun"
        code = main(["app", "scan", "--spec", str(spec_path),
                     "--outdir", str(outdir), "--seed", "6"])
        assert code == 1
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["warnings"] == ["boundary-shape"]
        maxima = sorted(799 + (6 + 20_000 + j) / 1e5 for j in range(100))
        # (1 - 0.41) * 100 evaluates just above 59; the nearest rank is 59
        assert summary["mc_thresholds"]["0.41"] == maxima[58]

    def test_scan_fits_once_for_every_level(self, tmp_path, monkeypatch):
        # one fit gives the thresholds that a run per level would
        def scan(spec, n):
            return make_rng(spec.seed).permutation(n) + spec.seed / 1e5

        runs = []

        def counting_run_dtm(series, cfg):
            runs.append(cfg.alpha)
            return run_dtm(series, cfg)

        monkeypatch.setattr(cli, "scan_series", scan)
        monkeypatch.setattr(cli, "run_dtm", counting_run_dtm)
        alphas = [0.1, 0.05, 0.03, 0.01]
        spec = {"N": 40, "p0": 0.1, "k": 6, "n_subgraphs": 800,
                "mc_reps": 10, "alphas": alphas}
        outdir = tmp_path / "scanrun"
        main(["app", "scan", "--spec", json.dumps(spec), "--outdir", str(outdir), "--seed", "6"])
        summary = json.loads((outdir / "summary.json").read_text())
        series = scan(cli.ErGraphSpec(N=40, p0=0.1, k=6, seed=6), 800)
        assert runs == [0.01]
        assert summary["dtm_thresholds"] == {
            str(a): run_dtm(series, DtmConfig(alpha=a, cutoff_quantile=0.95, seed=7)).threshold
            for a in alphas}

    def test_changepoint_artifacts(self, tmp_path):
        spec = {"block_size": 8, "n_nodes": 20, "p_pre": 0.3, "p_post": 0.6,
                "change_time": 300, "horizon": 340, "train_len": 260,
                "bootstrap_reps": 2, "arl": 1000}
        spec_path = tmp_path / "cp.json"
        spec_path.write_text(json.dumps(spec))
        outdir = tmp_path / "cprun"
        code = main(["app", "changepoint", "--spec", str(spec_path),
                     "--outdir", str(outdir), "--seed", "7"])
        assert code == 1
        summary = json.loads((outdir / "summary.json").read_text())
        assert "stopping_time" in summary and "threshold" in summary
        assert summary["warnings"] == ["few-exceedances"]
        assert (outdir / "changepoint_stream.csv").exists()
        assert summary["manifest"]["config"] == {**spec, "seed": 7}  # arl included
