"""Command-line behavior: formats, exit codes, and determinism."""
from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ivrobust import cli
from ivrobust._util import _cell
from ivrobust.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main
from ivrobust.summary_data import read_csv
from ivrobust.wls import ivw

CSV_TEXT = (
    "id,beta_x,se_x,beta_y,se_y\n"
    "rs1,0.12,0.011,0.015,0.05\n"
    "rs2,0.2,0.012,0.022,0.045\n"
    "rs3,0.28,0.014,0.031,0.055\n"
    "rs4,0.09,0.01,0.004,0.04\n"
    "rs5,0.17,0.013,0.02,0.05\n"
)


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(CSV_TEXT)
    return str(path)


class TestAnalyze:
    def test_json_matches_direct_ivw(self, csv_path, capsys):
        code = main(["analyze", csv_path, "--methods", "ivw", "--seed", "4",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 4
        assert payload["diagnostics"]["n_variants"] == 5
        (row,) = payload["estimates"]
        direct = ivw(read_csv(csv_path))
        assert row["method"] == "ivw"
        assert row["theta"] == pytest.approx(direct.theta, rel=1e-14)
        assert row["se"] == pytest.approx(direct.se, rel=1e-14)
        assert row["ci_low"] == pytest.approx(direct.ci_low, rel=1e-12)

    def test_json_deterministic_for_seed(self, csv_path, capsys):
        argv = ["analyze", csv_path, "--seed", "9", "--format", "json",
                "--bootstrap-draws", "100"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, csv_path, capsys):
        code = main(["analyze", csv_path, "--format", "csv",
                     "--bootstrap-draws", "50", "--seed", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,theta,se,ci_low,ci_high,p_value")
        assert len(lines) == 12  # header + one row per method

    def test_table_format_with_diagnostics(self, csv_path, capsys):
        code = main(["analyze", csv_path, "--methods", "ivw,egger",
                     "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "method" in out
        assert "ivw" in out and "egger" in out
        assert "I^2" in out

    def test_generated_seed_echoed(self, csv_path, capsys):
        code = main(["analyze", csv_path, "--methods", "ivw"])
        assert code == EXIT_OK
        assert "seed:" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,x,0.05\n")
        code = main(["analyze", str(bad)])
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_overlong_field_exit_code(self, tmp_path, capsys):
        # a field past csv.field_size_limit() is a parse error, not a traceback
        long = tmp_path / "long.csv"
        long.write_text("id,beta_x,se_x,beta_y,se_y\n" + "r" * 200_000 + ",0.1,0.01,0.02,0.05\n")
        code = main(["analyze", str(long)])
        assert code == EXIT_PARSE
        assert "row 2: field larger than field limit" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "absent.csv")])
        assert code == EXIT_PARSE

    def test_precondition_exit_code(self, tmp_path, capsys):
        two = tmp_path / "two.csv"
        two.write_text(
            "id,beta_x,se_x,beta_y,se_y\n"
            "rs1,0.1,0.01,0.01,0.05\n"
            "rs2,0.2,0.01,0.02,0.05\n"
        )
        code = main(["analyze", str(two), "--methods", "egger"])
        assert code == EXIT_PRECONDITION
        assert "error:" in capsys.readouterr().err

    def test_json_lists_estimate_warnings(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("id,beta_x,se_x,beta_y,se_y\nrs1,0.1,0.01,0.01,0.05\n")
        code = main(["analyze", str(one), "--methods", "ivw", "--seed", "1",
                     "--format", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["estimates"]
        assert row["warnings"] == [
            "single variant: residual scale undefined, fixed-effects fallback"]

    def test_json_warnings_empty_list_by_default(self, csv_path, capsys):
        assert main(["analyze", csv_path, "--methods", "ivw,egger", "--seed", "1",
                     "--format", "json"]) == EXIT_OK
        for row in json.loads(capsys.readouterr().out)["estimates"]:
            assert row["warnings"] == []

    def test_csv_columns_unchanged(self, csv_path, capsys):
        assert main(["analyze", csv_path, "--methods", "ivw", "--seed", "1",
                     "--format", "csv"]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("method,theta,se,ci_low,ci_high,p_value,intercept,"
                          "intercept_se,intercept_p,residual_scale,effects_model")

    def test_zero_penalized_weights_exit_code(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(
            "id,beta_x,se_x,beta_y,se_y\n"
            "v1,0.1,0.01,1.0,0.0001\n"
            "v2,0.1,0.01,-1.0,0.0001\n"
            "v3,0.2,0.01,0.5,0.0001\n"
        )
        code = main(["analyze", str(path), "--methods", "penalized_ivw", "--seed", "1"])
        assert code == EXIT_PRECONDITION
        assert "strictly positive weight" in capsys.readouterr().err

    def test_overflowing_ratio_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "id,beta_x,se_x,beta_y,se_y\n"
            "v1,1e-310,0.01,1.0,0.05\n"
            "v2,0.1,0.01,0.01,0.05\n"
            "v3,0.2,0.01,0.02,0.05\n"
        )
        code = main(["analyze", str(path), "--methods", "ivw,weighted_median", "--seed", "1"])
        assert code == EXIT_PRECONDITION
        assert "ratio estimate overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("rows, absent, reason", [
        # a zero beta_x has no ratio estimate, so Cochran's Q is undefined
        (["v1,0.0,0.01,0.01,0.05", "v2,0.1,0.01,0.012,0.05", "v3,0.2,0.01,0.019,0.05"],
         "q_statistic", "Q unavailable: variant 'v1' has a zero exposure association"),
        # (se_y / se_x)^2 overflows, so I^2 is undefined
        (["v1,0.1,1e-300,0.01,0.05", "v2,0.2,1e-300,0.02,0.05"],
         "i_squared", "I^2 unavailable: instrument strength: precisions"),
    ])
    def test_failing_diagnostic_reported_absent(self, tmp_path, capsys, fmt, rows, absent,
                                                reason):
        path = tmp_path / "set.csv"
        path.write_text("\n".join(["id,beta_x,se_x,beta_y,se_y", *rows]) + "\n")
        code = main(["analyze", str(path), "--methods", "ivw", "--seed", "1", "--format", fmt])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "json":
            diagnostics = json.loads(out)["diagnostics"]
            assert diagnostics[absent] is None
            assert len(diagnostics["warnings"]) == 1
            assert diagnostics["warnings"][0].startswith(reason)
        elif fmt == "table":
            summary = out[out.index("variants:"):]
            label = "I^2 (instrument strength): NA" if absent == "i_squared" else "Q: NA"
            assert label in summary
            assert reason in summary
        else:
            assert out.splitlines()[1].startswith("ivw,")

    def test_diagnostics_warnings_empty_by_default(self, csv_path, capsys):
        assert main(["analyze", csv_path, "--methods", "ivw", "--seed", "1",
                     "--format", "json"]) == EXIT_OK
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["warnings"] == []
        assert diagnostics["q_statistic"] > 0.0 and 0.0 <= diagnostics["i_squared"] <= 1.0

    OVERFLOWING_Q = ["v1,0.1,0.01,1e200,1e-10", "v2,0.2,0.01,-1e200,1e-10",
                     "v3,0.3,0.01,2e200,1e-10", "v4,0.15,0.01,-2e200,1e-10"]

    def test_json_is_strict_when_q_and_scale_overflow(self, tmp_path, capsys):
        # Q and the residual scale overflow to inf, and Q's p-value is NaN
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["id,beta_x,se_x,beta_y,se_y", *self.OVERFLOWING_Q]) + "\n")
        assert main(["analyze", str(path), "--methods", "ivw,egger", "--seed", "1",
                     "--format", "json"]) == EXIT_OK

        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        diagnostics = payload["diagnostics"]
        assert diagnostics["q_statistic"] is None and diagnostics["q_p_value"] is None
        assert diagnostics["warnings"] == ["Q unavailable: the statistic overflows"]
        assert [row["residual_scale"] for row in payload["estimates"]] == [None, None]
        assert payload["estimates"][1]["intercept"] == pytest.approx(-1.714285714285713e200)

    def test_table_reports_overflowing_q_unavailable(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["id,beta_x,se_x,beta_y,se_y", *self.OVERFLOWING_Q]) + "\n")
        assert main(["analyze", str(path), "--methods", "ivw", "--seed", "1"]) == EXIT_OK
        summary = capsys.readouterr().out.split("variants:")[1]
        assert "Q: NA" in summary and "Q unavailable: the statistic overflows" in summary
        assert "inf" not in summary and "nan" not in summary

    def test_table_columns_hold_huge_estimates(self, tmp_path, capsys):
        # a finite theta of 1.2e200 printed as a 201-digit number and broke the table
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["id,beta_x,se_x,beta_y,se_y", *self.OVERFLOWING_Q]) + "\n")
        assert main(["analyze", str(path), "--methods", "ivw,egger", "--seed", "1"]) == EXIT_OK
        header, rule, ivw_row, egger_row = capsys.readouterr().out.splitlines()[:4]
        assert len(ivw_row) == len(egger_row) == len(header) == len(rule)
        assert ivw_row.split() == ["ivw", "1.23e+200", "NA", "NA", "NA"]
        # egger has an intercept: its absent p-value is NA, where ivw's cells are blank
        assert egger_row.split() == ["egger", "9.14e+200", "NA", "NA", "NA", "-1.71e+200", "NA"]

    def test_csv_leaves_non_finite_values_empty(self, tmp_path, capsys):
        # the residual scale overflows; CSV wrote inf where JSON writes null
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(["id,beta_x,se_x,beta_y,se_y", *self.OVERFLOWING_Q]) + "\n")
        assert main(["analyze", str(path), "--methods", "ivw,egger", "--seed", "1",
                     "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["residual_scale"] for row in rows] == ["", ""]
        assert float(rows[1]["intercept"]) == pytest.approx(-1.714285714285713e200)
        assert "inf" not in out and "nan" not in out

    def test_unknown_method_rejected_by_parser(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", csv_path, "--methods", "ivw,mode"])
        assert exc.value.code == 2

    def test_empty_method_list_rejected_by_parser(self, csv_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", csv_path, "--methods", ","])
        assert exc.value.code == EXIT_PARSE
        assert "argument --methods: no methods given" in capsys.readouterr().err


@pytest.mark.parametrize("value, width, spec, text", [
    (0.13155752, 9, ".4f", "   0.1316"),
    (0.0476, 9, ".3g", "   0.0476"),
    (None, 8, ".4f", "      NA"),
    (math.nan, 9, ".4f", "       NA"),
    (-math.inf, 20, ".4f", " " * 18 + "NA"),
    (12345.6789, 9, ".4f", "12345.679"),
    (-1.714285714285713e200, 10, ".4f", "-1.71e+200"),
    (-1.714285714285713e200, 8, ".4f", " -2e+200"),
    (-1.7976931348623157e308, 8, ".4f", "-2e+308"),
])
def test_table_cell(value, width, spec, text):
    assert _cell(value, width, spec) == text.rjust(width)


@pytest.mark.parametrize("command", [["analyze", "set.csv"], ["simulate", "--scenario", "1"]])
@pytest.mark.parametrize("seed, message", [
    ("-1", "argument --seed: must be a non-negative integer, got -1"),
    ("x", "argument --seed: invalid int value: 'x'"),
])
def test_bad_seed_rejected_by_parser(command, seed, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", seed])
    assert exc.value.code == EXIT_PARSE
    assert message in capsys.readouterr().err


class TestSimulate:
    def test_smoke_run_with_csv_out(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "simulate", "--scenario", "3", "--prop-invalid", "0.3",
            "--n", "600", "--j", "5", "--n-sim", "2", "--seed", "17",
            "--methods", "ivw,egger,simple_median", "--bootstrap-draws", "40",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "scenario 3" in captured.out
        assert "simple_median" in captured.out
        assert f"report written to {out}" in captured.err
        lines = out.read_text().splitlines()
        assert lines[0] == "name,mean,sd,mean_se,power_pct,na_count"
        assert lines[1].startswith("ivw,")

    def test_scenario1_with_invalid_proportion_rejected(self, capsys):
        code = main(["simulate", "--scenario", "1", "--prop-invalid", "0.3",
                     "--n", "600", "--j", "5", "--n-sim", "1"])
        assert code == EXIT_PARSE
        assert "scenario 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--theta", "1e200"], ["--theta", "1e200", "--one-sample"]])
    def test_theta_the_error_model_cannot_hold_exit_code(self, extra, capsys):
        code = main(["simulate", "--scenario", "1", "--n", "200", "--j", "3", "--n-sim", "2",
                     "--methods", "ivw", *extra])
        assert code == EXIT_PARSE
        assert "theta" in capsys.readouterr().err

    def test_theta_whose_sums_of_squares_overflow_exit_code(self, capsys):
        code = main(["simulate", "--scenario", "1", "--theta", "1e153", "--n", "2000",
                     "--n-sim", "1", "--methods", "ivw"])
        assert code == EXIT_PARSE
        assert "theta = 1e+153" in capsys.readouterr().err

    def test_sample_size_too_large_for_a_float_exit_code(self, capsys, monkeypatch):
        # n = 2 * 10^300 passed every check and the run drew genotype blocks without end
        def run(*args, **kwargs):
            raise AssertionError("a study started at an n no run can finish")

        monkeypatch.setattr(cli, "run_study", run)
        for n in ("1" + "0" * 310, str(2 * 10 ** 300)):
            assert main(["simulate", "--scenario", "1", "--n", n]) == EXIT_PARSE
            assert f"n = {n} too large" in capsys.readouterr().err

    def test_one_sample_flag(self, capsys):
        code = main(["simulate", "--scenario", "1", "--n", "301", "--j", "4",
                     "--n-sim", "1", "--seed", "3", "--methods", "ivw",
                     "--one-sample"])
        assert code == EXIT_OK
        assert "design=one_sample" in capsys.readouterr().out

    def test_failed_method_row_is_na(self, capsys):
        # at J = 2 egger fails in every replicate: mean and SD printed nan, mean SE NA
        assert main(["simulate", "--scenario", "1", "--n", "600", "--j", "2", "--n-sim", "3",
                     "--methods", "ivw,egger"]) == EXIT_OK
        out = capsys.readouterr().out
        (egger_row,) = [line for line in out.splitlines() if line.startswith("egger  ")]
        assert egger_row.split() == ["egger", "NA", "NA", "NA", "0.0", "3"]
        assert "nan" not in out

    def test_threads_flag_matches_serial(self, capsys):
        argv = ["simulate", "--scenario", "2", "--prop-invalid", "0.3",
                "--n", "700", "--j", "4", "--n-sim", "4", "--seed", "23",
                "--methods", "ivw,weighted_median", "--bootstrap-draws", "40"]
        assert main(argv) == EXIT_OK
        serial = capsys.readouterr().out
        assert main(argv + ["--threads", "2"]) == EXIT_OK
        parallel = capsys.readouterr().out
        assert serial == parallel


def test_console_entry_point_installed():
    result = subprocess.run(
        [sys.executable, "-m", "ivrobust.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "analyze" in result.stdout and "simulate" in result.stdout
