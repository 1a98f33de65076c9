"""Command-line behavior: formats, exit codes, and determinism."""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_unknown_method_rejected_by_parser(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", csv_path, "--methods", "ivw,mode"])
        assert exc.value.code == 2


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

    def test_one_sample_flag(self, capsys):
        code = main(["simulate", "--scenario", "1", "--n", "301", "--j", "4",
                     "--n-sim", "1", "--seed", "3", "--methods", "ivw",
                     "--one-sample"])
        assert code == EXIT_OK
        assert "design=one_sample" in capsys.readouterr().out

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
