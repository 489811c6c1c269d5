"""End-to-end command-line checks: exit codes, file layout, summary keys."""

import numpy as np
import pytest

from su12sim.cli import main


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def test_lie_verify_passes(tmp_path, capsys):
    rc = main(["lie-verify", "--set", "trials=500", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lie-verify: PASS" in out
    assert out.count("FAIL") == 0


def test_sensitivity_default_summary(tmp_path):
    rc = main(["sensitivity", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert s["status"] == "OK"
    assert np.isclose(float(s["delta_phi"]), 0.017391189997055346, rtol=1e-12)
    assert s["orders"] == "(2, 1)"
    # matched balanced gains also report the closed-form companions
    assert "bright_pair_closed_form" in s
    assert "two_mode_benchmark" in s


def test_sensitivity_divergent_still_exit_zero(tmp_path):
    rc = main([
        "sensitivity", "--set", "port=1", "--set", "alpha_abs=0.5",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert s["status"] == "DIVERGENT"
    assert s["delta_phi"] == "inf"


def test_weak_bright_port_input_is_divergent_not_a_guard(tmp_path):
    rc = main([
        "sensitivity", "--set", "port=1", "--set", "alpha_abs=0.01",
        "--set", "beta1=3.3", "--set", "beta2=3.3",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert s["status"] == "DIVERGENT"
    assert s["orders"] == "(0, 1)"


@pytest.mark.parametrize("command", ["lie-verify", "oracle-check"])
@pytest.mark.parametrize("trials", [0, -5])
def test_no_trials_is_usage_error(tmp_path, capsys, command, trials):
    rc = main([command, "--set", f"trials={trials}", "--out", str(tmp_path)])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sensitivity", "optimize"])
@pytest.mark.parametrize("phase_index", [0, 4])
def test_phase_index_out_of_range_is_usage_error(tmp_path, capsys, command,
                                                 phase_index):
    rc = main([command, "--set", f"phase_index={phase_index}",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "phase_index" in capsys.readouterr().err


@pytest.mark.parametrize("fixed_zero", [-1, 4])
def test_fixed_zero_out_of_range_is_usage_error(tmp_path, capsys, fixed_zero):
    rc = main(["optimize", "--set", f"fixed_zero={fixed_zero}",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "fixed_zero" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rounds=4", "points=31"])
@pytest.mark.parametrize("command", [["optimize"], ["figure", "6"]],
                         ids=["optimize", "figure6"])
def test_removed_search_keys_are_usage_errors(tmp_path, capsys, command, key):
    rc = main([*command, "--set", key, "--out", str(tmp_path)])
    assert rc == 2
    assert key.split("=")[0] in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    rc = main(["sensitivity", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    rc = main([
        "sensitivity", "--config", str(tmp_path / "nope.cfg"),
        "--out", str(tmp_path),
    ])
    assert rc == 2


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta1 = 2.5\nbeta2 = 4.0  # partner gain\n")
    rc = main([
        "sensitivity", "--config", str(cfg), "--set", "beta2=3.5",
        "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert float(s["beta1"]) == 2.5
    assert float(s["beta2"]) == 3.5  # --set beats the file


def test_optimize_reports_minimum(tmp_path):
    rc = main(["optimize", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert s["limit_status"] == "ok"
    assert float(s["value"]) < 0.017
    assert s["evaluations"] == "1"
    assert "final_step" not in s


def test_figure3_csv_layout(tmp_path):
    rc = main([
        "figure", "3", "--set", "points=11", "--out", str(tmp_path),
        "--no-timestamp",
    ])
    assert rc == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "phi2,phi3,dphi1"
    assert lines[0] == "# command: figure 3"
    rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(rows) == 121
    s = read_summary(tmp_path / "summary.txt")
    assert float(s["min_phi2"]) == 0.0
    assert float(s["min_phi3"]) == 0.0


def test_figure3_rejects_zero_gain(tmp_path):
    rc = main([
        "figure", "3", "--set", "beta1=0", "--set", "beta2=0",
        "--out", str(tmp_path),
    ])
    assert rc == 2


def test_figure5_slope_band(tmp_path):
    rc = main([
        "figure", "5", "--set", "points=6", "--out", str(tmp_path),
        "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert -1.1 < float(s["slope_dphi1"]) < -0.9
    assert -1.1 < float(s["slope_dphi3"]) < -0.9


def test_figure8_rejects_unknown_panel(tmp_path):
    rc = main(["figure", "8", "--set", "panel=z", "--out", str(tmp_path)])
    assert rc == 2


def test_figure8_panel_c_slope(tmp_path):
    rc = main([
        "figure", "8", "--set", "panel=c", "--set", "lo=2.5",
        "--set", "points=6", "--out", str(tmp_path), "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert float(s["slope_dphi1"]) < -0.9


def test_oracle_check_small(tmp_path, capsys):
    rc = main([
        "oracle-check", "--set", "trials=6", "--out", str(tmp_path),
        "--no-timestamp",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle-check: PASS" in out


def test_oracle_check_guard_exit(tmp_path, capsys):
    rc = main([
        "oracle-check", "--set", "beta_max=2", "--out", str(tmp_path),
    ])
    assert rc == 3
    assert "guard:" in capsys.readouterr().err


def test_timestamp_lines_off_and_on(tmp_path):
    main(["figure", "3", "--set", "points=5", "--out", str(tmp_path / "a"),
          "--no-timestamp"])
    main(["figure", "3", "--set", "points=5", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "fig3.csv").read_text()
    b = (tmp_path / "b" / "fig3.csv").read_text()
    assert "# generated:" not in a
    assert "# generated:" in b
