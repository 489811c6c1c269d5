"""End-to-end command-line checks: exit codes, file layout, summary keys."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import su12sim
from su12sim.cli import _device_configs, main


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def test_lie_verify_passes(tmp_path, capsys):
    """The default sweep checks 10,000 device transforms for membership of
    U(1,2) and for the central phase in their determinant."""
    rc = main(["lie-verify", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert rc == 0
    assert out.count("FAIL") == 0
    assert lines[0].startswith("PASS membership of 10000 device transforms (worst defect ")
    assert lines[1].startswith("PASS det = exp(i(phi1 - phi2 - phi3)) on 10000 device transforms")
    assert lines[-1] == "lie-verify: PASS (33 checks, 0 failed)"


def test_lie_verify_at_zero_tolerance_fails(tmp_path, capsys):
    # rounding leaves every device transform a nonzero defect
    rc = main(["lie-verify", "--set", "tol=0", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0].startswith("FAIL membership") and lines[1].startswith("FAIL det")
    assert lines[-1] == "lie-verify: FAIL (33 checks, 2 failed)"


def test_device_stacks_do_not_depend_on_the_split():
    """lie-verify draws its devices in stacks of 500; one (n, 11) uniform
    draw per stack makes the devices, and their transforms, the same bits
    however the stream is split."""
    whole = _device_configs(np.random.default_rng(7), 1200)
    for sizes in ((500, 500, 200), (1, 699, 500), (300,) * 4):
        rng = np.random.default_rng(7)
        parts = [_device_configs(rng, n) for n in sizes]
        for field in ("beta1", "theta4", "phi3"):
            joined = np.concatenate([getattr(p, field) for p in parts])
            assert np.array_equal(joined, getattr(whole, field))
        joined = np.concatenate([p.total_matrix() for p in parts])
        assert np.array_equal(joined.view(np.uint64), whole.total_matrix().view(np.uint64))


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


@pytest.mark.filterwarnings("error")
def test_sensitivity_at_zero_gain_warns_of_nothing(tmp_path, capsys):
    """The bright-pair closed form reads 0/0 at zero gain: nan, silently."""
    rc = main(["sensitivity", "--set", "beta1=0", "--set", "beta2=0",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    s = read_summary(tmp_path / "summary.txt")
    assert s["bright_pair_closed_form"] == "nan"
    assert s["high_gain_asymptote"] == "2"


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


@pytest.mark.parametrize("figure,key", [
    ("3", "points"), ("4", "points"), ("5", "points"), ("8", "points"),
    *((n, k) for n in ("6", "7") for k in ("beta2_points", "alpha_points")),
])
@pytest.mark.parametrize("value", [0, -3])
def test_empty_grid_is_usage_error(tmp_path, capsys, figure, key, value):
    rc = main(["figure", figure, "--set", f"{key}={value}", "--out", str(tmp_path)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / f"fig{figure}.csv").exists()


_SEARCH_COMMANDS = {"optimize": ["optimize"], "figure4": ["figure", "4"],
                    "figure6": ["figure", "6"], "figure7": ["figure", "7"]}


@pytest.mark.parametrize("command,key", [
    *(pytest.param(_SEARCH_COMMANDS[c], k, id=f"{c}-{k}")
      for c in ("optimize", "figure6") for k in ("rounds=4", "points=31")),
    *(pytest.param(_SEARCH_COMMANDS[c], "epsilon=1e-3", id=f"{c}-epsilon=1e-3")
      for c in ("optimize", "figure4", "figure6", "figure7")),
])
def test_removed_search_keys_are_usage_errors(tmp_path, capsys, command, key):
    rc = main([*command, "--set", key, "--out", str(tmp_path)])
    assert rc == 2
    assert key.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    (["figure", "6"], "beta1=abc"),
    (["figure", "7"], "beta1=x"),
    (["figure", "5"], "sweep=bogus"),
    (["oracle-check"], "cutoff=1"),
    (["optimize"], "beta1=nan"),
    (["figure", "6"], "alpha_hi=inf"),
    (["figure", "6"], "beta1=nan"),
    (["figure", "7"], "beta1=inf"),
    (["oracle-check"], "beta_max=nan"),
    (["figure", "4"], "lo=inf"),
    (["figure", "3"], "phi1=nan"),
    (["figure", "5"], "partner=nan"),
])
def test_bad_parameter_value_is_usage_error(tmp_path, capsys, command, key):
    rc = main([*command, "--set", key, "--out", str(tmp_path)])
    assert rc == 2
    assert key.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize("command,key", [
    (["optimize"], "beta1=1000"),
    (["sensitivity"], "beta1=800"),
])
def test_overflowing_single_point_is_a_guard(tmp_path, capsys, command, key):
    """Finite inputs whose moments overflow leave no finite cell: a guard,
    not a divergent limit, a traceback or a check failure."""
    rc = main([*command, "--set", key, "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("guard:")


def _csv_rows(path):
    return np.array([[float(x) for x in line.split(",")]
                     for line in path.read_text().splitlines()[1:]
                     if not line.startswith("#") and line[0] not in "abcdefghijklmnopqrstuvwxyz"])


def test_overflowing_scaling_cells_read_nan(tmp_path):
    """Cells whose moments overflow read nan, never inf (divergent); the
    cells below the overflow keep their values."""
    rc = main(["figure", "5", "--set", "hi=900", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    beta, n, *dphi, heisenberg = _csv_rows(tmp_path / "fig5.csv").T
    # the variance series, ~n^2, overflows from beta ~ 355, n itself from ~ 710
    assert np.isfinite([n, *dphi, heisenberg])[:, beta < 300].all()
    assert np.isnan(dphi)[:, beta > 355].all()
    assert np.isnan([n, heisenberg])[:, beta > 710].all()


def test_overflowing_ratio_cells_read_nan(tmp_path):
    """The optimal ratio of a cell whose moments overflow is nan; it does not
    reach the pseudo-inverse, which fails on non-finite matrices."""
    rc = main(["figure", "6", "--set", "alpha_hi=1e200", "--out", str(tmp_path),
               "--no-timestamp"])
    assert rc == 0
    rows = _csv_rows(tmp_path / "fig6.csv")
    overflow = rows[:, 1] > 1e160
    assert overflow.any() and not overflow.all()
    assert np.isnan(rows[overflow, 2]).all()
    assert not np.isinf(rows[:, 2]).any()
    assert np.isfinite(rows[rows[:, 1] == 0.0, 2]).all()


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
    assert "limit_delta_phi" not in s  # the value is the zero-phase limit


def test_optimize_bright_port3_is_finite(tmp_path):
    rc = main(["optimize", "--set", "port=3", "--set", "alpha_abs=2",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert s["limit_status"] == "ok"
    assert s["w3"] == "0"
    assert np.isclose(float(s["value"]), 0.012073300910583711, rtol=1e-12)


def test_optimize_one_free_weight_writes_no_empty_value(tmp_path, capsys):
    # lit port 3 and pinned port 1 leave only w2, so there is no ratio
    rc = main(["optimize", "--set", "port=3", "--set", "alpha_abs=2",
               "--set", "fixed_zero=1", "--out", str(tmp_path), "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert all(s.values()), s
    assert "point" not in s
    assert all(line.partition(" = ")[2] for line in out.splitlines()), out
    assert (s["w1"], s["w2"], s["w3"]) == ("0", "1", "0")


# Fresh interpreters, so that modules the test suite imported do not count.
_NO_SCIPY_PROGRAMS = {
    "import": "import su12sim.cli",
    "oracle-check-lie-verify": (
        "import su12sim.cli\n"
        "assert su12sim.cli.main(['oracle-check', '--set', 'trials=2',"
        " '--out', OUT, '--no-timestamp']) == 0\n"
        "assert su12sim.cli.main(['lie-verify', '--out', OUT]) == 0"
    ),
}


@pytest.mark.parametrize("program", _NO_SCIPY_PROGRAMS)
def test_runtime_loads_no_scipy(tmp_path, program):
    src = str(Path(su12sim.__file__).resolve().parent.parent)
    code = (f"import json, sys\nsys.path.insert(0, {src!r})\nOUT = {str(tmp_path)!r}\n"
            f"{_NO_SCIPY_PROGRAMS[program]}\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_import_leaves_lie_and_oracle_unloaded():
    # a fresh interpreter: lie and fock_oracle load only in the handlers of
    # lie-verify and oracle-check
    src = str(Path(su12sim.__file__).resolve().parent.parent)
    code = (f"import json, sys\nsys.path.insert(0, {src!r})\nimport su12sim.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('su12sim.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "su12sim.cli" in loaded
    assert "su12sim.lie" not in loaded and "su12sim.fock_oracle" not in loaded


def test_figure4_argmin_is_first_cell_of_the_tie(tmp_path):
    # the 60 finite cells on t = r tie at the vacuum optimum; row-major
    # order puts (-3, -3) first
    rc = main(["figure", "4", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert (s["argmin_t_over_s"], s["argmin_r_over_s"]) == ("-3", "-3")
    assert np.isclose(float(s["argmin_dphi1"]), 0.01660074201380737, rtol=1e-12)


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


# sha256 of the default `figure 3 --no-timestamp` fig3.csv, recorded when the
# photocount moments came from the closed form on the slots (rank-one output
# noise) and the slope from the rank-one derivative of the phase stage; the
# cells' values are checked against high-precision references in
# tests/test_optimizer.py
FIG3_DEFAULT_SHA256 = "5490c8b45515b4e66652705d0d7151b27f6dc5939316afa747e989a66257cf8d"


def test_figure3_default_csv_bytes_are_pinned(tmp_path):
    rc = main(["figure", "3", "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    data = (tmp_path / "fig3.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIG3_DEFAULT_SHA256


# sha256 of the default `--no-timestamp` CSVs of the zero-phase figures,
# recorded while their sweeps still made one scalar call per sample; the
# gain-stacked calls that replaced the loops reproduce them byte for byte.
# Figure 4 was recorded from the slot closed form, whose rounding moves some
# of its cells (checked against high-precision references in
# tests/test_optimizer.py).  Figures 6, 7 and 8b-d were recorded from the
# echo form of the zero-phase series (exact pump phase pi); the cells it
# moves are checked against tests/mp_reference.py in tests/test_optimizer.py.
FIGURE_DEFAULT_SHA256 = {
    ("4", None): "bec3167e153edc37ac17bac773f795332b50608ba7aec5d8408175015aadce83",
    ("5", None): "b83ed0f7e5be2e1fe63e71513d782df277a5095193158625de16af3632e3c2d7",
    ("8", "a"): "1de52e9e6ccc2d6766da5461954af12e5ecf1a44071c86f204f1ae238f3f054e",
    ("8", "b"): "6eba1d4a60c51a180f4a702df86fc9158dcad52da155e8854fa87310468c1dc9",
    ("8", "c"): "950ea58c92d3824036438e345a7690d9846f961b7190068df2102a5afcb59a9d",
    ("8", "d"): "ff3a1b0859d847ce74bb051a089b092dad56e602606aa8e7bfa11a00f7b3acf4",
    ("6", None): "65e574f93be0fc422201798c023eaf7fe0b26dd47df3281bebfad0797e189baf",
    ("7", None): "77b8bb3539a8168552bbd05b062eb434483fe7bad49ef8ac701a9ccbe53f2cb3",
}


@pytest.mark.parametrize("figure,panel", list(FIGURE_DEFAULT_SHA256))
def test_zero_phase_figure_default_csv_bytes_are_pinned(tmp_path, figure, panel):
    extra = ["--set", f"panel={panel}"] if panel else []
    rc = main(["figure", figure, *extra, "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    data = (tmp_path / f"fig{figure}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIGURE_DEFAULT_SHA256[figure, panel]


def test_figure3_overflow_reads_nan_not_no_signal(tmp_path):
    """At beta1 = 800 the moments overflow in every cell: each cell and the
    minima read nan, and the run still writes its table."""
    rc = main(["figure", "3", "--set", "beta1=800", "--set", "points=5",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(rows) == 25 and all(ln.endswith(",nan") for ln in rows)
    s = read_summary(tmp_path / "summary.txt")
    assert [s[k] for k in ("min_phi2", "min_phi3", "min_dphi1")] == ["nan"] * 3


@pytest.mark.filterwarnings("error")
def test_figure3_at_zero_gains_has_no_minimum(tmp_path, capsys):
    """Both gains zero carry no signal: every cell is divergent (inf), as
    sensitivity reports that cascade, and a table with no finite cell has
    no minimum, so its minima read nan."""
    rc = main(["figure", "3", "--set", "beta1=0", "--set", "beta2=0", "--set", "points=5",
               "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(rows) == 25 and all(ln.endswith(",inf") for ln in rows)
    s = read_summary(tmp_path / "summary.txt")
    assert [s[k] for k in ("min_phi2", "min_phi3", "min_dphi1")] == ["nan"] * 3


def test_figure5_slope_band(tmp_path):
    rc = main([
        "figure", "5", "--set", "points=6", "--out", str(tmp_path),
        "--no-timestamp",
    ])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert -1.1 < float(s["slope_dphi1"]) < -0.9
    assert -1.1 < float(s["slope_dphi3"]) < -0.9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,keys", [
    (["5", "--set", "lo=0", "--set", "hi=0", "--set", "points=2"],
     ("slope_dphi1", "slope_dphi3")),
    (["8", "--set", "panel=a", "--set", "lo=1", "--set", "hi=1", "--set", "points=3"],
     ("slope_dphi1",)),
])
def test_slope_of_one_photon_number_is_nan(tmp_path, argv, keys):
    """Points that share one n_total fix no slope: it reads nan, with no
    fit through them and no warning."""
    rc = main(["figure", *argv, "--out", str(tmp_path), "--no-timestamp"])
    assert rc == 0
    s = read_summary(tmp_path / "summary.txt")
    assert [s[k] for k in keys] == ["nan"] * len(keys)


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


# Every in-process run below, in order: exit code, stdout, stderr and every
# file it writes, with the output directory replaced by "<out>".  The cases
# cover each subcommand, its check failures and guard exits, figures 3-8 on
# small grids, the usage errors, an argparse error and the help texts (at a
# fixed terminal width).
_BYTE_CASES = [
    ["lie-verify", "--set", "trials=20"],
    ["lie-verify", "--set", "trials=20", "--set", "tol=0"],
    ["sensitivity"],
    ["sensitivity", "--set", "port=1", "--set", "alpha_abs=0.5"],
    ["sensitivity", "--set", "port=3", "--set", "alpha_abs=2", "--set", "phase_index=3"],
    ["sensitivity", "--set", "beta1=2"],
    ["sensitivity", "--set", "beta1=800"],
    ["optimize"],
    ["optimize", "--set", "port=3", "--set", "alpha_abs=2"],
    ["optimize", "--set", "port=3", "--set", "alpha_abs=2", "--set", "fixed_zero=1"],
    ["optimize", "--set", "fixed_zero=2"],
    ["oracle-check", "--set", "trials=2", "--set", "cutoff=8"],
    ["oracle-check", "--set", "trials=2", "--set", "beta_max=2"],
    ["figure", "3", "--set", "points=5"],
    ["figure", "4", "--set", "points=5"],
    ["figure", "5", "--set", "points=4"],
    ["figure", "5", "--set", "points=3", "--set", "sweep=diagonal"],
    ["figure", "6", "--set", "beta2_points=3", "--set", "alpha_points=3"],
    ["figure", "7", "--set", "beta1=2", "--set", "beta2_points=3", "--set", "alpha_points=3"],
    *(["figure", "8", "--set", f"panel={p}", "--set", "points=3"] for p in "abcd"),
    ["sensitivity", "--set", "bogus=1"],
    ["lie-verify", "--set", "trials=0"],
    ["sensitivity", "--set", "w1=0", "--set", "w3=0"],
    ["figure", "8", "--set", "panel=z"],
    ["figure", "6", "--set", "beta1=abc"],
    ["figure", "3", "--set", "beta1=0", "--set", "beta2=0"],
    ["no-such-command"],
    ["--help"],
    *([name, "--help"] for name in
      ("lie-verify", "sensitivity", "optimize", "figure", "oracle-check")),
]

# re-recorded when lie-verify began to sweep device transforms and figure 3
# to tabulate zero gains; a subprocess run of every case showed that only
# the two lie-verify runs and the zero-gain figure 3 run changed
CLI_BYTES_SHA256 = "cb27bd3f21ef128323be01de3c13a9ce61356e42a43e982e08481d5d827c363d"


def test_cli_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for i, argv in enumerate(_BYTE_CASES):
        out = tmp_path / f"run{i}"
        try:
            rc = main([*argv, "--out", str(out), "--no-timestamp"])
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        captured = capsys.readouterr()
        digest.update(f"{argv}\n{rc}\n".encode())
        for text in (captured.out, captured.err):
            digest.update(text.replace(str(out), "<out>").encode() + b"\0")
        for f in sorted(out.iterdir()) if out.is_dir() else ():
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
    assert digest.hexdigest() == CLI_BYTES_SHA256
