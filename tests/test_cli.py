"""Command-line scenarios: outputs, determinism and exit codes."""

import csv
import json
import math

import pytest

from quasic.cli import main

COLUMNS = ["t", "rho_eig_hi", "rho_eig_lo", "det_rho", "lr_residual", "quasi_residual", "c_sq_residual"]


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def read_report(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def test_static_scenario_passes(tmp_path):
    code = run(tmp_path, "static", "--omega", "1", "--lambda", "2", "--kappa", "1", "--signature", "+-")
    assert code == 0
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    kinds = {ln["type"] for ln in lines}
    assert kinds == {"metadata", "check", "summary"}
    checks = {ln["name"]: ln for ln in lines if ln["type"] == "check"}
    for name in ("c_squared_identity", "pt_commutation", "h_commutation"):
        assert checks[name]["pass"] is True
    assert lines[-1]["all_pass"] is True
    rows = read_csv(tmp_path / "quasi_c_static_2_1.csv")
    assert list(rows[0].keys()) == COLUMNS
    assert float(rows[0]["rho_eig_hi"]) == pytest.approx(3.0 / math.sqrt(3.0), abs=1e-12)


def test_static_broken_regime_reports_failures(tmp_path):
    code = run(tmp_path, "static", "--lambda", "1", "--kappa", "2")
    assert code == 1
    checks = {ln["name"]: ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"}
    assert checks["pt_commutation"]["pass"] is False
    assert checks["metric_hermiticity"]["pass"] is False


def test_static_exceptional_point_numerical_failure(tmp_path):
    assert run(tmp_path, "static", "--lambda", "1", "--kappa", "1") == 3


def test_full_td_figure_degeneracies(tmp_path):
    # grid chosen so pi/2 + n*pi are exact nodes: step pi/100
    code = run(
        tmp_path,
        "full-td",
        "--drive", "sin",
        "--t0", "0",
        "--t1", str(2 * math.pi),
        "--samples", "201",
        "--steps-per-sample", "10",
    )
    assert code == 0
    rows = read_csv(tmp_path / "quasi_c_full-td_2_1.csv")
    assert len(rows) == 201
    for idx in (50, 150):  # t = pi/2, 3*pi/2
        assert float(rows[idx]["rho_eig_hi"]) == pytest.approx(1.0, abs=1e-8)
        assert float(rows[idx]["rho_eig_lo"]) == pytest.approx(1.0, abs=1e-8)
    for row in rows:
        assert float(row["rho_eig_lo"]) > 0.0
        assert float(row["det_rho"]) == pytest.approx(1.0, abs=1e-9)


def test_full_td_deterministic_output(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(["full-td", "--drive", "sin", "--t1", "3", "--samples", "40", "--out-dir", str(d)]) == 0
    a = (a_dir / "quasi_c_full-td_2_1.csv").read_bytes()
    b = (b_dir / "quasi_c_full-td_2_1.csv").read_bytes()
    assert a == b


def test_csv_floats_round_trip(tmp_path):
    run(tmp_path, "full-td", "--drive", "sin", "--t1", "2", "--samples", "20")
    rows = read_csv(tmp_path / "quasi_c_full-td_2_1.csv")
    for row in rows:
        for key in COLUMNS:
            x = float(row[key])
            assert f"{x:.17g}" == row[key]


def test_metric_picture_broken_regime(tmp_path):
    code = run(tmp_path, "metric-picture", "--lambda", "1", "--kappa", "2", "--t1", "4", "--samples", "60")
    assert code == 0
    rows = read_csv(tmp_path / "quasi_c_metric-picture_1_2.csv")
    assert all(float(r["rho_eig_lo"]) > 0 for r in rows)


def test_metric_picture_exceptional_point(tmp_path):
    code = run(tmp_path, "metric-picture", "--lambda", "1", "--kappa", "1", "--t1", "4", "--samples", "60")
    assert code == 0


def test_full_td_at_exceptional_point_uses_limit_form(tmp_path):
    code = run(tmp_path, "full-td", "--drive", "sin", "--lambda", "1", "--kappa", "1", "--t1", "4", "--samples", "60")
    assert code == 0
    rows = read_csv(tmp_path / "quasi_c_full-td_1_1.csv")
    assert all(float(r["rho_eig_lo"]) > 0 for r in rows)


def test_sweep_panel_a(tmp_path):
    code = run(
        tmp_path,
        "full-td", "--drive", "sin", "--t1", "3", "--samples", "30", "--sweep", "panel-a",
    )
    assert code == 0
    for lam, kappa in ((2, 1), (3, 1), (2, 1.5)):
        assert (tmp_path / f"quasi_c_full-td_{lam:g}_{kappa:g}.csv").exists()


def test_sweep_custom_pairs(tmp_path):
    code = run(
        tmp_path,
        "full-td", "--drive", "sin", "--t1", "3", "--samples", "30", "--sweep", "2,1;1,2",
    )
    assert code == 0
    assert (tmp_path / "quasi_c_full-td_2_1.csv").exists()
    assert (tmp_path / "quasi_c_full-td_1_2.csv").exists()
    checks = [ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert any("lambda=1,kappa=2" in ln["name"] for ln in checks)


def test_constant_drive_full_td(tmp_path):
    code = run(tmp_path, "full-td", "--t1", "3", "--samples", "40")
    assert code == 0
    rows = read_csv(tmp_path / "quasi_c_full-td_2_1.csv")
    assert all(float(r["rho_eig_lo"]) > 0 for r in rows)


def test_config_errors_exit_two(tmp_path):
    for argv in (
        ["static", "--t0", "5", "--t1", "1"],
        ["static", "--samples", "1"],
        ["metric-picture", "--drive", "sin"],
        ["full-td", "--sweep", "nonsense"],
        ["full-td", "--omega", "nan"],
        ["full-td", "--hbar", "0"],
        ["full-td", "--drive", "sin", "--frequency", "0"],
        ["full-td", "--sweep", "2,1;1,inf"],
        ["unknown-scenario"],
    ):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out-dir", str(tmp_path)] if argv[0] != "unknown-scenario" else argv)
        assert err.value.code == 2


def test_tol_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QUASI_C_TOL", "1e-30")
    code = run(tmp_path, "static")
    assert code == 1  # machine-precision residuals cannot satisfy 1e-30


def test_unparsable_tol_env_exits_two(tmp_path, monkeypatch):
    monkeypatch.setenv("QUASI_C_TOL", "abc")
    with pytest.raises(SystemExit) as err:
        run(tmp_path, "static")
    assert err.value.code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_samples_exit_three_after_writing_outputs(tmp_path, capsys):
    # the broken-regime metric overflows long before t = 1000
    code = run(tmp_path, "full-td", "--lambda", "1", "--kappa", "2", "--t1", "1000", "--samples", "5")
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "lambda=1,kappa=2" in err[0]
    rows = read_csv(tmp_path / "quasi_c_full-td_1_2.csv")
    assert len(rows) == 5
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    bad = lines[0]["non_finite_samples"]["lambda=1,kappa=2"]
    assert bad == sum(1 for r in rows if not all(math.isfinite(float(v)) for v in r.values())) > 0
    checks = [ln for ln in lines if ln["type"] == "check"]
    assert len(checks) == 6
    for name in ("c_squared_identity_max", "det_rho_unit_max_dev", "metric_positive_definite"):
        check = next(c for c in checks if c["name"] == name)
        assert check["pass"] is False and not math.isfinite(check["value"])
    assert lines[-1]["all_pass"] is False


def test_finite_run_records_zero_non_finite_samples(tmp_path):
    assert run(tmp_path, "full-td", "--drive", "sin", "--t1", "2", "--samples", "20") == 0
    meta = read_report(tmp_path / "quasi_c_report.jsonl")[0]
    assert meta["non_finite_samples"] == {"lambda=2,kappa=1": 0}


def test_emit_figure_data_rejects_static(tmp_path):
    from pathlib import Path

    from quasic.cli import ScenarioConfig, _report_skeleton, emit_figure_data

    cfg = ScenarioConfig(
        scenario="static",
        omega=1.0,
        lam=2.0,
        kappa=1.0,
        hbar=1.0,
        drive_kind="const",
        drive_value=1.0,
        amplitude=1.0,
        frequency=1.0,
        t_ref=None,
        t0=0.0,
        t1=1.0,
        samples=5,
        steps_per_sample=2,
        fd_step=1e-5,
        signature=(1, -1),
        tol=1e-10,
        out_dir=Path(tmp_path),
        prefix="quasi_c",
        sweep=[(2.0, 1.0)],
    )
    with pytest.raises(ValueError):
        emit_figure_data(cfg, _report_skeleton(cfg))


def test_report_metadata_versions(tmp_path):
    run(tmp_path, "static")
    meta = read_report(tmp_path / "quasi_c_report.jsonl")[0]
    assert meta["type"] == "metadata"
    assert "numpy" in meta["versions"]
    assert meta["config"]["scenario"] == "static"
    assert "wall_time_s" not in json.dumps(read_csv(tmp_path / "quasi_c_static_2_1.csv"))
