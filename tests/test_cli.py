"""Command-line scenarios: outputs, determinism and exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasic import cli
from quasic.cli import build_parser, main
from quasic.coperator import MetricForm, closed_form_metric, quasi_hermiticity_residual
from quasic.invariants import lr_residual
from quasic.linalg import IDENTITY, frobenius_norm, hermitian_eigenvalues_2x2, hypot_norm_stack
from quasic.model import HamiltonianParams, hamiltonian_at
from quasic.reporting import TOLERANCE_CEILING

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


def _float_options(scenario):
    """(dest, option string) of every float option of a scenario."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.dest, a.option_strings[0]) for a in sub.choices[scenario]._actions if a.type in (float, cli._finite_float)]


# full-td takes every float option
FLOAT_OPTIONS = _float_options("full-td")

_STATIC_CHECKS = ["completeness", "c_squared_identity", "pt_commutation", "h_commutation", "metric_hermiticity"]


_DYSON_CHECKS = ["metric_positive_definite", "dyson_sqrt_hermitian_image", "dyson_rows_diagonalizes"]


@pytest.mark.parametrize(
    "lam, kappa, signature, code, later_checks, failed",
    [
        ("2", "1", "+-", 0, _DYSON_CHECKS, set()),
        # ||[H, C]|| is not 0 here, so the scaled check value is a rounded quotient of the CSV's
        ("2", "1.5", "+-", 0, _DYSON_CHECKS, set()),
        # ||[H, C]|| is 2 and ||H|| 1e200: the checks that carry H pass on their relative size
        ("1e200", "1", "+-", 0, _DYSON_CHECKS, set()),
        # broken regime: sigma_z C is not Hermitian, so there is no metric to check
        ("1", "2", "+-", 1, [], {"pt_commutation", "metric_hermiticity"}),
        # C = I: the metric sigma_z is indefinite and has no square-root Dyson map
        ("2", "1", "++", 1, ["metric_positive_definite", "dyson_rows_diagonalizes"], {"metric_positive_definite"}),
    ],
)
def test_static_scenario_passes(tmp_path, lam, kappa, signature, code, later_checks, failed):
    assert run(tmp_path, "static", "--omega", "1", "--lambda", lam, "--kappa", kappa, "--signature", signature) == code
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    kinds = {ln["type"] for ln in lines}
    assert kinds == {"metadata", "check", "summary"}
    checks = {ln["name"]: ln for ln in lines if ln["type"] == "check"}
    assert list(checks) == _STATIC_CHECKS + later_checks
    assert {name for name, c in checks.items() if not c["pass"]} == failed
    assert lines[-1]["all_pass"] is (code == 0)
    rows = read_csv(tmp_path / f"quasi_c_static_{float(lam):g}_{float(kappa):g}.csv")
    # one row, at t = 0: the static C and metric do not depend on time
    assert len(rows) == 1 and rows[0]["t"] == "0"
    assert list(rows[0].keys()) == COLUMNS
    # the CSV keeps the raw residuals: c_sq_residual is its check value, bit for bit,
    # and lr_residual the h_commutation value times ||H|| floored at 1
    h = hamiltonian_at(HamiltonianParams(1.0, float(lam), float(kappa)), 0.0)
    scale = max(1.0, math.hypot(*np.abs(h).ravel()))
    raw = checks["h_commutation"]["value"] * scale
    assert all(float(r["lr_residual"]) == pytest.approx(raw, rel=4 * np.finfo(float).eps, abs=0.0) for r in rows)
    assert bits(r["c_sq_residual"] for r in rows) == bits([checks["c_squared_identity"]["value"]] * len(rows))
    if (lam, kappa, signature) == ("2", "1", "+-"):
        assert float(rows[0]["rho_eig_hi"]) == pytest.approx(3.0 / math.sqrt(3.0), abs=1e-12)


def test_static_broken_regime_reports_failures(tmp_path):
    code = run(tmp_path, "static", "--lambda", "1", "--kappa", "2")
    assert code == 1
    checks = {ln["name"]: ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"}
    assert checks["pt_commutation"]["pass"] is False
    assert checks["metric_hermiticity"]["pass"] is False


def test_static_exceptional_point_numerical_failure(tmp_path):
    assert run(tmp_path, "static", "--lambda", "1", "--kappa", "1") == 3


def test_aborted_run_still_writes_its_report(tmp_path, capsys):
    # the second pair's Hamiltonian is defective: the run stops there
    assert run(tmp_path, "static", "--sweep", "2,1;1,1") == 3
    assert capsys.readouterr().err.strip() == "numerical failure: source matrix is defective"
    assert [p.name for p in tmp_path.glob("*.csv")] == ["quasi_c_static_2_1.csv"]
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert lines[0]["failure"] == {
        "pair": "lambda=1,kappa=1",
        "stage": "static_checks",
        "exception": "DefectiveMatrixError",
        "message": "source matrix is defective",
    }
    checks = [ln for ln in lines if ln["type"] == "check"]
    assert len(checks) == 8 and all(c["name"].endswith("[lambda=2,kappa=1]") and c["pass"] for c in checks)
    assert lines[-1] == {"type": "summary", "all_pass": False, "n_checks": 8, "exit_code": 3}


class _Planted(ArithmeticError):
    pass


@pytest.mark.parametrize(
    "stage, name",
    [
        ("sampling", "closed_form_metric"),
        ("array_pass", "hermitian_eigenvalues_stack"),
        ("propagation", "time_ordered_propagate"),
        ("csv_write", "_write_csv"),
    ],
)
def test_aborted_time_dependent_run_names_its_stage(tmp_path, capsys, monkeypatch, stage, name):
    def planted(*args, **kwargs):
        raise _Planted(f"planted in {stage}")

    monkeypatch.setattr(cli, name, planted)
    assert run(tmp_path, "full-td", "--drive", "sin", "--lambda", "2", "--kappa", "1", "--t1", "2") == 3
    assert capsys.readouterr().err.strip() == f"numerical failure: planted in {stage}"
    assert list(tmp_path.glob("*.csv")) == []
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert lines[0]["failure"] == {
        "pair": "lambda=2,kappa=1",
        "stage": stage,
        "exception": "_Planted",
        "message": f"planted in {stage}",
    }
    # the stages before the failing one ran to their end
    order = ["sampling", "array_pass", "propagation", "csv_write"]
    assert all(lines[0]["stage_s"][done] > 0.0 for done in order[: order.index(stage)])
    assert lines[-1]["all_pass"] is False and lines[-1]["exit_code"] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        # samples at t = 0, 250, ..., 1000; the metric has overflowed by t = 250
        (["full-td", "--lambda", "1", "--kappa", "2", "--t1", "1000", "--samples", "5"], "non-finite samples (4 of 5 at lambda=1,kappa=2)"),
        # the phase xi t of the fixed-regime form overflows to inf at t1
        (["metric-picture", "--lambda", "3", "--kappa", "1", "--t1", "1e308", "--samples", "3"], "non-finite samples (1 of 3 at lambda=3,kappa=1)"),
        # the broken form's cosh and sinh of the phase overflow at t = 5e307 and t1
        (["metric-picture", "--lambda", "1", "--kappa", "3", "--t1", "1e308", "--samples", "3"], "non-finite samples (2 of 3 at lambda=1,kappa=3)"),
        # the exceptional-point form's s * s overflows at t = 5e307 and t1
        (["metric-picture", "--lambda", "1", "--kappa", "1", "--t1", "1e308", "--samples", "3"], "non-finite samples (2 of 3 at lambda=1,kappa=1)"),
        # the largest metric eigenvalue, ~1e245, is finite but its square, in the det tolerance, is not
        (["metric-picture", "--lambda", "1", "--kappa", "3", "--t1", "200", "--samples", "5"], "non-finite samples (3 of 5 at lambda=1,kappa=3)"),
        # the sine drive's phase frequency * t overflows to inf at t = 5e307 and t1
        (["full-td", "--drive", "sin", "--frequency", "10", "--t1", "1e308", "--samples", "3"], "non-finite samples (2 of 3 at lambda=2,kappa=1)"),
        # every closed form overflows at hbar = 1e-300; Tier-1 turns any RuntimeWarning into an error
        (["full-td", "--hbar", "1e-300", "--samples", "5"], "non-finite samples (5 of 5 at lambda=2,kappa=1)"),
        # finite samples, but the propagation from the anchor -1e200 to t1 overflows
        (["full-td", "--drive", "sin", "--t-ref=-1e200"], "non-finite check values at lambda=2,kappa=1"),
        # the eigensystem of a static H with entries ~1e160 squares them: every check value is NaN
        (["static", "--lambda", "1e160", "--kappa", "1e159"], "non-finite check values at lambda=1e+160,kappa=1e+159"),
    ],
)
def test_non_finite_run_reports_exit_code_three(tmp_path, capsys, argv, message):
    # the run is not aborted, so there is no failure record
    assert run(tmp_path, *argv) == 3
    assert capsys.readouterr().err.strip() == f"numerical failure: {message}"
    assert len(list(tmp_path.glob("*.csv"))) == 1
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert "failure" not in lines[0]
    n_checks = 5 if argv[0] == "static" else 6
    assert lines[-1] == {"type": "summary", "all_pass": False, "n_checks": n_checks, "exit_code": 3}


def test_non_finite_propagated_invariants_are_named_per_pair(tmp_path, capsys):
    # every sample of both pairs is finite; each propagation from the anchor -1e200 overflows
    assert run(tmp_path, "full-td", "--drive", "sin", "--t-ref=-1e200", "--sweep", "2,1;1,2", "--samples", "5") == 3
    pairs = ("lambda=2,kappa=1", "lambda=1,kappa=2")
    expected = "; ".join(f"non-finite check values at {pair}" for pair in pairs)
    assert capsys.readouterr().err.strip() == f"numerical failure: {expected}"
    assert len(list(tmp_path.glob("*.csv"))) == 2
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert lines[0]["non_finite_samples"] == dict.fromkeys(pairs, 0)
    bad = [c["name"] for c in lines if c["type"] == "check" and c["n_nonfinite"]]
    assert bad == [f"propagation_consistency[{pair}]" for pair in pairs]
    assert lines[-1]["exit_code"] == 3


@pytest.mark.parametrize("argv, code", [(["static"], 0), (["static", "--lambda", "1", "--kappa", "2"], 1)])
def test_summary_carries_the_exit_code(tmp_path, argv, code):
    assert run(tmp_path, *argv) == code
    assert read_report(tmp_path / "quasi_c_report.jsonl")[-1]["exit_code"] == code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["static", "--sweep", "panel-a"], 0),
        (["static", "--lambda", "1", "--kappa", "2"], 1),
        (["static", "--lambda", "1", "--kappa", "1"], 3),
    ],
)
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, code):
    # the read end is closed before the run starts, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quasic.cli", *argv, "--out-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert read_report(tmp_path / "quasi_c_report.jsonl")[-1]["exit_code"] == code
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
    # a numerical failure still says so on stderr
    assert ("numerical failure" in done.stderr) == (code == 3)


def test_hamiltonian_next_to_coalescence_exits_three_as_defective(tmp_path, capsys):
    # the exact eigenvalue split sqrt(lam^2 - kappa^2) is 2.09e-10, below
    # tol x scale = 1.2e-9; a discriminant formed as m*m - det cancelled
    # against omega / 2, split the eigenvalues by 1.69e-7 and let the run
    # fail later, on the Dyson rows, for rounding in the kernel
    argv = ["static", "--omega", "11.863386814711015"]
    argv += ["--lambda=-0.00012663226103022261", "--kappa=-0.0001266322610300509"]
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == "numerical failure: source matrix is defective"
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert lines[0]["failure"]["exception"] == "DefectiveMatrixError"
    assert lines[-1]["all_pass"] is False


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


@pytest.mark.parametrize("kappa", ["1", "-1"])
@pytest.mark.parametrize("lam", ["2", "-2", "0.5", "-0.5", "1", "-1"])
def test_metric_picture_takes_every_sign(tmp_path, capsys, lam, kappa):
    # the fixed-regime forms are published for lambda, kappa > 0 and carried
    # to the other signs by the sigma_x and sigma_z symmetries of the family
    code = run(tmp_path, "metric-picture", f"--lambda={lam}", f"--kappa={kappa}", "--t1", "3", "--samples", "60")
    assert_all_checks_pass(tmp_path, capsys, code, 6)


@pytest.mark.parametrize("lam,kappa", [("5e-11", "0"), ("0", "5e-11")])
def test_metric_picture_at_tiny_scale(tmp_path, capsys, lam, kappa):
    # xi = 5e-11 is far outside classify_regime's exceptional-point band, and
    # the fixed-regime forms keep det = -1 there
    code = run(tmp_path, "metric-picture", "--lambda", lam, "--kappa", kappa)
    assert_all_checks_pass(tmp_path, capsys, code, 6)


def test_static_sweep_writes_one_csv_per_pair(tmp_path, capsys):
    code = run(tmp_path, "static", "--sweep", "2,1;3,1")
    assert code == 0
    for lam, kappa in ((2, 1), (3, 1)):
        assert len(read_csv(tmp_path / f"quasi_c_static_{lam}_{kappa}.csv")) == 1
    names = [ln["name"] for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert len(names) == 2 * 8
    for pair in ("lambda=2,kappa=1", "lambda=3,kappa=1"):
        assert f"c_squared_identity[{pair}]" in names
        assert sum(name.endswith(f"[{pair}]") for name in names) == 8
    assert "16/16 checks passed" in capsys.readouterr().out


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


def test_sweep_panel_b(tmp_path):
    code = run(
        tmp_path,
        "full-td", "--drive", "sin", "--t1", "3", "--samples", "30", "--sweep", "panel-b",
    )
    assert code == 0
    pairs = [(1.0, 2.0), (1.0, 3.0), (1.5, 2.0)]
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["pairs"] == [list(pair) for pair in pairs]
    for lam, kappa in pairs:
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


@pytest.mark.parametrize("hbar", ["2", "0.5"])
@pytest.mark.parametrize("scenario,drive", [("metric-picture", "const"), ("full-td", "const"), ("full-td", "sin")])
def test_closed_forms_follow_hbar(tmp_path, scenario, drive, hbar):
    # the conservation, quasi-Hermiticity and propagation checks hold only if
    # the closed forms solve i hbar dI/dt = [H, I]; PT, broken and EP pairs
    code = run(
        tmp_path,
        scenario, "--drive", drive, "--hbar", hbar, "--t1", "2", "--samples", "20", "--sweep", "2,1;1,2;1.5,1.5",
    )
    checks = [ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert len(checks) == 18
    assert [c["name"] for c in checks if not c["pass"]] == []
    assert code == 0


@pytest.mark.parametrize("drive", ["const", "sin"])
def test_full_td_just_outside_the_exceptional_point_band(tmp_path, drive):
    # |lambda - kappa| = 1e-10 is just outside classify_regime's
    # exceptional-point band; the drive-dependent entries are entire in
    # kappa^2 - lambda^2 and keep full precision there
    assert run(tmp_path, "full-td", "--drive", drive, "--lambda", "0.1000000001", "--kappa", "0.1") == 0


def assert_all_checks_pass(tmp_path, capsys, code, n_checks):
    checks = [ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert [c["name"] for c in checks if not c["pass"]] == []
    assert len(checks) == n_checks
    assert f"{n_checks}/{n_checks} checks passed" in capsys.readouterr().out
    assert code == 0


@pytest.mark.parametrize("drive", ["const", "sin"])
@pytest.mark.parametrize("pair", [("-1", "1"), ("1", "-1"), ("-0.3", "-0.3"), ("2", "-2")])
def test_full_td_at_opposite_sign_coalescence(tmp_path, capsys, drive, pair):
    # lambda = -kappa is an exceptional point too; its limit metric carries
    # kappa * lambda, not kappa^2
    lam, kappa = pair
    code = run(
        tmp_path, "full-td", "--drive", drive, f"--lambda={lam}", f"--kappa={kappa}", "--t1", "5", "--samples", "50"
    )
    assert_all_checks_pass(tmp_path, capsys, code, 6)


@pytest.mark.parametrize("drive", ["const", "sin"])
@pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_full_td_next_to_coalescence(tmp_path, capsys, drive, offset):
    # xi = kappa^2 - lambda^2 cancels here, so the metric entries must not
    # divide by it
    lam = 0.1 * (1.0 + offset)
    code = run(tmp_path, "full-td", "--drive", drive, "--kappa", "0.1", f"--lambda={lam!r}")
    assert_all_checks_pass(tmp_path, capsys, code, 6)


@pytest.mark.parametrize("text", ["-1,2", "-1,2;1,-2", "-1e-1,2"])
def test_sweep_takes_lists_that_start_with_a_minus(text):
    parser = build_parser()
    for scenario in ("static", "metric-picture", "full-td"):
        assert parser.parse_args([scenario, "--sweep", text]).sweep == text


def test_negative_sweep_end_to_end(tmp_path, capsys):
    code = run(tmp_path, "full-td", "--sweep", "-1,1;1,2", "--t1", "3", "--samples", "40")
    assert_all_checks_pass(tmp_path, capsys, code, 12)
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["pairs"] == [[-1.0, 1.0], [1.0, 2.0]]


@pytest.mark.parametrize("text", ["-1e-3", "-2E+0", "-.5e1"])
def test_float_options_take_negative_exponent_form(text):
    parser = build_parser()
    for scenario in ("static", "metric-picture", "full-td"):
        for dest, option in _float_options(scenario):
            assert getattr(parser.parse_args([scenario, option, text]), dest) == float(text)


def test_negative_exponent_form_end_to_end(tmp_path):
    assert run(tmp_path, "full-td", "--omega", "-1e-3", "--t0", "-.5e1", "--t1", "2", "--samples", "20") == 0
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["omega"] == -1e-3


def test_config_errors_exit_two(tmp_path):
    for argv in (
        ["metric-picture", "--t0", "5", "--t1", "1"],
        ["metric-picture", "--samples", "1"],
        ["full-td", "--steps-per-sample", "0"],
        ["static", "--tol", "0"],
        ["full-td", "--tol=-1e-10"],
        # a tolerance above reporting.TOLERANCE_CEILING would let a check pass that verified nothing
        ["full-td", "--drive", "sin", "--tol", "10"],
        ["static", "--tol", "1.0000001e-6"],
        # the fixed-regime closed forms solve the invariant equation for the constant drive of value 1 only
        ["metric-picture", "--drive", "sin"],
        ["metric-picture", "--drive-value", "2"],
        ["full-td", "--sweep", "nonsense"],
        ["full-td", "--omega", "nan"],
        ["full-td", "--hbar", "0"],
        ["full-td", "--drive", "sin", "--frequency", "0"],
        # the constant drive reads no frequency
        ["full-td", "--drive", "const", "--frequency", "5"],
        ["full-td", "--frequency", "1"],
        ["full-td", "--sweep", "2,1;1,inf"],
        # finite ends whose difference overflows
        ["full-td", "--drive", "sin", "--t0=-1e308", "--t1", "1e308", "--samples", "3"],
        # a drive anchor that overflows (the default pi/2/frequency), or whose window to t1 does
        ["full-td", "--drive", "sin", "--frequency", "1e-310"],
        ["full-td", "--drive", "sin", "--frequency=-1e-310"],
        ["full-td", "--drive", "sin", "--t-ref=-1e308", "--t1", "1e308"],
        ["unknown-scenario"],
    ):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out-dir", str(tmp_path)] if argv[0] != "unknown-scenario" else argv)
        assert err.value.code == 2


_COMMON_OPTIONS = ["--omega", "--lambda", "--kappa", "--tol", "--out-dir", "--prefix", "--sweep"]
_TIME_OPTIONS = ["--hbar", "--t0", "--t1", "--samples", "--steps-per-sample"]
SCENARIO_OPTIONS = {
    "static": {*_COMMON_OPTIONS, "--signature"},
    "metric-picture": {*_COMMON_OPTIONS, *_TIME_OPTIONS, "--drive"},
    "full-td": {*_COMMON_OPTIONS, *_TIME_OPTIONS, "--drive", "--frequency", "--t-ref"},
}
# the drive scale duplicated lambda and kappa: no scenario takes these any more
_DELETED_OPTIONS = {"--drive-value", "--amplitude"}


@pytest.mark.parametrize("scenario", list(SCENARIO_OPTIONS))
def test_each_scenario_takes_only_the_options_it_reads(scenario, capsys):
    with pytest.raises(SystemExit) as err:
        main([scenario, "--help"])
    assert err.value.code == 0
    # one line per option, indented by two spaces; its help text is indented further
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    assert sorted(listed) == sorted(SCENARIO_OPTIONS[scenario] | {"--help"})


_REMOVED = [
    (scenario, option)
    for scenario, options in SCENARIO_OPTIONS.items()
    for option in sorted(set().union(_DELETED_OPTIONS, *SCENARIO_OPTIONS.values()) - options)
]


@pytest.mark.parametrize("scenario, option", _REMOVED)
def test_an_option_the_scenario_does_not_read_exits_two(tmp_path, capsys, scenario, option):
    value = "+-" if option == "--signature" else "1"
    for argv in ([f"{option}={value}"], [option, value]):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, scenario, *argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["static"], {"signature"}),
        (["metric-picture", "--t1", "2", "--samples", "20"], {"hbar", "drive", "t0", "t1", "samples", "steps_per_sample"}),
        (
            ["full-td", "--drive", "sin", "--t1", "2", "--samples", "20"],
            {"hbar", "drive", "frequency", "t_ref", "t0", "t1", "samples", "steps_per_sample"},
        ),
        # the constant drive reads no frequency
        (["full-td", "--drive", "const", "--t1", "2", "--samples", "20"], {"hbar", "drive", "t_ref", "t0", "t1", "samples", "steps_per_sample"}),
    ],
)
def test_config_echo_lists_only_the_scenario_options(tmp_path, argv, keys):
    assert run(tmp_path, *argv) == 0
    config = read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]
    assert set(config) == {"scenario", "omega", "tol", "pairs"} | keys


def test_signature_minus_plus_parses_with_a_space(tmp_path):
    assert build_parser().parse_args(["static", "--signature", "-+"]).signature == "-+"
    # C = -C(+-): its metric -rho is negative definite, and only that check fails
    assert run(tmp_path, "static", "--signature", "-+") == 1
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    assert lines[0]["config"]["signature"] == [-1, 1]
    assert [c["name"] for c in lines if c["type"] == "check" and not c["pass"]] == ["metric_positive_definite"]


@pytest.mark.parametrize("argv", [["--signature=--"], ["--signature", "--"]])
def test_signature_that_argparse_cannot_deliver_exits_two(tmp_path, capsys, argv):
    # argparse strips the value of '--signature=--', and '--signature --' ends the options
    with pytest.raises(SystemExit) as err:
        run(tmp_path, "static", *argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "argument --signature:" in err_text and "Traceback" not in err_text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "where, message",
    [
        (["--prefix", "nodir/x"], "configuration error: --prefix 'nodir/x' contains a path separator"),
        (["--prefix", "x/"], "configuration error: --prefix 'x/' contains a path separator"),
        (["--out-dir", "{file}"], "configuration error: --out-dir '{file}' cannot be created: File exists"),
        (["--out-dir", "{file}/sub"], "configuration error: --out-dir '{file}/sub' cannot be created: Not a directory"),
    ],
)
def test_unusable_output_location_exits_two_before_any_work(tmp_path, capsys, monkeypatch, where, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed after a configuration error")

    monkeypatch.setattr(cli, "biortho_system", forbidden)
    out = tmp_path / "out"
    out.mkdir()
    file = tmp_path / "a-file"
    file.write_text("")
    argv = ["static", "--out-dir", str(out), *(arg.format(file=file) for arg in where)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [message.format(file=file)]
    assert list(out.iterdir()) == [] and file.read_text() == ""


def test_directory_at_a_csv_path_exits_two_with_a_report(tmp_path, capsys):
    # the second pair's CSV cannot be written: the run stops there and says so
    blocked = tmp_path / "quasi_c_static_3_1.csv"
    blocked.mkdir()
    assert run(tmp_path, "static", "--sweep", "2,1;3,1") == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"configuration error: {str(blocked)!r} cannot be written: Is a directory"]
    report_path = tmp_path / "quasi_c_report.jsonl"
    assert f"wrote {tmp_path / 'quasi_c_static_2_1.csv'}\nwrote {report_path}\n" in out
    assert len(read_csv(tmp_path / "quasi_c_static_2_1.csv")) == 1 and list(blocked.iterdir()) == []
    lines = read_report(report_path)
    assert lines[0]["failure"] == {
        "pair": "lambda=3,kappa=1",
        "stage": "csv_write",
        "exception": "IsADirectoryError",
        "message": f"[Errno 21] Is a directory: {str(blocked)!r}",
    }
    assert sum(ln["type"] == "check" for ln in lines) == 16
    assert lines[-1] == {"type": "summary", "all_pass": False, "n_checks": 16, "exit_code": 2}


def test_prefix_past_the_file_name_limit_exits_two(tmp_path, capsys):
    # neither the CSV nor the report can be created; the line names the first
    prefix = "x" * os.pathconf(tmp_path, "PC_NAME_MAX")
    assert run(tmp_path, "static", "--prefix", prefix) == 2
    out, err = capsys.readouterr()
    csv_path = tmp_path / f"{prefix}_static_2_1.csv"
    assert err.splitlines() == [f"configuration error: {str(csv_path)!r} cannot be written: File name too long"]
    assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


def test_directory_at_the_report_path_exits_two(tmp_path, capsys):
    blocked = tmp_path / "quasi_c_report.jsonl"
    blocked.mkdir()
    assert run(tmp_path, "static") == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"configuration error: {str(blocked)!r} cannot be written: Is a directory"]
    assert out.splitlines()[-2:] == [f"wrote {tmp_path / 'quasi_c_static_2_1.csv'}", "8/8 checks passed"]
    assert list(blocked.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", [option for _, option in FLOAT_OPTIONS])
def test_non_finite_float_options_exit_two(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as err:
        run(tmp_path, "full-td", f"{option}={value}")
    assert err.value.code == 2
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario, option", [(sc, option) for sc in SCENARIO_OPTIONS for _, option in _float_options(sc)])
def test_non_numeric_float_options_exit_two(tmp_path, capsys, scenario, option):
    with pytest.raises(SystemExit) as err:
        run(tmp_path, scenario, f"{option}=abc")
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"argument {option}: invalid float value: 'abc'" in err_text and "Traceback" not in err_text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, t_ref",
    [
        (["--drive", "sin", "--frequency", "2"], math.pi / 4),
        (["--drive", "sin", "--t-ref", "0.3"], 0.3),
        (["--drive", "const"], 0.0),
    ],
)
def test_config_echo_shows_the_resolved_anchor(tmp_path, argv, t_ref):
    assert run(tmp_path, "full-td", *argv, "--t1", "2", "--samples", "20") == 0
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["t_ref"] == t_ref


@pytest.mark.parametrize(
    "sweep,pairs",
    [
        ("2.0000001,1;2.0000002,1", "(2.0000001, 1.0) and (2.0000002, 1.0)"),
        ("2,1;3,1;2,1", "(2.0, 1.0) and (2.0, 1.0)"),
        ("1e-7,1;1.0000001e-7,1", "(1e-07, 1.0) and (1.0000001e-07, 1.0)"),
    ],
)
def test_sweep_pairs_with_one_file_name_exit_two(tmp_path, capsys, sweep, pairs):
    # the CSV file and the report tag name a pair by its :g digits; two pairs
    # with the same name would overwrite one CSV, so the sweep is refused
    # before anything is written
    for scenario in ("static", "full-td"):
        with pytest.raises(SystemExit) as err:
            run(tmp_path, scenario, "--sweep", sweep)
        assert err.value.code == 2
        assert f"sweep pairs {pairs} share the name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario", ["static", "metric-picture", "full-td"])
def test_tol_option_sets_the_tolerance(tmp_path, scenario):
    code = run(tmp_path, scenario, "--tol", "1e-30")
    assert code == 1  # machine-precision residuals cannot satisfy 1e-30
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["tol"] == 1e-30


def test_tolerance_comes_from_no_environment_variable(tmp_path, monkeypatch):
    # the QUASI_C_TOL override is gone: --tol is the one way to set the tolerance
    monkeypatch.setenv("QUASI_C_TOL", "abc")
    assert run(tmp_path, "static") == 0
    assert read_report(tmp_path / "quasi_c_report.jsonl")[0]["config"]["tol"] == 1e-10


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


_OFF_AXIS = ["full-td", "--drive", "sin", "--t-ref", "0.3", "--hbar", "1.7", "--t1", "3", "--samples", "40"]


@pytest.mark.parametrize(
    "argv, code, not_passed",
    [
        # within a relative 1e-9 of lambda = kappa the fixed-regime forms grow like 1/xi
        (["metric-picture", "--lambda", "1", "--kappa", "1.000000001"], 1, {"det_rho_unit_max_dev": "inconclusive"}),
        # the drive-dependent form holds there
        (["full-td", "--drive", "const", "--lambda", "1", "--kappa", "1.000000001"], 0, {}),
        # a broken-regime metric scale of ~1e27 by t = 30
        (
            ["metric-picture", "--lambda", "1", "--kappa", "2", "--t1", "30"],
            1,
            {"det_rho_unit_max_dev": "inconclusive", "metric_positive_definite": "inconclusive"},
        ),
        # from an anchor off the sine drive's symmetry axis the order-2 propagation error
        # reads 1.2e-6 against the fixed 1e-6; twice the default steps pass
        ([*_OFF_AXIS, "--sweep", "0.7,2.3"], 1, {"propagation_consistency": "fail"}),
        ([*_OFF_AXIS, "--sweep", "0.7,2.3", "--steps-per-sample", "40"], 0, {}),
    ],
    ids=["near-coalescence-fixed-form", "near-coalescence-drive-form", "broken-t30", "off-axis-anchor", "off-axis-40-steps"],
)
def test_documented_known_limits_fail_closed(tmp_path, argv, code, not_passed):
    assert run(tmp_path, *argv) == code
    checks = [ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert {c["name"]: c["status"] for c in checks if c["status"] != "pass"} == not_passed


def test_tolerance_scaled_past_the_ceiling_is_inconclusive(tmp_path, capsys):
    # by t = 30 the broken-regime metric scale is ~5e22: the det and
    # positivity tolerances (~8.6e30 and ~7e8) would pass anything
    code = run(tmp_path, "full-td", "--lambda", "1", "--kappa", "2", "--t1", "30", "--samples", "50")
    assert code == 1
    out = capsys.readouterr().out
    checks = {ln["name"]: ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"}
    for name in ("det_rho_unit_max_dev", "metric_positive_definite"):
        check = checks[name]
        assert check["status"] == "inconclusive" and check["pass"] is False
        assert check["value"] <= check["tolerance"] and check["tolerance"] > TOLERANCE_CEILING
        assert f"[INCONCLUSIVE] {name}:" in out
    others = [c for name, c in checks.items() if name not in ("det_rho_unit_max_dev", "metric_positive_definite")]
    assert all(c["status"] == "pass" for c in others)
    assert "4/6 checks passed (2 inconclusive)" in out


# lambda = kappa * (1 + offset): on, next to and across the exceptional point
_EP_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3]),
    st.floats(-0.6, 0.6),
)


# magnitudes from the smallest subnormal to 1e300, so that runs reach overflow and underflow
_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300]), st.floats(1e-3, 1e3))
_NONZERO = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), _POSITIVE)
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), _NONZERO)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(["static", "metric-picture", "full-td const", "full-td sin"]),
    omega=_SIGNED,
    kappa=_SIGNED,
    lam=_SIGNED,
    offset=st.one_of(st.none(), _EP_OFFSETS),
    t1=_POSITIVE,
    hbar=_POSITIVE,
    frequency=_NONZERO,
    t_ref=st.one_of(st.none(), _SIGNED),
)
def test_exit_code_contract(scenario, omega, kappa, lam, offset, t1, hbar, frequency, t_ref):
    name, _, drive = scenario.partition(" ")
    # with an offset, lambda = kappa * (1 + offset) lies on, next to or across the exceptional point
    if offset is not None:
        lam = kappa * (1.0 + offset)
    argv = [name, f"--omega={omega!r}", f"--lambda={lam!r}", f"--kappa={kappa!r}"]
    # static has no time: it takes none of the time options
    if name != "static":
        argv += [f"--t1={t1!r}", f"--hbar={hbar!r}", "--samples=5", "--steps-per-sample=2"]
    if drive:
        argv.append(f"--drive={drive}")
    if drive == "sin":
        argv.append(f"--frequency={frequency!r}")
        if t_ref is not None:
            argv.append(f"--t-ref={t_ref!r}")
    with tempfile.TemporaryDirectory() as out_dir:
        sink = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to exit 3
            try:
                code = main([*argv, f"--out-dir={out_dir}"])
            except SystemExit as exc:  # argparse reports configuration errors this way
                code = exc.code
        assert code in (0, 1, 2, 3), sink.getvalue()
        path = Path(out_dir) / "quasi_c_report.jsonl"
        if code == 0:
            assert path.exists()
        if not path.exists():
            return
        checks = [ln for ln in read_report(path) if ln["type"] == "check"]
        for check in checks:
            assert check["pass"] is (check["status"] == "pass")
            if check["pass"]:
                assert math.isfinite(check["value"]) and check["tolerance"] <= TOLERANCE_CEILING, check
        if code == 0:
            assert checks and all(c["pass"] for c in checks)


def test_finite_run_records_zero_non_finite_samples(tmp_path):
    assert run(tmp_path, "full-td", "--drive", "sin", "--t1", "2", "--samples", "20") == 0
    meta = read_report(tmp_path / "quasi_c_report.jsonl")[0]
    assert meta["non_finite_samples"] == {"lambda=2,kappa=1": 0}


def test_report_metadata_versions(tmp_path):
    run(tmp_path, "static")
    meta = read_report(tmp_path / "quasi_c_report.jsonl")[0]
    assert meta["type"] == "metadata"
    assert "numpy" in meta["versions"]
    assert meta["config"]["scenario"] == "static"
    assert "wall_time_s" not in json.dumps(read_csv(tmp_path / "quasi_c_static_2_1.csv"))


def per_sample_td_pair(cfg, lam, kappa):
    """Reference: the per-sample loop that the array pass of ``_run_td_pair`` replaced.

    Returns the CSV rows, the five folded check values and, for each, how
    many of its per-sample values are not finite.
    """
    p = cli._params(cfg, lam, kappa)
    if cfg.scenario == "metric-picture":
        form = p.regime
    else:
        form = MetricForm.FULL_TD

    def rho_at(t):
        return closed_form_metric(form, p, t).matrix

    def c_at(t):
        c = rho_at(t)
        c[1] = -c[1]
        return c

    rows = []
    folds = []
    for t in np.linspace(cfg.t0, cfg.t1, cfg.samples):
        rho = rho_at(t)
        cmat = c_at(t)
        eig_hi, eig_lo = hermitian_eigenvalues_2x2(rho, tol=1e-8)
        det_rho = float((rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real)
        lr = lr_residual(lambda s: c_at(s).tolist(), p, t)
        quasi = quasi_hermiticity_residual(lambda s: rho_at(s).tolist(), p, t)
        c_sq = frobenius_norm(cmat @ cmat - IDENTITY)
        rows.append([float(t), eig_hi, eig_lo, det_rho, lr, quasi, c_sq])
        scale = max(1.0, float(hypot_norm_stack(rho)))
        trace = rho[0, 0].real + rho[1, 1].real
        positivity = float(np.maximum(-eig_lo, abs(eig_hi + eig_lo - trace)))
        folds.append((lr / scale, quasi / scale, c_sq / (scale * scale), abs(det_rho - 1.0), positivity, eig_hi))
    max_lr, max_quasi, max_csq, max_det_dev, max_neg, _ = np.maximum(
        np.max(folds, axis=0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    ).tolist()
    non_finite = [sum(1 for fold in folds if not math.isfinite(fold[j])) for j in range(5)]
    return rows, [max_lr, max_quasi, max_csq, max_det_dev, max_neg], non_finite


def bits(values):
    # repr round-trips every float, so equal reprs are equal bits (NaN payloads aside)
    return [repr(float(v)) for v in values]


# PT-symmetric, broken and coalescent pairs, with every sign
_ORACLE_RUN = ("--t1=6", "--samples=120", "--sweep=2,1;1,2;1.5,1.5;-2,-1;-1,2;1.5,-1.5")


# the reference loop, not the command line, warns on the overflow case
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["full-td", "--drive", "const", *_ORACLE_RUN],
        ["full-td", "--drive", "sin", *_ORACLE_RUN],
        ["metric-picture", *_ORACLE_RUN],
        ["full-td", "--drive", "sin", "--hbar", "1.3", "--omega=-0.7", *_ORACLE_RUN],
        ["metric-picture", "--hbar", "1.3", *_ORACLE_RUN],
        # overflows on the way: the non-finite cells must land in the same places
        ["full-td", "--lambda", "1", "--kappa", "2", "--drive", "const", "--t1", "1000", "--samples", "5"],
    ],
    ids=["full-td-const", "full-td-sin", "metric-picture", "full-td-sin-hbar", "metric-picture-hbar", "overflow"],
)
def test_array_pass_matches_the_per_sample_loop(argv):
    parser = build_parser()
    cfg = cli._config_from_args(parser, parser.parse_args(argv))
    for lam, kappa in cfg.pairs:
        report = cli._report_skeleton(cfg)
        columns = cli._run_td_pair(cfg, lam, kappa, report, False, cli._StageClock(report))
        rows, folded, non_finite = per_sample_td_pair(cfg, lam, kappa)
        assert columns.shape == (len(COLUMNS), cfg.samples)
        assert [bits(row) for row in columns.T] == [bits(row) for row in rows]
        assert bits(c.value for c in report.checks[:5]) == bits(folded)
        assert [c.n_nonfinite for c in report.checks[:5]] == non_finite
        assert all(c.pair == (lam, kappa) for c in report.checks)
        n_nonfinite = sum(1 for row in rows if not all(math.isfinite(v) for v in row))
        assert report.metadata["non_finite_samples"] == {cli._pair_name(lam, kappa): n_nonfinite}
        assert (n_nonfinite > 0) == (cfg.t1 == 1000)


@pytest.mark.parametrize(
    "argv, n_pairs",
    [
        (["full-td", "--drive", "sin", "--sweep=2,1;-1,2;1.5,-1.5", "--t1", "4", "--samples", "100"], 3),
        (["full-td", "--drive", "const", "--omega=-2", "--hbar", "1.6", "--sweep=-2,-1;1,-2;-1.5,-1.5", "--t1", "4", "--samples", "100"], 3),
        (["metric-picture", "--hbar", "1.7", "--sweep=-2,1;1,-2;1.5,1.5", "--t1", "4", "--samples", "100"], 3),
        (["metric-picture", "--omega", "3", "--sweep=2,-1;-1,-2;-1.5,1.5", "--t1", "4", "--samples", "100"], 3),
        (["static", "--sweep", "2,1;3,1"], 2),
        (["static", "--lambda=-2", "--kappa", "1"], 1),
    ],
)
def test_residual_columns_are_one_number(tmp_path, argv, n_pairs):
    # sigma_z H sigma_z = H^dag for every member of the family and rho = sigma_z C,
    # so the quasi-Hermiticity defect of rho is sigma_z times the conservation
    # defect of C, entry by entry up to sign
    assert run(tmp_path, *argv) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == n_pairs
    for path in paths:
        rows = read_csv(path)
        assert len(rows) == (1 if argv[0] == "static" else 100)
        assert all(r["lr_residual"] == r["quasi_residual"] for r in rows)


def test_checks_locate_their_worst_sample(tmp_path):
    assert run(tmp_path, "metric-picture", "--lambda", "1", "--kappa", "2", "--t1", "4", "--samples", "60") == 0
    rows = read_csv(tmp_path / "quasi_c_metric-picture_1_2.csv")
    times = [float(r["t"]) for r in rows]
    checks = {ln["name"]: ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"}
    # positivity's worst sample is that of the larger of -lo and |hi + lo - tr rho|,
    # with tr rho from the closed form at each sample time, as the command line samples it
    p = HamiltonianParams(1.0, 1.0, 2.0)
    form = p.regime
    positivity = []
    for r, t in zip(rows, times):
        rho = closed_form_metric(form, p, t).matrix
        hi, lo = float(r["rho_eig_hi"]), float(r["rho_eig_lo"])
        positivity.append(max(-lo, abs(hi + lo - (rho[0, 0].real + rho[1, 1].real))))
    assert max(positivity) > 0.0
    assert checks["metric_positive_definite"]["argmax_t"] == times[positivity.index(max(positivity))]
    assert checks["propagation_consistency"]["argmax_t"] == 4.0
    dev = [abs(float(r["det_rho"]) - 1.0) for r in rows]
    assert checks["det_rho_unit_max_dev"]["argmax_t"] == times[dev.index(max(dev))]
    assert all(c["argmax_t"] in times for c in checks.values())


def test_worst_sample_of_a_non_finite_check_is_the_first_non_finite_one(tmp_path):
    # samples at t = 0, 250, ..., 1000; the metric has overflowed by t = 250
    assert run(tmp_path, "full-td", "--lambda", "1", "--kappa", "2", "--t1", "1000", "--samples", "5") == 3
    rows = read_csv(tmp_path / "quasi_c_full-td_1_2.csv")
    first_bad = next(float(r["t"]) for r in rows if not math.isfinite(float(r["c_sq_residual"])))
    assert first_bad == 250.0
    checks = {ln["name"]: ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"}
    assert checks["c_squared_identity_max"]["argmax_t"] == first_bad
    assert checks["propagation_consistency"]["argmax_t"] == 1000.0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["static", "--sweep", "2,1;3,1;1,2"], 1),
        # the broken-regime metric overflows by t = 250: 4 of 5 samples
        (["full-td", "--sweep", "2,1;1,2", "--t1", "1000", "--samples", "5"], 3),
    ],
)
def test_check_records_carry_their_pair_and_non_finite_count(tmp_path, argv, code):
    assert run(tmp_path, *argv) == code
    lines = read_report(tmp_path / "quasi_c_report.jsonl")
    checks = [ln for ln in lines if ln["type"] == "check"]
    pairs = [tuple(pair) for pair in lines[0]["config"]["pairs"]]
    assert {tuple(c["pair"]) for c in checks} == set(pairs)
    for check in checks:
        lam, kappa = check["pair"]
        assert check["name"].endswith(f"[lambda={lam:g},kappa={kappa:g}]")
        # a fold propagates NaN and inf, so a count above 0 is a non-finite value
        assert type(check["n_nonfinite"]) is int
        assert (check["n_nonfinite"] > 0) == (not math.isfinite(check["value"]))
    counts = {c["name"].split("[")[0]: c["n_nonfinite"] for c in checks if c["pair"] == [1.0, 2.0]}
    if argv[0] == "full-td":
        # -eig_lo is still finite at t = 250, where the other folds are not
        assert counts == {
            "lr_residual_max": 4,
            "quasi_hermiticity_max": 4,
            "c_squared_identity_max": 4,
            "det_rho_unit_max_dev": 4,
            "metric_positive_definite": 3,
            "propagation_consistency": 1,
        }
        assert lines[0]["non_finite_samples"] == {"lambda=2,kappa=1": 0, "lambda=1,kappa=2": 4}
    else:
        assert set(counts.values()) == {0}


def test_static_checks_carry_no_sample_time(tmp_path):
    assert run(tmp_path, "static") == 0
    checks = [ln for ln in read_report(tmp_path / "quasi_c_report.jsonl") if ln["type"] == "check"]
    assert checks and all("argmax_t" not in c for c in checks)


@pytest.mark.parametrize("scenario", ["static", "metric-picture", "full-td"])
def test_report_records_stage_times(tmp_path, scenario):
    argv = ["--sweep", "2,1;3,1"] if scenario == "static" else ["--sweep", "2,1;1,2", "--t1", "3", "--samples", "30"]
    assert run(tmp_path, scenario, *argv) == 0
    stages = read_report(tmp_path / "quasi_c_report.jsonl")[0]["stage_s"]
    # sorted by json.dumps
    assert list(stages) == ["array_pass", "csv_write", "propagation", "sampling", "static_checks"]
    assert all(math.isfinite(v) and v >= 0.0 for v in stages.values())
    assert stages["csv_write"] > 0.0
    if scenario == "static":
        assert stages["sampling"] == stages["array_pass"] == stages["propagation"] == 0.0
        assert stages["static_checks"] > 0.0
    else:
        assert stages["static_checks"] == 0.0
        assert min(v for k, v in stages.items() if k != "static_checks") > 0.0


@pytest.mark.parametrize("scenario", ["static", "metric-picture", "full-td"])
def test_report_records_stage_work(tmp_path, scenario):
    argv = ["--sweep", "2,1;3,1"] if scenario == "static" else ["--sweep", "2,1;1,2", "--t1", "3", "--samples", "30"]
    assert run(tmp_path, scenario, *argv) == 0
    work = read_report(tmp_path / "quasi_c_report.jsonl")[0]["stage_work"]
    csvs = sorted(tmp_path.glob("*.csv"))
    rows = sum(len(read_csv(path)) for path in csvs)
    assert work["csv_write"] == {"rows": rows, "bytes": sum(path.stat().st_size for path in csvs)}
    if scenario == "static":
        assert rows == 2
        assert work["sampling"] == {"samples": 0} and work["propagation"] == {"steps": 0}
    else:
        # 20 steps per sample by default
        assert rows == 60
        assert work["sampling"] == {"samples": 60} and work["propagation"] == {"steps": 1200}


def test_stage_work_counts_only_completed_stages(tmp_path, monkeypatch):
    def planted(*args, **kwargs):
        raise _Planted("planted in propagation")

    monkeypatch.setattr(cli, "time_ordered_propagate", planted)
    assert run(tmp_path, "full-td", "--sweep", "2,1;1,2", "--t1", "3", "--samples", "30") == 3
    work = read_report(tmp_path / "quasi_c_report.jsonl")[0]["stage_work"]
    assert work == {"sampling": {"samples": 30}, "propagation": {"steps": 0}, "csv_write": {"rows": 0, "bytes": 0}}
