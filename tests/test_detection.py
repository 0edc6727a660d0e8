"""Detection power: faults planted in the closed forms that a run must fail.

A PASS means something only if a wrong closed form fails.  Each case patches
``invariants._drive_entries``, the entries (d, x, y) of the drive-dependent
invariant, and runs ``full-td --drive sin --t1 10 --samples 2000`` in
process, on the PT-symmetric pair (2, 1) and the broken pair (1, 2).  The
fault is planted in every closed form of the run: the sampled ones and the
anchor of the propagation check.  Four fault classes, scaled by 1 + eps:

- the drive integral m.  That is the invariant of a time-rescaled H, so
  det I = -1 and C^2 = I still hold, and only the two derivative residuals
  (``lr_residual_max``, ``quasi_hermiticity_max``) can see it.  They catch
  it from eps = 1e-7 on the PT pair and 1e-8 on the broken pair.  The PT
  run with m scaled by 1 + 1e-8 passes every check: its central-difference
  residuals read 9.9e-9 against their tolerance of 1e-8 (1.1e-10 with no
  fault).  That is the blind spot that derivative residuals at roundoff
  should close.
- each of the entries d, x and y.  Each breaks d^2 - x^2 - y^2 = 1, so the
  algebraic checks, C^2 = I (``c_squared_identity_max``) and det rho = 1
  (``det_rho_unit_max_dev``), catch it before the derivative residuals do:

  - d from eps = 1e-10 on both pairs: C^2 = I on the PT pair, both checks
    on the broken pair;
  - x from 1e-9 on the PT pair (C^2 = I) and 1e-10 on the broken pair
    (det rho = 1);
  - y from 1e-9 on both pairs: both checks on the PT pair, det rho = 1 on
    the broken pair.

  One decade below each of these thresholds every check passes.

Each smallest caught eps is pinned with exit 1 at it and one decade above
it, with the check that catches it.  A change that raises a threshold fails
here; one that lowers it may move the pin down.

The same classes are planted off the unit pairs and at hbar = 1.7, on the
PT pair (2.3, 0.7) and the broken pair (0.7, 2.3):

- ``full-td --drive sin --t1 10 --samples 2000``, through
  ``_drive_entries`` as above: m from 1e-7 (PT) and 1e-8 (broken), caught
  by both derivative residuals; d from 1e-10 on both pairs (C^2 = I); x
  from 1e-9 (C^2 = I on the PT pair, both algebraic checks on the broken
  pair); y from 1e-8 on both pairs (both algebraic checks).
- ``metric-picture --t1 3 --samples 2000``, whose fixed-regime forms have
  no drive integral: d, x or y scaled in the evaluator that
  ``invariants._real_entries`` binds.  On the PT pair d from 1e-10 (C^2 =
  I), x and y from 1e-9 (both algebraic checks); on the broken pair d and x
  from 1e-12 and y from 1e-11 (det rho = 1).  The window is shorter than
  full-td's because by t = 10 the broken form's metric scale (~1e5) leaves
  det rho = 1 inconclusive with no fault (a known limit).

At each of these thresholds the catching check reads 1.02 to 7 times its
tolerance, and one decade below every check passes.

The static scenario verifies each identity of its eigensystem once, in its
own checks.  Two faults planted in the published case (lambda, kappa) =
(2, 1) must fail them with exit 1: Dyson rows turned by 1e-6 rad
(``dyson_rows_diagonalizes``), and a left vector scaled by 1 + 2e-8
(``completeness``).
"""

import json
import math

import numpy as np
import pytest

from quasic import cli, invariants
from quasic.biortho import BiorthoPair
from quasic.cli import main

PT_PAIR = (2.0, 1.0)
BROKEN_PAIR = (1.0, 2.0)
DERIVATIVE_CHECKS = ("lr_residual_max", "quasi_hermiticity_max")
ALGEBRAIC_CHECKS = ("c_squared_identity_max", "det_rho_unit_max_dev")

_drive_entries = invariants._drive_entries


def scale_drive_integral(eps):
    def fault(p, m, sinhc):
        return _drive_entries(p, m * (1.0 + eps), sinhc)

    return fault


def scale_entry(index):
    """Fault class that scales entry ``index`` of (d, x, y) by 1 + eps."""

    def scaled(eps):
        def fault(p, m, sinhc):
            entries = list(_drive_entries(p, m, sinhc))
            entries[index] = entries[index] * (1.0 + eps)
            return tuple(entries)

        return fault

    return scaled


scale_entry_d, scale_entry_x, scale_entry_y = (scale_entry(index) for index in range(3))


_real_entries = invariants._real_entries


def scale_bound_entry(index):
    """Fault class that scales entry ``index`` of the (d, x, y) that the evaluators of _real_entries return."""

    def scaled(eps):
        def fault(form, p, fn=math):
            entries = _real_entries(form, p, fn)

            def faulty(t):
                out = list(entries(t))
                out[index] = out[index] * (1.0 + eps)
                return tuple(out)

            return faulty

        return fault

    return scaled


scale_bound_d, scale_bound_x, scale_bound_y = (scale_bound_entry(index) for index in range(3))


def failed_checks(tmp_path, *argv):
    """Exit code and names of the failed checks of a run."""
    code = main([*argv, "--out-dir", str(tmp_path)])
    records = [json.loads(line) for line in (tmp_path / "quasi_c_report.jsonl").read_text().splitlines()]
    return code, {r["name"] for r in records if r["type"] == "check" and not r["pass"]}


def run(tmp_path, pair):
    """Exit code and names of the failed checks of the full-td run on one pair."""
    lam, kappa = pair
    return failed_checks(
        tmp_path, "full-td", "--drive", "sin", "--t1", "10", "--samples", "2000", f"--lambda={lam!r}", f"--kappa={kappa!r}"
    )


@pytest.mark.parametrize("pair", [PT_PAIR, BROKEN_PAIR], ids=["pt", "broken"])
def test_unfaulted_run_passes(tmp_path, pair):
    assert run(tmp_path, pair) == (0, set())


# (pair, fault, smallest eps caught, checks that catch it there)
THRESHOLDS = [
    pytest.param(PT_PAIR, scale_drive_integral, 1e-7, DERIVATIVE_CHECKS, id="pt-drive-integral"),
    pytest.param(BROKEN_PAIR, scale_drive_integral, 1e-8, DERIVATIVE_CHECKS, id="broken-drive-integral"),
    pytest.param(PT_PAIR, scale_entry_x, 1e-9, ("c_squared_identity_max",), id="pt-entry-x"),
    pytest.param(BROKEN_PAIR, scale_entry_x, 1e-10, ("det_rho_unit_max_dev",), id="broken-entry-x"),
    pytest.param(PT_PAIR, scale_entry_y, 1e-9, ALGEBRAIC_CHECKS, id="pt-entry-y"),
    pytest.param(BROKEN_PAIR, scale_entry_y, 1e-9, ("det_rho_unit_max_dev",), id="broken-entry-y"),
    pytest.param(PT_PAIR, scale_entry_d, 1e-10, ("c_squared_identity_max",), id="pt-entry-d"),
    pytest.param(BROKEN_PAIR, scale_entry_d, 1e-10, ALGEBRAIC_CHECKS, id="broken-entry-d"),
]


@pytest.mark.parametrize("decades", [0, 1], ids=["at-threshold", "decade-above"])
@pytest.mark.parametrize("pair, fault, eps, catching", THRESHOLDS)
def test_planted_fault_fails(tmp_path, monkeypatch, pair, fault, eps, catching, decades):
    monkeypatch.setattr(invariants, "_drive_entries", fault(eps * 10.0**decades))
    code, failed = run(tmp_path, pair)
    assert code == 1
    assert set(catching) <= failed, failed


def test_tilted_dyson_rows_fail(tmp_path, monkeypatch):
    # the first row turned by 1e-6 rad toward the second leaves an off-diagonal
    # weight of ~1e-6 |lam1 - lam2| / ||H|| (~1e-6) after the similarity
    rows = cli.dyson_from_eigenvectors

    def tilted(sys_h):
        eta = rows(sys_h)
        return np.array([math.cos(1e-6) * eta[0] + math.sin(1e-6) * eta[1], eta[1]])

    monkeypatch.setattr(cli, "dyson_from_eigenvectors", tilted)
    assert failed_checks(tmp_path, "static") == (1, {"dyson_rows_diagonalizes"})


def test_scaled_left_vector_fails_completeness(tmp_path, monkeypatch):
    # scaling a left vector by 1 + d moves the completeness residual by d ||left|| (||right|| = 1)
    build = cli.biortho_system

    def scaled(h):
        sys_h = build(h)
        first, second = sys_h.pairs
        first = BiorthoPair(first.eigenvalue, first.right, (1.0 + 2e-8) * first.left)
        return type(sys_h)(pairs=(first, second))

    monkeypatch.setattr(cli, "biortho_system", scaled)
    # C = sum_n s_n |right_n><left_n| squares to I only as far as the system is complete
    assert failed_checks(tmp_path, "static") == (1, {"completeness", "c_squared_identity"})


PT_OFF_UNIT = (2.3, 0.7)
BROKEN_OFF_UNIT = (0.7, 2.3)
# each scenario's run, and the name in invariants whose faults it is planted with
OFF_UNIT_RUNS = {
    "full-td": (("full-td", "--drive", "sin", "--t1", "10", "--samples", "2000", "--hbar", "1.7"), "_drive_entries"),
    "metric-picture": (("metric-picture", "--t1", "3", "--samples", "2000", "--hbar", "1.7"), "_real_entries"),
}
C_SQUARED, DET = ("c_squared_identity_max",), ("det_rho_unit_max_dev",)


def run_off_unit(tmp_path, scenario, pair):
    lam, kappa = pair
    return failed_checks(tmp_path, *OFF_UNIT_RUNS[scenario][0], f"--lambda={lam!r}", f"--kappa={kappa!r}")


@pytest.mark.parametrize("pair", [PT_OFF_UNIT, BROKEN_OFF_UNIT], ids=["pt", "broken"])
@pytest.mark.parametrize("scenario", OFF_UNIT_RUNS)
def test_unfaulted_off_unit_run_passes(tmp_path, scenario, pair):
    assert run_off_unit(tmp_path, scenario, pair) == (0, set())


# (scenario, pair, fault, smallest eps caught, checks that catch it there)
OFF_UNIT_THRESHOLDS = [
    pytest.param("full-td", PT_OFF_UNIT, scale_drive_integral, 1e-7, DERIVATIVE_CHECKS, id="td-pt-m"),
    pytest.param("full-td", BROKEN_OFF_UNIT, scale_drive_integral, 1e-8, DERIVATIVE_CHECKS, id="td-broken-m"),
    pytest.param("full-td", PT_OFF_UNIT, scale_entry_d, 1e-10, C_SQUARED, id="td-pt-d"),
    pytest.param("full-td", BROKEN_OFF_UNIT, scale_entry_d, 1e-10, C_SQUARED, id="td-broken-d"),
    pytest.param("full-td", PT_OFF_UNIT, scale_entry_x, 1e-9, C_SQUARED, id="td-pt-x"),
    pytest.param("full-td", BROKEN_OFF_UNIT, scale_entry_x, 1e-9, ALGEBRAIC_CHECKS, id="td-broken-x"),
    pytest.param("full-td", PT_OFF_UNIT, scale_entry_y, 1e-8, ALGEBRAIC_CHECKS, id="td-pt-y"),
    pytest.param("full-td", BROKEN_OFF_UNIT, scale_entry_y, 1e-8, ALGEBRAIC_CHECKS, id="td-broken-y"),
    pytest.param("metric-picture", PT_OFF_UNIT, scale_bound_d, 1e-10, C_SQUARED, id="mp-pt-d"),
    pytest.param("metric-picture", BROKEN_OFF_UNIT, scale_bound_d, 1e-12, DET, id="mp-broken-d"),
    pytest.param("metric-picture", PT_OFF_UNIT, scale_bound_x, 1e-9, ALGEBRAIC_CHECKS, id="mp-pt-x"),
    pytest.param("metric-picture", BROKEN_OFF_UNIT, scale_bound_x, 1e-12, DET, id="mp-broken-x"),
    pytest.param("metric-picture", PT_OFF_UNIT, scale_bound_y, 1e-9, ALGEBRAIC_CHECKS, id="mp-pt-y"),
    pytest.param("metric-picture", BROKEN_OFF_UNIT, scale_bound_y, 1e-11, DET, id="mp-broken-y"),
]


@pytest.mark.parametrize("decades", [0, 1], ids=["at-threshold", "decade-above"])
@pytest.mark.parametrize("scenario, pair, fault, eps, catching", OFF_UNIT_THRESHOLDS)
def test_planted_fault_fails_off_unit(tmp_path, monkeypatch, scenario, pair, fault, eps, catching, decades):
    monkeypatch.setattr(invariants, OFF_UNIT_RUNS[scenario][1], fault(eps * 10.0**decades))
    code, failed = run_off_unit(tmp_path, scenario, pair)
    assert code == 1
    assert set(catching) <= failed, failed
