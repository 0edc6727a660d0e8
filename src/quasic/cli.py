"""Command-line front end.

Three scenarios: ``static`` (time-independent C-operator and metric),
``metric-picture`` (time-independent Hamiltonian, time-dependent metric) and
``full-td`` (driven Hamiltonian).  Each run writes a CSV time series per
(lambda, kappa) pair and a JSON-lines verification report, prints one
PASS/FAIL line per check, and exits 0 when every check passes, 1 when any
fails, 2 on configuration errors and 3 on numerical failures (defective
eigensystem or lost positivity where the scenario requires it, or a
non-finite sample of a time-dependent scenario, reported after the CSVs and
the report are written).

CSV columns: t, rho_eig_hi, rho_eig_lo, det_rho, lr_residual,
quasi_residual, c_sq_residual.  Floats are written with 17 significant
digits, so output files are bit-identical across runs of the same
configuration.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coperator import (
    DysonConstruction,
    MetricForm,
    c_from_system,
    closed_form_metric,
    dyson_from_eigenvectors,
    dyson_map,
    involution_residual,
    metric_form_for_regime,
    metric_from_c,
    quasi_hermiticity_residual,
    static_constraint_suite,
)
from .biortho import biortho_system, completeness_residual
from .errors import QuasiCError
from .invariants import (
    InvariantForm,
    lr_residual,
    preset_initial_state,
    time_ordered_propagate,
)
from .linalg import (
    IDENTITY,
    PAULI_Z,
    adjoint,
    commutator,
    det,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
)
from .model import (
    ConstantDrive,
    HamiltonianParams,
    Regime,
    SineDrive,
    classify_regime,
    hamiltonian_at,
)
from .reporting import VerificationReport

_EPS64 = float(np.finfo(float).eps)

PANEL_A = ((2.0, 1.0), (3.0, 1.0), (2.0, 1.5))
PANEL_B = ((1.0, 2.0), (1.0, 3.0), (1.5, 2.0))

_SIGNATURES = {"+-": (1, -1), "-+": (-1, 1), "++": (1, 1), "--": (-1, -1)}


@dataclass
class ScenarioConfig:
    scenario: str
    omega: float
    lam: float
    kappa: float
    hbar: float
    drive_kind: str
    drive_value: float
    amplitude: float
    frequency: float
    t_ref: float | None
    t0: float
    t1: float
    samples: int
    steps_per_sample: int
    fd_step: float
    signature: tuple[int, int]
    tol: float
    out_dir: Path
    prefix: str
    sweep: list[tuple[float, float]]

    @property
    def fd_tol(self) -> float:
        return max(1e-8, self.tol)


def _drive(cfg: ScenarioConfig):
    if cfg.drive_kind == "sin":
        t_ref = math.pi / 2 / cfg.frequency if cfg.t_ref is None else cfg.t_ref
        return SineDrive(amplitude=cfg.amplitude, frequency=cfg.frequency, t_ref=t_ref)
    t_ref = 0.0 if cfg.t_ref is None else cfg.t_ref
    return ConstantDrive(value=cfg.drive_value, t_ref=t_ref)


def _params(cfg: ScenarioConfig, lam: float, kappa: float) -> HamiltonianParams:
    return HamiltonianParams(
        omega=cfg.omega, lam=lam, kappa=kappa, hbar=cfg.hbar, drive=_drive(cfg)
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_path(cfg: ScenarioConfig, lam: float, kappa: float) -> Path:
    return cfg.out_dir / f"{cfg.prefix}_{cfg.scenario}_{lam:g}_{kappa:g}.csv"


def _write_csv(path: Path, rows: list[dict]) -> None:
    fields = ["t", "rho_eig_hi", "rho_eig_lo", "det_rho", "lr_residual", "quasi_residual", "c_sq_residual"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in fields])


def _pair_name(lam: float, kappa: float) -> str:
    return f"lambda={lam:g},kappa={kappa:g}"


def _tag(name: str, lam: float, kappa: float, sweeping: bool) -> str:
    return f"{name}[{_pair_name(lam, kappa)}]" if sweeping else name


def _run_static_pair(cfg: ScenarioConfig, lam: float, kappa: float, report, sweeping: bool):
    p = _params(cfg, lam, kappa)
    h = hamiltonian_at(p, cfg.t0)
    sys_h = biortho_system(h)
    report.add(_tag("completeness", lam, kappa, sweeping), completeness_residual(sys_h), cfg.tol)
    c = c_from_system(sys_h, cfg.signature)
    suite = static_constraint_suite(c, h, tol=cfg.tol)
    for check in suite.checks:
        report.add(_tag(check.name, lam, kappa, sweeping), check.value, check.tolerance)

    rho_raw = PAULI_Z @ c.matrix
    herm = frobenius_norm(rho_raw - adjoint(rho_raw))
    report.add(_tag("metric_hermiticity", lam, kappa, sweeping), herm, cfg.tol)
    eig_hi = eig_lo = float("nan")
    if herm <= cfg.tol:
        metric = metric_from_c(c, tol=cfg.tol)
        eig_hi, eig_lo = metric.eigenvalues()
        report.add(
            _tag("metric_positive_definite", lam, kappa, sweeping),
            -eig_lo,
            64.0 * _EPS64 * max(1.0, abs(eig_hi)),
        )
        if eig_lo > 0:
            eta = dyson_map(metric, DysonConstruction.PSD_SQRT)
            hmapped = eta.matrix @ h @ np.linalg.inv(eta.matrix)
            report.add(
                _tag("dyson_sqrt_hermitian_image", lam, kappa, sweeping),
                frobenius_norm(hmapped - adjoint(hmapped)),
                cfg.fd_tol,
            )
        rows_eta = dyson_from_eigenvectors(sys_h)
        diag = rows_eta.matrix @ h @ np.linalg.inv(rows_eta.matrix)
        report.add(
            _tag("dyson_rows_diagonalizes", lam, kappa, sweeping),
            abs(diag[0, 1]) + abs(diag[1, 0]),
            cfg.fd_tol,
        )

    lr = frobenius_norm(commutator(h, c.matrix))
    quasi = frobenius_norm(adjoint(h) @ rho_raw - rho_raw @ h)
    c_sq = involution_residual(c)
    rows = []
    for t in np.linspace(cfg.t0, cfg.t1, cfg.samples):
        rows.append(
            {
                "t": float(t),
                "rho_eig_hi": eig_hi,
                "rho_eig_lo": eig_lo,
                "det_rho": float(np.real(det(rho_raw))),
                "lr_residual": lr,
                "quasi_residual": quasi,
                "c_sq_residual": c_sq,
            }
        )
    return rows


def _metric_form(cfg: ScenarioConfig, p: HamiltonianParams) -> MetricForm:
    regime = classify_regime(p)
    if cfg.scenario == "metric-picture":
        return metric_form_for_regime(regime)
    return MetricForm.EP_LIMIT if regime is Regime.EXCEPTIONAL_POINT else MetricForm.FULL_TD


def _run_td_pair(cfg: ScenarioConfig, lam: float, kappa: float, report, sweeping: bool):
    p = _params(cfg, lam, kappa)
    form = _metric_form(cfg, p)

    def rho_at(t: float) -> np.ndarray:
        return closed_form_metric(form, p, t).matrix

    def c_at(t: float) -> np.ndarray:
        return PAULI_Z @ rho_at(t)

    rows = []
    folds = []
    for t in np.linspace(cfg.t0, cfg.t1, cfg.samples):
        rho = rho_at(t)
        cmat = c_at(t)
        eig_hi, eig_lo = hermitian_eigenvalues_2x2(rho, tol=1e-8)
        det_rho = float(np.real(det(rho)))
        lr = lr_residual(c_at, p, t, fd_step=cfg.fd_step)
        quasi = quasi_hermiticity_residual(rho_at, p, t, fd_step=cfg.fd_step)
        c_sq = frobenius_norm(cmat @ cmat - IDENTITY)
        rows.append(
            {
                "t": float(t),
                "rho_eig_hi": eig_hi,
                "rho_eig_lo": eig_lo,
                "det_rho": det_rho,
                "lr_residual": lr,
                "quasi_residual": quasi,
                "c_sq_residual": c_sq,
            }
        )
        # CSV keeps raw residuals; checks normalize by the metric scale,
        # whose hyperbolic growth sets the attainable floating-point floor
        scale = max(1.0, frobenius_norm(rho))
        folds.append((lr / scale, quasi / scale, c_sq / scale**2, abs(det_rho - 1.0), -eig_lo, eig_hi))
    # np.maximum and np.max propagate NaN, so a non-finite sample cannot vanish from a check
    max_lr, max_quasi, max_csq, max_det_dev, max_neg, max_hi = np.maximum(
        np.max(folds, axis=0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    ).tolist()
    n_nonfinite = sum(1 for row in rows if not all(math.isfinite(v) for v in row.values()))
    report.metadata.setdefault("non_finite_samples", {})[_pair_name(lam, kappa)] = n_nonfinite

    report.add(_tag("lr_residual_max", lam, kappa, sweeping), max_lr, cfg.fd_tol)
    report.add(_tag("quasi_hermiticity_max", lam, kappa, sweeping), max_quasi, cfg.fd_tol)
    report.add(_tag("c_squared_identity_max", lam, kappa, sweeping), max_csq, cfg.tol)
    # det roundoff also grows with the square of the entry scale
    det_tol = max(1e-9, 16.0 * _EPS64 * max_hi**2)
    report.add(_tag("det_rho_unit_max_dev", lam, kappa, sweeping), max_det_dev, det_tol)
    report.add(
        _tag("metric_positive_definite", lam, kappa, sweeping),
        max_neg,
        64.0 * _EPS64 * max_hi,
    )

    # propagate the preset coefficient vector against the closed form
    if form is MetricForm.EP_LIMIT:
        inv_form = InvariantForm.FULL_TD  # preset (0, 0, 1) applies at the limit too
        start = p.drive.t_ref
    elif form is MetricForm.FULL_TD:
        inv_form = InvariantForm.FULL_TD
        start = p.drive.t_ref
    else:
        inv_form = InvariantForm(form.value)
        start = 0.0
    init = preset_initial_state(inv_form, p)
    steps = max(1, cfg.samples * cfg.steps_per_sample)
    final = time_ordered_propagate(p, init, start, cfg.t1, steps)
    target = c_at(cfg.t1)
    prop_err = frobenius_norm(final.matrix() - target) / max(1.0, frobenius_norm(target))
    report.add(_tag("propagation_consistency", lam, kappa, sweeping), prop_err, 1e-6)
    return rows


def emit_figure_data(cfg: ScenarioConfig, report: VerificationReport) -> list[Path]:
    """One CSV of metric-eigenvalue curves per (lambda, kappa) pair.

    Only the time-dependent scenarios produce curve families; the static
    scenario has its own constant-column writer.
    """
    if cfg.scenario == "static":
        raise ValueError("figure data requires the metric-picture or full-td scenario")
    sweeping = len(cfg.sweep) > 1
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for lam, kappa in cfg.sweep:
        rows = _run_td_pair(cfg, lam, kappa, report, sweeping)
        path = _csv_path(cfg, lam, kappa)
        _write_csv(path, rows)
        written.append(path)
    return written


def _report_skeleton(cfg: ScenarioConfig) -> VerificationReport:
    return VerificationReport(
        metadata={
            "config": {
                "scenario": cfg.scenario,
                "omega": cfg.omega,
                "hbar": cfg.hbar,
                "drive": cfg.drive_kind,
                "drive_value": cfg.drive_value,
                "amplitude": cfg.amplitude,
                "frequency": cfg.frequency,
                "t_ref": cfg.t_ref,
                "t0": cfg.t0,
                "t1": cfg.t1,
                "samples": cfg.samples,
                "steps_per_sample": cfg.steps_per_sample,
                "fd_step": cfg.fd_step,
                "signature": list(cfg.signature),
                "tol": cfg.tol,
                "pairs": [list(pair) for pair in cfg.sweep],
            },
            "versions": {
                "quasic": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
    )


def run_scenario(cfg: ScenarioConfig) -> int:
    started = time.perf_counter()
    report = _report_skeleton(cfg)
    if cfg.scenario == "static":
        sweeping = len(cfg.sweep) > 1
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for lam, kappa in cfg.sweep:
            rows = _run_static_pair(cfg, lam, kappa, report, sweeping)
            path = _csv_path(cfg, lam, kappa)
            _write_csv(path, rows)
            written.append(path)
    else:
        written = emit_figure_data(cfg, report)

    report.metadata["wall_time_s"] = time.perf_counter() - started
    report_path = cfg.out_dir / f"{cfg.prefix}_report.jsonl"
    report.write_jsonl(report_path)

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.value:.3e} (tol {check.tolerance:.3e})")
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {report_path}")
    n_fail = sum(1 for c in report.checks if not c.passed)
    print(f"{len(report.checks) - n_fail}/{len(report.checks)} checks passed")
    non_finite = {pair: n for pair, n in report.metadata.get("non_finite_samples", {}).items() if n}
    if non_finite:
        where = "; ".join(f"{n} of {cfg.samples} at {pair}" for pair, n in non_finite.items())
        print(f"numerical failure: non-finite samples ({where})", file=sys.stderr)
        return 3
    return 0 if n_fail == 0 else 1


def _parse_sweep(text: str) -> list[tuple[float, float]]:
    if text == "panel-a":
        return list(PANEL_A)
    if text == "panel-b":
        return list(PANEL_B)
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad sweep entry {chunk!r}; expected 'lambda,kappa'")
        pair = (float(parts[0]), float(parts[1]))
        if not all(math.isfinite(x) for x in pair):
            raise ValueError(f"bad sweep entry {chunk!r}; lambda and kappa must be finite")
        pairs.append(pair)
    if not pairs:
        raise ValueError("empty sweep")
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasi-c",
        description="C-operators, invariants and metrics for quasi-Hermitian two-level systems",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, help_text in (
        ("static", "time-independent C-operator, metric and Dyson maps"),
        ("metric-picture", "time-independent Hamiltonian with time-dependent metric"),
        ("full-td", "driven Hamiltonian with the drive-dependent metric"),
    ):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--omega", type=float, default=1.0, help="identity coefficient (default 1)")
        s.add_argument("--lambda", dest="lam", type=float, default=2.0, help="sigma_z coefficient (default 2)")
        s.add_argument("--kappa", type=float, default=1.0, help="imaginary sigma_x coefficient (default 1)")
        s.add_argument("--hbar", type=float, default=1.0)
        s.add_argument("--drive", choices=("const", "sin"), default="const")
        s.add_argument("--drive-value", type=float, default=1.0, help="constant drive value")
        s.add_argument("--amplitude", type=float, default=1.0, help="sine drive amplitude")
        s.add_argument("--frequency", type=float, default=1.0, help="sine drive angular frequency")
        s.add_argument(
            "--t-ref",
            type=float,
            default=None,
            help="antiderivative anchor (default: pi/2/frequency for sin, 0 for const)",
        )
        s.add_argument("--t0", type=float, default=0.0)
        s.add_argument("--t1", type=float, default=10.0)
        s.add_argument("--samples", type=int, default=200)
        s.add_argument("--steps-per-sample", type=int, default=20)
        s.add_argument("--fd-step", type=float, default=1e-5)
        s.add_argument("--signature", choices=sorted(_SIGNATURES), default="+-")
        s.add_argument(
            "--tol",
            type=float,
            default=None,
            help="algebraic tolerance (default: QUASI_C_TOL env var or 1e-10)",
        )
        s.add_argument("--out-dir", type=Path, default=Path("."))
        s.add_argument("--prefix", default="quasi_c")
        s.add_argument(
            "--sweep",
            default=None,
            help="'panel-a', 'panel-b' or 'l1,k1;l2,k2;...'; default: the single --lambda/--kappa pair",
        )
    return parser


# argparse dest -> option; the tolerance is validated with QUASI_C_TOL
_FLOAT_OPTIONS = {
    "omega": "--omega",
    "lam": "--lambda",
    "kappa": "--kappa",
    "hbar": "--hbar",
    "drive_value": "--drive-value",
    "amplitude": "--amplitude",
    "frequency": "--frequency",
    "t_ref": "--t-ref",
    "t0": "--t0",
    "t1": "--t1",
    "fd_step": "--fd-step",
}


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ScenarioConfig:
    for dest, option in _FLOAT_OPTIONS.items():
        value = getattr(args, dest)
        if value is not None and not math.isfinite(value):
            parser.error(f"{option} must be finite")
    if args.t1 <= args.t0:
        parser.error("--t1 must be greater than --t0")
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    if args.steps_per_sample < 1:
        parser.error("--steps-per-sample must be at least 1")
    if args.hbar <= 0:
        parser.error("--hbar must be positive")
    if args.fd_step <= 0:
        parser.error("--fd-step must be positive")
    if args.scenario in ("static", "metric-picture") and args.drive != "const":
        parser.error(f"{args.scenario} requires the constant drive")
    if args.drive == "sin" and args.frequency == 0:
        parser.error("--frequency must be non-zero for the sine drive")
    tol = args.tol
    if tol is None:
        text = os.environ.get("QUASI_C_TOL", "1e-10")
        try:
            tol = float(text)
        except ValueError:
            parser.error(f"QUASI_C_TOL={text!r} is not a number")
    if not (math.isfinite(tol) and tol > 0):
        parser.error("the tolerance (--tol or QUASI_C_TOL) must be finite and positive")
    if args.sweep is not None:
        try:
            sweep = _parse_sweep(args.sweep)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        sweep = [(args.lam, args.kappa)]
    return ScenarioConfig(
        scenario=args.scenario,
        omega=args.omega,
        lam=args.lam,
        kappa=args.kappa,
        hbar=args.hbar,
        drive_kind=args.drive,
        drive_value=args.drive_value,
        amplitude=args.amplitude,
        frequency=args.frequency,
        t_ref=args.t_ref,
        t0=args.t0,
        t1=args.t1,
        samples=args.samples,
        steps_per_sample=args.steps_per_sample,
        fd_step=args.fd_step,
        signature=_SIGNATURES[args.signature],
        tol=tol,
        out_dir=args.out_dir,
        prefix=args.prefix,
        sweep=sweep,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(parser, args)
    try:
        return run_scenario(cfg)
    except (QuasiCError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
