"""Command-line front end.

Three scenarios: ``static`` (time-independent C-operator and metric),
``metric-picture`` (time-independent Hamiltonian, time-dependent metric) and
``full-td`` (driven Hamiltonian).  Each scenario takes only the options it
reads: ``static`` has no time and no drive options and ``metric-picture``
only ``--drive const``, since both take the constant drive tau = 1.
``full-td``'s drive options set only the drive's shape: a drive scaled by
a is the pair (a lambda, a kappa), and ``--frequency`` is taken by the sine
drive only.  Each run writes a CSV time series per (lambda, kappa) pair and
a JSON-lines verification report, prints one PASS/FAIL/INCONCLUSIVE line
per check, and exits 0 when every check passes, 1 when any fails or is
inconclusive (a pass against a scale-derived tolerance above
``reporting.TOLERANCE_CEILING``), 2 on configuration errors (among them a
``--tol`` above that ceiling, against which a pass would verify nothing,
and an output file that cannot be written: the run stops at it, names it
in one stderr line and, where it can, writes the report with a
``csv_write`` failure) and 3 on numerical failures (a defective or nearly
defective eigensystem, lost positivity where the scenario requires it, or
a non-finite check value of any pair in any scenario, reported after the
CSVs and the report are written).  A failure that aborts a pair still
writes the report, with the checks made so far and a ``failure`` record
naming the pair, the stage it aborted in, the exception and its message.
The report's summary record carries the exit code, and a closed standard
output (a reader that quit) does not change it.

CSV columns: t, rho_eig_hi, rho_eig_lo, det_rho, lr_residual,
quasi_residual, c_sq_residual.  Floats are written with 17 significant
digits, so output files are bit-identical across runs of the same
configuration.  A static pair writes one row, at t = 0, since its C and
metric do not depend on time; its lr_residual and quasi_residual are both
the raw h_commutation value ||[H, C]|| (H^dag rho - rho H = sigma_z [H, C],
as H^dag = sigma_z H sigma_z) and its c_sq_residual the raw
c_squared_identity value.  The static checks that carry H (h_commutation
and the two Dyson maps') are divided by ||H|| floored at 1.

A time-dependent pair samples the closed forms and the two residuals per
sample, on the closed forms' ``rows`` of Python scalars (C is rho with its
second row negated, exactly), writing each sample's rows into (N, 2, 2)
arrays, then derives the eigenvalues, det rho, ||C^2 - I||, the folded
check values and the non-finite count in one array pass; each of its check
records carries ``argmax_t``, the sample time of the worst value (the first
non-finite one, if any; t1 for the propagation check).  The metadata
record's ``stage_s`` holds the wall time of five stages summed over the
pairs: ``static_checks`` (the whole of a static pair before its CSV),
``sampling`` (the per-sample loop), ``array_pass``, ``propagation`` and
``csv_write``.  A stage that aborts adds the time up to its failure.
``stage_work`` holds the work of three stages summed over the pairs, added
when the stage completes: ``sampling`` ``samples``, ``propagation``
``steps`` and ``csv_write`` ``rows`` and ``bytes``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coperator import (
    MetricForm,
    _sigma_z_rows,
    c_from_system,
    closed_form_metric,
    dyson_from_eigenvectors,
    involution_residual,
    metric_form_for_regime,
    metric_from_c,
    pt_commutation_residual,
    quasi_hermiticity_residual,
)
from .biortho import biortho_system, completeness_residual
from .errors import QuasiCError
from .invariants import closed_form_invariant, lr_residual, time_ordered_propagate
from .linalg import (
    IDENTITY,
    PAULI_Z,
    Rows,
    _max1,
    adjoint,
    commutator,
    det_real_stack,
    frobenius_norm,
    frobenius_norm_stack,
    hermitian_eigenvalues_2x2,
    hermitian_eigenvalues_stack,
    hypot_norm_stack,
    psd_sqrt,
)
from .model import (
    ConstantDrive,
    HamiltonianParams,
    SineDrive,
    hamiltonian_at,
)
from .reporting import TOLERANCE_CEILING, VerificationReport

_EPS64 = float(np.finfo(float).eps)

PANEL_A = ((2.0, 1.0), (3.0, 1.0), (2.0, 1.5))
PANEL_B = ((1.0, 2.0), (1.0, 3.0), (1.5, 2.0))

# (-1, -1) has no entry: argparse reads '--' as the end of the options
_SIGNATURES = {"+-": (1, -1), "-+": (-1, 1), "++": (1, 1)}

_COLUMNS = ("t", "rho_eig_hi", "rho_eig_lo", "det_rho", "lr_residual", "quasi_residual", "c_sq_residual")
# the bytes csv.writer wrote for these cells: no quoting, \r\n line ends
_CSV_HEADER = ",".join(_COLUMNS) + "\r\n"
_CSV_ROW = ",".join(["%.17g"] * len(_COLUMNS)) + "\r\n"
_STAGES = ("static_checks", "sampling", "array_pass", "propagation", "csv_write")


def _fd_tol(cfg: argparse.Namespace) -> float:
    return max(1e-8, cfg.tol)


def _positivity_defect(rho: np.ndarray, hi, lo):
    """-lo, or |hi + lo - tr rho| where that is larger, for the eigenvalues (hi, lo) of each metric rho.

    hi + lo is twice the computed half trace, so it matches tr rho to a few
    ulp of the eigenvalues; a defect within the positivity check's roundoff
    bound says that lo is positive and that the pair sums to the trace.
    np.maximum propagates NaN.
    """
    trace = rho[..., 0, 0].real + rho[..., 1, 1].real
    return np.maximum(-lo, np.abs(hi + lo - trace))


def _params(cfg: argparse.Namespace, lam: float, kappa: float) -> HamiltonianParams:
    """A time-dependent pair's H: metric-picture's constant drive, or full-td's --drive."""
    drive = ConstantDrive()
    if cfg.scenario == "full-td":
        if cfg.drive == "sin":
            drive = SineDrive(frequency=cfg.frequency, t_ref=cfg.t_ref)
        else:
            drive = ConstantDrive(t_ref=cfg.t_ref)
    return HamiltonianParams(omega=cfg.omega, lam=lam, kappa=kappa, hbar=cfg.hbar, drive=drive)


def _csv_path(cfg: argparse.Namespace, lam: float, kappa: float) -> Path:
    return cfg.out_dir / f"{cfg.prefix}_{cfg.scenario}_{lam:g}_{kappa:g}.csv"


def _write_csv(path: Path, columns: np.ndarray) -> int:
    """Write the (7, samples) column array, one row per sample, in one call; return its bytes."""
    cells = columns.T.ravel().tolist()
    text = _CSV_HEADER + (_CSV_ROW * columns.shape[1]) % tuple(cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # ASCII only: one byte per character
        return fh.write(text)


class _StageClock:
    """Wall time and work per stage into a report's ``stage_s`` and ``stage_work``; ``current`` names the stage in progress."""

    def __init__(self, report: VerificationReport):
        self._stage_s = report.metadata["stage_s"]
        self._stage_work = report.metadata["stage_work"]
        self.current: str | None = None
        self._started = 0.0

    def enter(self, stage: str | None) -> None:
        """End the stage in progress, adding its time, and start ``stage`` (None: none)."""
        now = time.perf_counter()
        if self.current is not None:
            self._stage_s[self.current] += now - self._started
        self.current, self._started = stage, now

    def count(self, **work: int) -> None:
        """Add the work of the stage in progress."""
        for name, n in work.items():
            self._stage_work[self.current][name] += n


def _pair_name(lam: float, kappa: float) -> str:
    return f"lambda={lam:g},kappa={kappa:g}"


def _pair_checks(report: VerificationReport, lam: float, kappa: float, sweeping: bool):
    """report.add for one pair's checks: the name tagged with the pair when sweeping, and the pair as a field."""

    def add(name: str, value: float, tolerance: float, **fields) -> None:
        tagged = f"{name}[{_pair_name(lam, kappa)}]" if sweeping else name
        report.add(tagged, value, tolerance, pair=(lam, kappa), **fields)

    return add


def _run_static_pair(cfg: argparse.Namespace, lam: float, kappa: float, report, sweeping: bool, clock: _StageClock):
    clock.enter("static_checks")
    h = hamiltonian_at(HamiltonianParams(cfg.omega, lam, kappa), 0.0)
    sys_h = biortho_system(h)
    # ||H|| without squaring an entry, which overflows from ~1e154
    scale = max(1.0, float(hypot_norm_stack(h)))
    add = _pair_checks(report, lam, kappa, sweeping)
    add("completeness", completeness_residual(sys_h), cfg.tol)
    c = c_from_system(sys_h, cfg.signature)
    c_sq = involution_residual(c)
    lr = frobenius_norm(commutator(h, c.matrix))
    add("c_squared_identity", c_sq, cfg.tol)
    add("pt_commutation", pt_commutation_residual(c.matrix), cfg.tol)
    add("h_commutation", lr / scale, cfg.tol)

    rho_raw = PAULI_Z @ c.matrix
    herm = frobenius_norm(rho_raw - adjoint(rho_raw))
    add("metric_hermiticity", herm, cfg.tol)
    eig_hi = eig_lo = float("nan")
    if herm <= cfg.tol:
        metric = metric_from_c(c, tol=cfg.tol)
        eig_hi, eig_lo = hermitian_eigenvalues_2x2(metric.matrix, tol=1e-8)
        positivity = float(_positivity_defect(metric.matrix, eig_hi, eig_lo))
        add("metric_positive_definite", positivity, 64.0 * _EPS64 * max(1.0, abs(eig_hi)), scaled=True)
        if eig_lo > 0:
            eta = psd_sqrt(metric.matrix)
            hmapped = eta @ h @ np.linalg.inv(eta)
            add("dyson_sqrt_hermitian_image", frobenius_norm(hmapped - adjoint(hmapped)) / scale, _fd_tol(cfg))
        rows_eta = dyson_from_eigenvectors(sys_h)
        diag = rows_eta @ h @ np.linalg.inv(rows_eta)
        add("dyson_rows_diagonalizes", (abs(diag[0, 1]) + abs(diag[1, 0])) / scale, _fd_tol(cfg))

    det_rho = float(det_real_stack(rho_raw))
    # one row: C and the metric do not depend on time; the quasi-Hermiticity residual is lr (module docstring)
    return np.array([[0.0, eig_hi, eig_lo, det_rho, lr, lr, c_sq]]).T


def _run_td_pair(cfg: argparse.Namespace, lam: float, kappa: float, report, sweeping: bool, clock: _StageClock):
    clock.enter("sampling")
    p = _params(cfg, lam, kappa)
    if cfg.scenario == "metric-picture":
        form = metric_form_for_regime(p.regime)
    else:
        form = MetricForm.FULL_TD

    def rho_at(t: float) -> Rows:
        return closed_form_metric(form, p, t).rows

    def c_at(t: float) -> Rows:
        return _sigma_z_rows(closed_form_metric(form, p, t).rows)

    ts = np.linspace(cfg.t0, cfg.t1, cfg.samples)
    rho = np.empty((cfg.samples, 2, 2), dtype=complex)
    cmat = np.empty_like(rho)
    lr = np.empty(cfg.samples)
    quasi = np.empty(cfg.samples)
    # non-finite samples are counted and reported below, so no stage warns about them
    with np.errstate(all="ignore"):
        # Python floats: t +- FD_STEP in the residuals is then float arithmetic, with the same doubles
        for k, t in enumerate(ts.tolist()):
            rho[k] = rho_at(t)
            cmat[k] = c_at(t)
            lr[k] = lr_residual(c_at, p, t)
            quasi[k] = quasi_hermiticity_residual(rho_at, p, t)
        clock.count(samples=cfg.samples)
        clock.enter("array_pass")

        eig_hi, eig_lo = hermitian_eigenvalues_stack(rho, tol=1e-8)
        det_rho = det_real_stack(rho)
        c_sq = frobenius_norm_stack(np.matmul(cmat, cmat) - IDENTITY)
        columns = np.stack((ts, eig_hi, eig_lo, det_rho, lr, quasi, c_sq))
        # CSV keeps raw residuals; checks normalize by the metric scale,
        # whose hyperbolic growth sets the attainable floating-point floor.
        # The scale squares no entry, so it stays finite past ~1.3e154 and a
        # finite residual does not read 0 there.
        scale = _max1(hypot_norm_stack(rho))
        positivity = _positivity_defect(rho, eig_hi, eig_lo)
        folds = np.stack((lr / scale, quasi / scale, c_sq / (scale * scale), np.abs(det_rho - 1.0), positivity, eig_hi))
    # np.maximum and np.max propagate NaN, and np.argmax stops at the first
    # NaN, so a non-finite sample cannot vanish from a check or its location
    max_lr, max_quasi, max_csq, max_det_dev, max_neg, max_hi = np.maximum(
        np.max(folds, axis=1), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    ).tolist()
    at_lr, at_quasi, at_csq, at_det, at_neg, _ = ts[np.argmax(folds, axis=1)].tolist()
    bad_lr, bad_quasi, bad_csq, bad_det, bad_neg, _ = np.count_nonzero(~np.isfinite(folds), axis=1).tolist()
    n_nonfinite = int(np.count_nonzero(~np.isfinite(columns).all(axis=0)))
    report.metadata.setdefault("non_finite_samples", {})[_pair_name(lam, kappa)] = n_nonfinite

    add = _pair_checks(report, lam, kappa, sweeping)
    add("lr_residual_max", max_lr, _fd_tol(cfg), argmax_t=at_lr, n_nonfinite=bad_lr)
    add("quasi_hermiticity_max", max_quasi, _fd_tol(cfg), argmax_t=at_quasi, n_nonfinite=bad_quasi)
    add("c_squared_identity_max", max_csq, cfg.tol, argmax_t=at_csq, n_nonfinite=bad_csq)
    # det roundoff also grows with the square of the entry scale
    det_tol = max(1e-9, 16.0 * _EPS64 * max_hi * max_hi)
    add("det_rho_unit_max_dev", max_det_dev, det_tol, scaled=True, argmax_t=at_det, n_nonfinite=bad_det)
    add("metric_positive_definite", max_neg, 64.0 * _EPS64 * max_hi, scaled=True, argmax_t=at_neg, n_nonfinite=bad_neg)
    clock.enter("propagation")

    # propagate the closed form from its anchor and compare with it at t1
    start = p.drive.t_ref
    steps = cfg.samples * cfg.steps_per_sample
    with np.errstate(all="ignore"):
        final = time_ordered_propagate(p, closed_form_invariant(form, p, start), start, cfg.t1, steps)
        target = np.array(c_at(cfg.t1), dtype=complex)
        prop_err = frobenius_norm(final - target) / max(1.0, frobenius_norm(target))
    clock.count(steps=steps)
    add("propagation_consistency", prop_err, 1e-6, argmax_t=cfg.t1)
    return columns


def _report_skeleton(cfg: argparse.Namespace) -> VerificationReport:
    return VerificationReport(
        metadata={
            "config": {name: value for name, value in vars(cfg).items() if name not in ("out_dir", "prefix")},
            "stage_s": dict.fromkeys(_STAGES, 0.0),
            "stage_work": {"sampling": {"samples": 0}, "propagation": {"steps": 0}, "csv_write": {"rows": 0, "bytes": 0}},
            "versions": {
                "quasic": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
        }
    )


def run_scenario(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    # an unusable output location is a configuration error, refused before anything is computed
    if os.path.basename(cfg.prefix) != cfg.prefix:
        print(f"configuration error: --prefix {cfg.prefix!r} contains a path separator", file=sys.stderr)
        return 2
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: --out-dir {str(cfg.out_dir)!r} cannot be created: {exc.strerror}", file=sys.stderr)
        return 2
    report = _report_skeleton(cfg)
    run_pair = _run_static_pair if cfg.scenario == "static" else _run_td_pair
    sweeping = len(cfg.pairs) > 1
    clock = _StageClock(report)
    written = []
    failure = unwritable = None
    for lam, kappa in cfg.pairs:
        path = _csv_path(cfg, lam, kappa)
        try:
            columns = run_pair(cfg, lam, kappa, report, sweeping, clock)
            clock.enter("csv_write")
            clock.count(rows=columns.shape[1], bytes=_write_csv(path, columns))
        except (QuasiCError, ArithmeticError, OSError) as exc:
            failure = exc
            if isinstance(exc, OSError):
                unwritable = path
            report.metadata["failure"] = {
                "pair": _pair_name(lam, kappa),
                "stage": clock.current,
                "exception": type(exc).__name__,
                "message": str(exc),
            }
            break
        finally:
            clock.enter(None)
        written.append(path)

    n_fail = sum(1 for c in report.checks if not c.passed)
    non_finite = {pair: n for pair, n in report.metadata.get("non_finite_samples", {}).items() if n}
    diverged = list(dict.fromkeys(_pair_name(*c.pair) for c in report.checks if c.n_nonfinite))
    diverged = [pair for pair in diverged if pair not in non_finite]
    if unwritable is not None:
        report.exit_code = 2
    elif failure is not None or non_finite or diverged:
        report.exit_code = 3
    else:
        report.exit_code = 0 if n_fail == 0 else 1
    report.metadata["wall_time_s"] = time.perf_counter() - started
    report_path = cfg.out_dir / f"{cfg.prefix}_report.jsonl"
    try:
        report.write_jsonl(report_path)
        written.append(report_path)
    except OSError as exc:
        # the run's outputs are incomplete, whatever its checks gave
        report.exit_code = 2
        if unwritable is None:
            failure, unwritable = exc, report_path

    lines = [f"[{c.status.upper()}] {c.name}: {c.value:.3e} (tol {c.tolerance:.3e})" for c in report.checks]
    lines += [f"wrote {path}" for path in written]
    n_inconclusive = sum(1 for c in report.checks if c.status == "inconclusive")
    inconclusive = f" ({n_inconclusive} inconclusive)" if n_inconclusive else ""
    lines.append(f"{len(report.checks) - n_fail}/{len(report.checks)} checks passed{inconclusive}")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # outputs and exit code stand; os.devnull takes the flush at exit (Python's SIGPIPE recipe)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    if unwritable is not None:
        print(f"configuration error: {str(unwritable)!r} cannot be written: {failure.strerror}", file=sys.stderr)
    elif failure is not None:
        print(f"numerical failure: {failure}", file=sys.stderr)
    elif non_finite or diverged:
        where = "; ".join(f"{n} of {cfg.samples} at {pair}" for pair, n in non_finite.items())
        problems = [f"non-finite samples ({where})"] if non_finite else []
        problems += [f"non-finite check values at {pair}" for pair in diverged]
        print(f"numerical failure: {'; '.join(problems)}", file=sys.stderr)
    return report.exit_code


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
    return pairs


# argparse's own negative-number pattern (-1, -1.5, -.5) has no exponent
# form and no lists, so it would read the value of '--omega -1e-3' or
# '--sweep -1,2;1,-2' as an option, and '--signature -+' likewise; no option
# of these parsers looks like a number or '-+', so the wider pattern is
# unambiguous
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
_NEGATIVE_VALUE = re.compile(rf"^-{_NUMBER}([,;][+-]?{_NUMBER})*$|^-\+$")


def _finite_float(text: str) -> float:
    """Type of the float options; argparse names the option it refuses."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """One subparser per scenario, with only the options that scenario reads."""
    parser = argparse.ArgumentParser(
        prog="quasi-c",
        description="C-operators, invariants and metrics for quasi-Hermitian two-level systems",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    # no abbreviations: each option has one spelling ('static --t 1' would otherwise set --tol)
    static, picture, driven = scenarios = [
        sub.add_parser(name, help=help_text, allow_abbrev=False)
        for name, help_text in (
            ("static", "time-independent C-operator, metric and Dyson maps"),
            ("metric-picture", "time-independent Hamiltonian with time-dependent metric"),
            ("full-td", "driven Hamiltonian with the drive-dependent metric"),
        )
    ]
    for s in scenarios:
        s._negative_number_matcher = _NEGATIVE_VALUE
        s.add_argument("--omega", type=_finite_float, default=1.0, help="identity coefficient (default 1)")
        s.add_argument("--lambda", dest="lam", type=_finite_float, default=2.0, help="sigma_z coefficient (default 2)")
        s.add_argument("--kappa", type=_finite_float, default=1.0, help="imaginary sigma_x coefficient (default 1)")
    for s in (picture, driven):
        s.add_argument("--hbar", type=_finite_float, default=1.0)
    # the fixed-regime closed forms solve the invariant equation for the constant drive only
    picture.add_argument("--drive", choices=("const",), default="const")
    driven.add_argument("--drive", choices=("const", "sin"), default="const")
    driven.add_argument("--frequency", type=_finite_float, default=None, help="sine drive angular frequency (default 1)")
    driven.add_argument(
        "--t-ref",
        type=_finite_float,
        default=None,
        help="antiderivative anchor (default: pi/2/frequency for sin, 0 for const)",
    )
    for s in (picture, driven):
        s.add_argument("--t0", type=_finite_float, default=0.0)
        s.add_argument("--t1", type=_finite_float, default=10.0)
        s.add_argument("--samples", type=int, default=200)
        s.add_argument("--steps-per-sample", type=int, default=20)
    static.add_argument("--signature", choices=list(_SIGNATURES), default="+-")
    for s in scenarios:
        s.add_argument("--tol", type=_finite_float, default=1e-10, help="algebraic tolerance in (0, 1e-6] (default 1e-10)")
        s.add_argument("--out-dir", type=Path, default=Path("."))
        s.add_argument("--prefix", default="quasi_c", help="file name prefix, without a path separator")
        s.add_argument(
            "--sweep",
            default=None,
            help="'panel-a', 'panel-b' or 'l1,k1;l2,k2;...'; default: the single --lambda/--kappa pair",
        )
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """The run's configuration: the scenario's options, checked and resolved.

    --lambda, --kappa and --sweep become ``pairs``, static's --signature its
    pair of signs and full-td's ``t_ref`` the drive anchor (--t-ref, or its
    default for the drive).  full-td's ``frequency`` is the sine drive's, 1
    by default; the constant drive reads none, so a const run refuses
    --frequency and drops the entry.  The report's metadata echoes every
    entry but ``out_dir`` and ``prefix``.
    """
    if args.scenario == "static":
        # argparse strips the value of '--signature=--' and passes [] ('--signature --' ends the options)
        if args.signature == []:
            parser.error(f"argument --signature: invalid choice: '--' (choose from {', '.join(map(repr, _SIGNATURES))})")
        args.signature = _SIGNATURES[args.signature]
    else:
        if args.t1 <= args.t0:
            parser.error("--t1 must be greater than --t0")
        if not math.isfinite(args.t1 - args.t0):
            parser.error("the time window --t1 - --t0 must be finite")
        if args.samples < 2:
            parser.error("--samples must be at least 2")
        if args.steps_per_sample < 1:
            parser.error("--steps-per-sample must be at least 1")
        if args.hbar <= 0:
            parser.error("--hbar must be positive")
    if args.scenario == "full-td":
        if args.drive == "sin":
            args.frequency = 1.0 if args.frequency is None else args.frequency
            if args.frequency == 0:
                parser.error("--frequency must be non-zero for the sine drive")
        elif args.frequency is not None:
            parser.error("--frequency sets the sine drive; the constant drive has none")
        else:
            del args.frequency
        if args.t_ref is None:
            args.t_ref = math.pi / 2 / args.frequency if args.drive == "sin" else 0.0
        # t1 is finite, so this also refuses an infinite anchor (pi/2 over a subnormal frequency)
        if not math.isfinite(args.t1 - args.t_ref):
            parser.error(f"the drive anchor --t-ref ({args.t_ref:g}) and the window --t1 - --t-ref must be finite")
    if not 0 < args.tol <= TOLERANCE_CEILING:
        parser.error(f"--tol must be positive and at most {TOLERANCE_CEILING:g}, the loosest tolerance of any check")
    if args.sweep is not None:
        try:
            pairs = _parse_sweep(args.sweep)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        pairs = [(args.lam, args.kappa)]
    # the CSV file and the report tag name a pair by its :g digits
    named: dict[str, tuple[float, float]] = {}
    for pair in pairs:
        name = _pair_name(*pair)
        if name in named:
            parser.error(f"sweep pairs {named[name]} and {pair} share the name {name} and would write one CSV file")
        named[name] = pair
    args.pairs = pairs
    del args.lam, args.kappa, args.sweep  # resolved into pairs
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_scenario(_config_from_args(parser, args))


if __name__ == "__main__":
    raise SystemExit(main())
