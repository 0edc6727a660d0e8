"""Seeded inputs and verified jobs for the quasic benchmark workloads.

Every workload is a closed loop with one caller: a job starts only after
the previous one finished and was verified.  ``td-sweep`` and
``picture-dense`` call the ``quasi-c`` command line in process through
``quasic.cli.main``; ``dynamics`` drives the ``quasic.evolution`` pipeline
that the command line never reaches.  Jobs call the package through module
attributes (``evolution.tdse_integrate``), so a tracer that rebinds those
attributes sees every call.

The seed only draws the (lambda, kappa) pairs; run sizes never depend on it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from quasic import biortho, cli, coperator, evolution, invariants, linalg, model

WORKLOADS = ("td-sweep", "picture-dense", "dynamics")

# Bands keep the broken-regime metric scale below ~1e2, so no check leans
# on a tolerance inflated by that scale.
PT_BAND = ((1.5, 2.5), (0.5, 1.0))  # lambda, kappa
BROKEN_BAND = (PT_BAND[1], PT_BAND[0])
EP_BAND = (0.5, 2.0)  # lambda = kappa

CHECKS_PER_PAIR = 6  # checks the command line reports for each pair
PREFIX = "bench"


@dataclass(frozen=True)
class CliSize:
    scenario: str
    drive: str
    t1: float
    samples: int
    steps_per_sample: int


@dataclass(frozen=True)
class DynamicsSize:
    t1: float
    rk4_steps: int
    phase_steps: int
    nodes: int = 31


SIZES = {
    "td-sweep": {
        False: CliSize("full-td", "sin", 10.0, 1000, 20),
        True: CliSize("full-td", "sin", 2.0, 40, 5),
    },
    "picture-dense": {
        False: CliSize("metric-picture", "const", 2.0, 4000, 1),
        True: CliSize("metric-picture", "const", 2.0, 40, 1),
    },
    "dynamics": {
        False: DynamicsSize(3.0, 10_000, 3_000),
        True: DynamicsSize(0.3, 1_000, 300),
    },
}

# criterion 10/11 tolerances, unchanged
MATCH_TOL = 1e-5
INVOLUTION_TOL = 1e-6
IMAG_TOL = 1e-6
RECONSTRUCTION_TOL = 1e-6


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    pairs: tuple[tuple[float, float], ...]
    size: CliSize | DynamicsSize


@dataclass
class Outcome:
    """One job: the time of its program work and what verification found.

    ``cpu_seconds`` is the CPU time of this one-thread process; with the
    kernel's steal-time accounting it excludes the time the hypervisor gave
    the CPU to other guests, which ``seconds`` (wall time) includes.
    """

    seconds: float
    cpu_seconds: float
    problems: list[str] = field(default_factory=list)
    oracle_error: float = math.nan
    digests: dict[str, str] = field(default_factory=dict)
    csv_rows: int = 0
    csv_bytes: int = 0
    jsonl_bytes: int = 0


def draw_pairs(seed: int) -> tuple[tuple[float, float], ...]:
    """One (lambda, kappa) pair per regime: PT-symmetric, broken, coalescent."""
    rng = random.Random(seed)

    def draw(band):
        return round(rng.uniform(*band), 4)

    pt = (draw(PT_BAND[0]), draw(PT_BAND[1]))
    broken = (draw(BROKEN_BAND[0]), draw(BROKEN_BAND[1]))
    ep = draw(EP_BAND)
    return (pt, broken, (ep, ep))


def build_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    pairs = draw_pairs(seed)
    if workload == "dynamics":
        pairs = pairs[:2]  # the invariant eigensystem is defective at coalescence
    return Inputs(workload, seed, pairs, SIZES[workload][smoke])


def cli_argv(inputs: Inputs, out_dir: Path) -> list[str]:
    s = inputs.size
    sweep = ";".join(f"{lam!r},{kappa!r}" for lam, kappa in inputs.pairs)
    return [
        s.scenario,
        "--drive", s.drive,
        "--t1", repr(s.t1),
        "--samples", str(s.samples),
        "--steps-per-sample", str(s.steps_per_sample),
        "--sweep", sweep,
        "--out-dir", str(out_dir),
        "--prefix", PREFIX,
    ]


def run_job(inputs: Inputs, out_dir: Path) -> Outcome:
    if inputs.workload == "dynamics":
        return _dynamics_job(inputs)
    return _cli_job(inputs, out_dir)


def _cli_job(inputs: Inputs, out_dir: Path) -> Outcome:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    argv = cli_argv(inputs, out_dir)
    sink = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)
        except SystemExit as exc:  # argparse reports configuration errors this way
            return exc.code
        except Exception as exc:  # a traceback is a failed job, not a failed benchmark
            return f"{type(exc).__name__}: {exc}"

    code, outcome = _timed(call)
    if code != 0:
        outcome.problems.append(f"exit {code}: {sink.getvalue()[-300:]}")
    try:
        _verify_report(inputs, out_dir / f"{PREFIX}_report.jsonl", outcome)
        _verify_csvs(inputs, out_dir, outcome)
    except (ValueError, KeyError, IndexError) as exc:
        outcome.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return outcome


def _timed(call):
    wall, cpu = perf_counter(), process_time()
    result = call()
    return result, Outcome(seconds=perf_counter() - wall, cpu_seconds=process_time() - cpu)


def _verify_report(inputs: Inputs, path: Path, outcome: Outcome) -> None:
    """Every check passes with a finite value; the CLI's verdict is not trusted."""
    if not path.is_file():
        outcome.problems.append("no JSONL report")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    # the metadata record holds the CLI's wall time, whose printed length
    # varies from job to job; the check and summary lines repeat exactly
    outcome.jsonl_bytes = sum(
        len(line.encode("utf-8")) + 1 for line, r in zip(lines, records) if r.get("type") != "metadata"
    )
    checks = [r for r in records if r.get("type") == "check"]
    summary = records[-1]
    expected = CHECKS_PER_PAIR * len(inputs.pairs)
    if summary.get("type") != "summary" or summary.get("n_checks") != expected or len(checks) != expected:
        outcome.problems.append(f"report holds {len(checks)} checks, expected {expected}")
    if summary.get("all_pass") is not True:
        outcome.problems.append("report summary is not all_pass")
    for check in checks:
        if not (check["pass"] is True and math.isfinite(check["value"]) and check["value"] <= check["tolerance"]):
            outcome.problems.append(f"check {check['name']} = {check['value']} (tol {check['tolerance']})")
    oracle = [c["value"] for c in checks if c["name"].startswith("propagation_consistency")]
    if len(oracle) == len(inputs.pairs):
        outcome.oracle_error = float(np.max(oracle))
    else:
        outcome.problems.append("missing propagation_consistency checks")


def _verify_csvs(inputs: Inputs, out_dir: Path, outcome: Outcome) -> None:
    """Hash each CSV and scan every cell: the CLI's max() folds drop NaN."""
    paths = sorted(out_dir.glob("*.csv"))
    if len(paths) != len(inputs.pairs):
        outcome.problems.append(f"{len(paths)} CSV files, expected {len(inputs.pairs)}")
    for path in paths:
        data = path.read_bytes()
        outcome.digests[path.name] = hashlib.sha256(data).hexdigest()
        outcome.csv_bytes += len(data)
        rows = bad = 0
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        next(reader, None)  # header
        for row in reader:
            rows += 1
            bad += sum(1 for cell in row if not math.isfinite(float(cell)))
        outcome.csv_rows += rows
        if rows != inputs.size.samples:
            outcome.problems.append(f"{path.name}: {rows} rows, expected {inputs.size.samples}")
        if bad:
            outcome.problems.append(f"{path.name}: {bad} non-finite cells")


def _dynamics_job(inputs: Inputs) -> Outcome:
    def call():
        try:
            return [_dynamics_pair(inputs.size, lam, kappa) for lam, kappa in inputs.pairs]
        except Exception as exc:  # a raised job is a failed job, not a failed benchmark
            return f"{type(exc).__name__}: {exc}"

    results, outcome = _timed(call)
    if isinstance(results, str):
        outcome.problems.append(results)
        return outcome
    limits = {
        "evolved_c_vs_closed_form": MATCH_TOL,
        "evolved_c_involution": INVOLUTION_TOL,
        "phase_imag_residue": IMAG_TOL,
        "reconstruction_vs_rk4": RECONSTRUCTION_TOL,
    }
    for (lam, kappa), (values, digest) in zip(inputs.pairs, results):
        outcome.digests[f"dynamics_{lam!r}_{kappa!r}"] = digest
        for name, tol in limits.items():
            # written so that NaN fails
            if not values[name] <= tol:
                outcome.problems.append(f"{name}[{lam},{kappa}] = {values[name]} (tol {tol})")
    outcome.oracle_error = float(np.max([v["reconstruction_vs_rk4"] for v, _ in results]))
    return outcome


def _dynamics_pair(size: DynamicsSize, lam: float, kappa: float) -> tuple[dict[str, float], str]:
    """Criteria 10 and 11 for one pair: evolved C(t) and phase reconstruction."""
    p = model.HamiltonianParams(1.0, lam, kappa, drive=model.SineDrive())
    form = invariants.InvariantForm.FULL_TD
    pairs = biortho.biortho_system(invariants.closed_form_invariant(form, p, 0.0)).pairs
    plus, minus = (
        evolution.tdse_integrate(p, pr.right, pr.left, 0.0, size.t1, size.rk4_steps) for pr in pairs
    )
    match, involution = [], []
    for k in np.linspace(0, size.rk4_steps, size.nodes).round().astype(int):
        t = float(plus.grid[k])
        c = evolution.c_from_evolution(plus, minus, (1, -1), t).matrix
        match.append(linalg.frobenius_norm(c - invariants.closed_form_invariant(form, p, t)))
        involution.append(linalg.frobenius_norm(c @ c - linalg.IDENTITY))

    def state_at(t):
        return biortho.biortho_system(invariants.closed_form_invariant(form, p, t)).pairs[0].right

    def rho_at(t):
        return coperator.closed_form_metric(coperator.MetricForm.FULL_TD, p, t).matrix

    trace = evolution.phase_alpha(state_at, p, rho_at, 0.0, size.t1, size.phase_steps)
    states = evolution.aligned_eigenstate_trace(state_at, rho_at, trace.grid)
    reconstructed = states * evolution.phase_factor(trace, p.hbar)[:, None]
    oracle = evolution.tdse_integrate(p, reconstructed[0], reconstructed[0], 0.0, size.t1, size.phase_steps)
    values = {
        "evolved_c_vs_closed_form": float(np.max(match)),
        "evolved_c_involution": float(np.max(involution)),
        "phase_imag_residue": trace.imag_residue,
        "reconstruction_vs_rk4": float(np.max(np.abs(reconstructed - oracle.right_states))),
    }
    digest = hashlib.sha256()
    for array in (plus.right_states, plus.left_states, minus.right_states, minus.left_states,
                  trace.alpha, reconstructed):
        digest.update(np.ascontiguousarray(array).tobytes())
    return values, digest.hexdigest()
