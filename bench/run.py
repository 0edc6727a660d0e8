#!/usr/bin/env python3
"""Benchmark of quasic: time to a verified result on three workloads.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload td-sweep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the jobs run untraced for ``--seconds`` and the
end-to-end metrics are reported.  With ``--trace 1`` the same jobs run
untraced for half of ``--seconds`` and traced for the other half, and the
per-layer metrics are reported.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records provenance.  Readable metrics and
every verification problem go to standard error.  See ``bench/README.md``.

``run_s`` and ``setup_s`` are CPU times of the one-thread workload process,
which exclude the time the hypervisor steals for other guests.  Each is
rescaled by a reference kernel (a fixed loop of 2x2 numpy operations) that
runs between the jobs on the same CPUs: the result reads as CPU seconds on
a machine where the reference kernel takes ``REFERENCE_NOMINAL_S``, so a
shared machine that slows down for minutes at a time does not move it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from tracer import Tracer, is_count, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
CPU_TURN_S = 0.02
SMOKE_JOBS = 2  # enough for the checks that jobs repeat exactly
REFERENCE_LOOPS = 100_000
# reference-kernel CPU time that defines the reported time unit; close to the
# kernel's time on a quiet 2-CPU shared VM (Python 3.11, numpy 2.4), so
# reported times read roughly as CPU seconds there
REFERENCE_NOMINAL_S = 0.5
DIGITS_CAP = 10.0  # oracle errors below 1e-10 are roundoff
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
    ("oracle_digits", "digits"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="td-sweep, picture-dense or dynamics")
    parser.add_argument("--seed", type=int, default=0, help="draws the (lambda, kappa) pairs")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two jobs per phase")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported, here and in the probes
    if not (SRC / "quasic" / "__init__.py").is_file():
        print(f"error: no quasic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        with _rotating_cpus():
            start = process_time()
            import workloads

            workloads.build_inputs(args.workload, args.seed, args.smoke)
            print(json.dumps({"setup_s": process_time() - start}))
        return 0

    import quasic
    import workloads

    if Path(quasic.__file__).resolve().parent != SRC / "quasic":
        print(f"error: imported quasic from {quasic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    inputs = workloads.build_inputs(args.workload, args.seed, args.smoke)
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"

    def job():
        return workloads.run_job(inputs, run_dir)

    try:
        if args.trace:
            outcomes, metrics, problems = _traced(job, args)
        else:
            outcomes, metrics, problems = _untraced(job, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()

    failed = sum(1 for o in outcomes if o.problems)
    for k, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"job {k}: {problem}", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:>48} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"{'jobs':>48} {len(outcomes)} ({failed} failed)", file=sys.stderr)
    for label, times in (("cpu", [o.cpu_seconds for o in outcomes]), ("wall", [o.seconds for o in outcomes])):
        print(f"{label + ' s':>48} " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    print(json.dumps({"provenance": _provenance(args, load_start)}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _setup_probe(args: argparse.Namespace) -> float:
    """Import quasic and build the inputs in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@contextlib.contextmanager
def _rotating_cpus():
    """Move this process to the next allowed CPU every CPU_TURN_S seconds.

    On a shared virtual machine the CPUs can run at persistently different
    speeds (a fixed kernel took 0.09 s on one and 0.15 s on the other), and
    the scheduler keeps a single-threaded process on one CPU for a whole
    run.  Rotating makes every job sample all allowed CPUs alike, so the
    run median does not depend on where the process happened to land.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.count(1)

    def move(signum, frame):
        os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})

    previous = signal.signal(signal.SIGALRM, move)
    signal.setitimer(signal.ITIMER_REAL, CPU_TURN_S, CPU_TURN_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)


def _reference_kernel() -> float:
    """CPU time of a fixed loop of 2x2 numpy operations, the jobs' kind of work."""
    import numpy as np

    a = np.array([[1.0, 0.5j], [0.25, -1.0]])
    v = np.array([1.0, 0.0], dtype=complex)
    start = process_time()
    for _ in range(REFERENCE_LOOPS):
        v = (a @ v) / np.linalg.norm(v)
    return process_time() - start


def _measure(job, budget: float, smoke: bool) -> tuple[list, list[float]]:
    """Closed loop: start the next job only while it is expected to fit the budget.

    The reference kernel runs before the first job and after each one, so
    the jobs and the references sample the same machine state.
    """
    outcomes = []
    start = perf_counter()
    with _rotating_cpus():
        references = [_reference_kernel()]
        while True:
            outcomes.append(job())
            references.append(_reference_kernel())
            if smoke:
                if len(outcomes) == SMOKE_JOBS:
                    return outcomes, references
                continue
            typical = statistics.median(o.seconds for o in outcomes)
            if perf_counter() - start + typical > budget:
                return outcomes, references


def _check_digests(outcomes: list, reference: dict) -> None:
    for outcome in outcomes:
        if outcome.digests != reference:
            outcome.problems.append("outputs differ from the first job's (sha256)")


def _oracle_digits(outcomes: list) -> float:
    errors = [o.oracle_error for o in outcomes]
    if not all(math.isfinite(e) for e in errors):
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(max(errors), 10.0**-DIGITS_CAP)))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(job, args: argparse.Namespace):
    setup = [_setup_probe(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    outcomes, references = _measure(job, args.seconds, args.smoke)
    _check_digests(outcomes, outcomes[0].digests)
    failed = sum(1 for o in outcomes if o.problems)
    for label, times in (("setup probe s", setup), ("reference kernel s", references)):
        print(f"{label:>48} " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    # the reference runs between the jobs, so the ratio of the mean times
    # cancels how fast the shared machine happened to be during this run
    scale = REFERENCE_NOMINAL_S / statistics.fmean(references)
    values = {
        "setup_s": statistics.median(setup) * scale,
        "run_s": statistics.fmean(o.cpu_seconds for o in outcomes) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / len(outcomes),
        "oracle_digits": _oracle_digits(outcomes),
    }
    return outcomes, {name: _metric(values[name], unit) for name, unit in END_TO_END}, []


def _traced(job, args: argparse.Namespace):
    untraced, _ = _measure(job, args.seconds / 2, args.smoke)
    tracer = Tracer()
    per_job = []

    def traced_job():
        tracer.reset()
        outcome = job()
        per_job.append(
            {
                **tracer.snapshot(),
                "cli.csv_rows": outcome.csv_rows,
                "cli.csv_bytes": outcome.csv_bytes,
                "reporting.jsonl_bytes": outcome.jsonl_bytes,
                "trace.unattributed_s": outcome.seconds - tracer.root_s,
            }
        )
        return outcome

    with tracer.installed():
        traced, _ = _measure(traced_job, args.seconds / 2, args.smoke)
    outcomes = untraced + traced
    _check_digests(outcomes, untraced[0].digests)
    overhead = statistics.median(o.cpu_seconds for o in traced) / statistics.median(
        o.cpu_seconds for o in untraced
    ) - 1.0
    metrics, problems = {}, []
    for name, unit in layer_metrics():
        if name == "trace.overhead_frac":
            metrics[name] = _metric(overhead, unit)
            continue
        values = [d[name] for d in per_job]
        if is_count(unit) and len(set(values)) > 1:
            problems.append(f"count {name} differs between jobs: {values}")
        metrics[name] = _metric(values[0] if is_count(unit) else statistics.median(values), unit)
    return outcomes, metrics, problems


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          timeout=30, check=True)
    return done.stdout.strip()


def _git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        return _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def _provenance(args: argparse.Namespace, load_start: tuple[float, float, float]) -> dict:
    import numpy

    commit, dirty = _git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
    }


if __name__ == "__main__":
    raise SystemExit(main())
