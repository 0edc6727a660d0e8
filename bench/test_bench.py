"""Tests of the benchmark itself (not part of the package's Tier-1 suite).

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import SPANS, Tracer, layer_metrics, quasic_namespaces  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_spec_matches_the_emitted_metric_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer_metrics()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    # two jobs per phase, so the checks that outputs and counts repeat can fail
    assert result["attempted"] == 2 * (1 + trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
    assert provenance["seed"] == SEED
    assert provenance["threads_env"] == dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"
    )
    assert not (ROOT / ".bench_run").exists()


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "td-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_csv_cells_fail_the_job(tmp_path):
    # the broken-regime metric overflows by t1 = 1000; the CLI's max() folds drop the NaN
    size = workloads.CliSize("full-td", "const", 1000.0, 5, 1)
    outcome = workloads.run_job(workloads.Inputs("td-sweep", 0, ((1.0, 2.0),), size), tmp_path)
    assert any("non-finite cells" in p for p in outcome.problems)


def test_jsonl_bytes_leave_out_the_metadata_record(tmp_path):
    # the metadata record carries the CLI's wall time, whose printed length varies
    inputs = workloads.build_inputs("picture-dense", SEED, smoke=True)
    assert not workloads.run_job(inputs, tmp_path).problems
    path = tmp_path / f"{workloads.PREFIX}_report.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["type"] == "metadata"
    sizes = []
    for wall_time in (2.5, 2.0000000000000004):
        record = {**json.loads(lines[0]), "wall_time_s": wall_time}
        path.write_text("\n".join([json.dumps(record, sort_keys=True), *lines[1:]]) + "\n")
        outcome = workloads.Outcome(seconds=1.0, cpu_seconds=1.0)
        workloads._verify_report(inputs, path, outcome)
        assert not outcome.problems
        sizes.append(outcome.jsonl_bytes)
    assert sizes[0] == sizes[1] == sum(len(line) + 1 for line in lines[1:])


def _identities():
    # (module, attribute) -> id of the bound object, including class members
    out = {}
    for ns in quasic_namespaces():
        for ref, value in vars(ns).items():
            out[(ns.__name__, ref)] = id(value)
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    out[(ns.__name__, f"{ref}.{member}")] = id(inner)
    return out


def test_tracer_restores_every_rebound_attribute(tmp_path):
    import quasic
    from quasic import cli, coperator
    from quasic.reporting import VerificationReport

    originals = (quasic.closed_form_metric, VerificationReport.add)
    before = _identities()
    tracer = Tracer()
    with tracer.installed():
        # every namespace that imported the function sees the wrapper
        assert cli.closed_form_metric is coperator.closed_form_metric is quasic.closed_form_metric
        assert quasic.closed_form_metric is not originals[0]
        assert VerificationReport.add is not originals[1]
        changed = {k for k, v in _identities().items() if before.get(k) != v}
        workloads.run_job(workloads.build_inputs("td-sweep", SEED, smoke=True), tmp_path)
    assert ("quasic.cli", "closed_form_metric") in changed
    assert _identities() == before
    assert (quasic.closed_form_metric, VerificationReport.add) == originals


def _traced_job(workload, out_dir):
    inputs = workloads.build_inputs(workload, SEED, smoke=True)
    tracer = Tracer()
    with tracer.installed():
        outcome = workloads.run_job(inputs, out_dir)
    assert not outcome.problems
    return inputs, outcome, tracer.snapshot(), tracer.root_s


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_identities(workload, tmp_path):
    inputs, outcome, m, root_s = _traced_job(workload, tmp_path)
    pairs = len(inputs.pairs)
    size = inputs.size
    assert m["linalg.mat_exp.calls"] == 0
    if workload == "dynamics":
        assert m["evolution.tdse_integrate.steps"] == pairs * (2 * size.rk4_steps + size.phase_steps)
        assert m["evolution.phase_alpha.samples"] == pairs * (size.phase_steps + 1)
        assert m["evolution.c_from_evolution.calls"] == pairs * size.nodes
        assert m["cli.main.calls"] == m["invariants.time_ordered_propagate.calls"] == 0
    else:
        assert m["coperator.closed_form_metric.calls"] == pairs * (8 * size.samples + 1)
        assert m["invariants.time_ordered_propagate.steps"] == pairs * size.samples * size.steps_per_sample
        assert outcome.csv_rows == pairs * size.samples
        for key in ("evolution.tdse_integrate", "evolution.phase_alpha",
                    "evolution.aligned_eigenstate_trace", "biortho.biortho_system"):
            assert m[f"{key}.calls"] == 0
        assert m["evolution.c_from_evolution.calls"] == 0
    # self times partition the time inside outermost spans
    assert math.isclose(sum(m[f"{module}.self_s"] for module in SPANS), root_s, rel_tol=1e-9)
    # counts repeat exactly from one job to the next
    _, _, again, _ = _traced_job(workload, tmp_path)
    counts = [name for name, unit in layer_metrics() if unit == "count" and name in m]
    assert {n: again[n] for n in counts} == {n: m[n] for n in counts}


def test_seed_draws_pairs_from_the_regime_bands():
    for seed in range(50):
        pt, broken, ep = workloads.draw_pairs(seed)
        assert 1.5 <= pt[0] <= 2.5 and 0.5 <= pt[1] <= 1.0
        assert 0.5 <= broken[0] <= 1.0 and 1.5 <= broken[1] <= 2.5
        assert ep[0] == ep[1] and 0.5 <= ep[0] <= 2.0
    assert workloads.draw_pairs(7) == workloads.draw_pairs(7)
