"""Per-layer tracing of quasic from outside the package.

The tracer wraps selected public functions of each ``quasic`` module and
rebinds every name in every ``quasic.*`` namespace that refers to the
original function, so calls between modules (``cli`` -> ``coperator`` ->
``invariants``) go through the wrappers too.  ``Tracer.installed()``
restores every rebound attribute on exit.  No file of the package changes.

A *span* function records its call count, its inclusive time and the time
its callers spend in it; a *count* function only records calls, because it
is called so often that timing it would distort the run.  A module's self
time is the time of its spans minus the time of the spans they enclose, so
the self times of all modules add up to the time of the outermost spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from time import perf_counter

# module -> wrapped functions; "Class.method" names a method
SPANS = {
    "cli": ("main", "run_scenario"),
    "reporting": ("VerificationReport.add", "VerificationReport.write_jsonl"),
    "coperator": ("closed_form_metric", "quasi_hermiticity_residual"),
    "invariants": ("time_ordered_propagate", "closed_form_invariant", "lr_residual"),
    "evolution": ("tdse_integrate", "phase_alpha", "aligned_eigenstate_trace"),
    "biortho": ("biortho_system",),
    "model": ("hamiltonian_at",),
    "linalg": ("mat_exp", "eigen_2x2"),
}
COUNTS = {
    "invariants": ("coefficient_matrix",),
    "evolution": ("c_from_evolution",),
    "model": ("hamiltonian_coefficients", "classify_regime"),
    "linalg": ("hermitian_eigenvalues_2x2", "frobenius_norm"),
}
# span -> (work metric, argument holding the step count, grid points per step count)
WORK = {
    "invariants.time_ordered_propagate": ("steps", "steps", 0),
    "evolution.tdse_integrate": ("steps", "steps", 0),
    "evolution.phase_alpha": ("samples", "steps", 1),
}
# span -> per-unit time metric: (name, work metric or None for per call)
PER_UNIT = {
    "invariants.time_ordered_propagate": ("us_per_step", "steps"),
    "evolution.tdse_integrate": ("us_per_step", "steps"),
    "biortho.biortho_system": ("us_per_call", None),
}
# metrics measured from the job's outputs rather than by the tracer
OUTPUT_METRICS = (
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"),
    ("reporting.jsonl_bytes", "B"),
)
RUN_METRICS = (("trace.overhead_frac", "frac"), ("trace.unattributed_s", "s"))


def _key(module: str, name: str) -> str:
    return f"{module}.{name.rpartition('.')[2]}"


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module in SPANS:
        for name in SPANS[module]:
            key = _key(module, name)
            out += [(f"{key}.calls", "count"), (f"{key}.s", "s")]
            if key in WORK:
                out.append((f"{key}.{WORK[key][0]}", "count"))
            if key in PER_UNIT:
                out.append((f"{key}.{PER_UNIT[key][0]}", "us"))
        for name in COUNTS.get(module, ()):
            out.append((f"{_key(module, name)}.calls", "count"))
        out += [(f"{module}.self_s", "s"), (f"{module}.raised", "count")]
    return out + list(OUTPUT_METRICS) + list(RUN_METRICS)


def is_count(unit: str) -> bool:
    """Counts must repeat exactly from one iteration to the next."""
    return unit in ("count", "B")


def quasic_namespaces() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "quasic" or name.startswith("quasic."))
    ]


class Tracer:
    """Counters and span timers for one process; reset between iterations.

    Wrappers update small per-function lists captured in their closures,
    which keeps the cost of a traced call to about a microsecond.
    """

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._functions: dict[str, list] = {}  # key -> [calls, inclusive s, work]
        self._modules = {module: [0.0, 0] for module in SPANS}  # -> [self s, raised]
        self._root = [0.0]

    def reset(self) -> None:
        for cell in self._functions.values():
            cell[:] = [0, 0.0, 0]
        for cell in self._modules.values():
            cell[:] = [0.0, 0]
        self._root[0] = 0.0

    @property
    def root_s(self) -> float:
        """Time inside outermost spans since the last reset."""
        return self._root[0]

    def _span(self, module: str, key: str, fn):
        stack, root = self._stack, self._root
        cell = self._functions[key] = [0, 0.0, 0]
        mod = self._modules[module]
        work = WORK.get(key)
        signature = inspect.signature(fn) if work else None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                mod[1] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                cell[0] += 1
                cell[1] += dur
                mod[0] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    root[0] += dur
                if work:
                    _, arg, extra = work
                    cell[2] += signature.bind(*args, **kwargs).arguments[arg] + extra

        return wrapper

    def _count(self, module: str, key: str, fn):
        cell = self._functions[key] = [0, 0.0, 0]
        mod = self._modules[module]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                mod[1] += 1
                raise

        return wrapper

    def _wrap(self, module: str, name: str, make) -> None:
        mod = importlib.import_module(f"quasic.{module}")
        owner_name, _, attr = name.rpartition(".")
        key = _key(module, name)
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            targets = [(owner, attr)]
        else:
            original = getattr(mod, attr)
            targets = [
                (ns, ref)
                for ns in quasic_namespaces()
                for ref, value in list(vars(ns).items())
                if value is original
            ]
        wrapper = make(module, key, original)
        wrapper.__wrapped__ = original
        for owner, ref in targets:
            self._rebound.append((owner, ref, original))
            setattr(owner, ref, wrapper)

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        importlib.import_module("quasic")
        for module, names in SPANS.items():
            for name in names:
                self._wrap(module, name, self._span)
        for module, names in COUNTS.items():
            for name in names:
                self._wrap(module, name, self._count)

    def uninstall(self) -> None:
        while self._rebound:
            owner, ref, original = self._rebound.pop()
            setattr(owner, ref, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self) -> dict[str, float]:
        """Tracer-derived per-layer metrics of the work since the last reset."""
        out = {}
        for module in SPANS:
            for name in SPANS[module]:
                key = _key(module, name)
                calls, seconds, work = self._functions.get(key, (0, 0.0, 0))
                out[f"{key}.calls"] = calls
                out[f"{key}.s"] = seconds
                if key in WORK:
                    out[f"{key}.{WORK[key][0]}"] = work
                if key in PER_UNIT:
                    metric, per = PER_UNIT[key]
                    units = work if per else calls
                    out[f"{key}.{metric}"] = 1e6 * seconds / units if units else 0.0
            for name in COUNTS.get(module, ()):
                out[f"{_key(module, name)}.calls"] = self._functions.get(_key(module, name), (0,))[0]
            out[f"{module}.self_s"], out[f"{module}.raised"] = self._modules[module]
        return out
