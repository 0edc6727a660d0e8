"""Mutation run over the closed forms and the check kernels: every small fault in them must fail a command-line run.

Run from the repository root (it imports the package from ``src/``):

    python tests/mutation.py

A mutant changes one operator or literal of a function in ``TARGETS``:
the closed forms (``_drive_entries``, ``_real_entries``, ``_sinhc`` and
``_sinhc_array`` in ``quasic.invariants``), the kernels that the checks of
a command-line run compute with (``_derivative_defect``, the norm, det and
eigenvalue stacks, ``_max1`` and ``_expm1_pauli`` in ``quasic.linalg``),
the propagator ``time_ordered_propagate`` and H's entries
(``quasic.model._hamiltonian_entries``).  The changes are + <-> -,
* <-> /, a dropped unary minus (written as a unary plus), or a float
literal scaled by 1 + 1e-6.  A literal that the scaling leaves equal, such
as 0.0, gives no mutant.  The mutated function is compiled in its module's
namespace and rebound in every ``quasic`` module that holds the original
(``coperator`` imports ``_real_entries`` by name, ``cli`` the kernels).  Then
``quasic.cli.main`` runs in process on non-unit pairs of every regime and
sign, at hbar = 1.7, under metric-picture and both full-td drives, the sine
drive also anchored off its symmetry axis (--t-ref 0.3, at twice the
default --steps-per-sample).  At a unit lambda or kappa, products such as
kappa * kappa and kappa / kappa are equal, so such pairs could not tell
those mutants apart.  A mutant is killed when some run exits non-zero or
raises.

A mutant that survives must be allowlisted: in ``EQUIVALENT`` with the
reason it computes the same numbers, or, if no command-line run reaches
it, in ``TIER1_KILLERS`` with the Tier-1 test that kills it.  The run checks
each such test: it runs it under the mutant in a subprocess and requires
it to fail.  An allowlist entry that names no mutant, or one that the
command-line runs kill, is stale.  The run exits 0 when every mutant is
killed or allowlisted and no entry is stale, and 1 otherwise, naming each
problem.  pytest does not collect this file; its name does not start with
``test_``.
"""

from __future__ import annotations

import __future__
import argparse
import ast
import contextlib
import copy
import io
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from quasic import cli, invariants, linalg, model  # noqa: E402

# (module, function); the function names are distinct, so a mutant is named by its function
TARGETS = (
    (invariants, "_drive_entries"),
    (invariants, "_real_entries"),
    (invariants, "_sinhc"),
    (invariants, "_sinhc_array"),
    (invariants, "time_ordered_propagate"),
    (linalg, "_derivative_defect"),
    (linalg, "frobenius_norm_stack"),
    (linalg, "hypot_norm_stack"),
    (linalg, "det_real_stack"),
    (linalg, "hermitian_eigenvalues_stack"),
    (linalg, "_max1"),
    (linalg, "_expm1_pauli"),
    (model, "_hamiltonian_entries"),
)
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
LITERAL_SCALE = 1.0 + 1e-6

# PT-symmetric, broken and exceptional-point pairs, each also with lambda and with kappa negated
PAIRS = "2.3,0.7;0.7,2.3;1.3,1.3;-2.3,0.7;2.3,-0.7;-0.7,2.3;0.7,-2.3;-1.3,1.3;1.3,-1.3"
RUN_OPTIONS = ["--hbar", "1.7", "--t1", "3", "--samples", "40", f"--sweep={PAIRS}"]
RUNS = (
    ["metric-picture", *RUN_OPTIONS],
    ["full-td", "--drive", "sin", *RUN_OPTIONS],
    # anchored off pi/2, the axis about which the default sine drive is symmetric, so that a
    # propagation that runs the quadrature backwards from t0 fails propagation_consistency;
    # from 0.3 the broken pairs need twice the default steps to pass it (1.2e-6 against 1e-6)
    ["full-td", "--drive", "sin", "--t-ref", "0.3", "--steps-per-sample", "40", *RUN_OPTIONS],
    ["full-td", "--drive", "const", *RUN_OPTIONS],
)

EQUIVALENT = {
    "_real_entries: (1.0 + x1 * s) / x_div -> (1.0 + x1 * s) * x_div": (
        "the exceptional-point form has xi = 1, so x_div is +-1 and a / x_div equals a * x_div to the bit"
    ),
    "_real_entries: (kk * ss / _SQRT2 + kap * s) / y_div -> (kk * ss / _SQRT2 + kap * s) * y_div": (
        "the exceptional-point form has xi = 1, so y_div is +-1 and a / y_div equals a * y_div to the bit"
    ),
    "_expm1_pauli: 1.0 -> 1.000001 #2": "the placeholder divisor at r = 0, where np.where discards the quotient it divides",
}

_TIME_ARRAYS = "tests/test_invariants.py::TestTimeArrays::test_full_td_same_bits"
_SEQUENTIAL_PRODUCT = "tests/test_invariants.py::TestPropagation::test_same_scheme_as_sequential_product[sine-pt-forward]"
_NORM_AND_DET = "tests/test_linalg.py::TestStackedKernels::test_frobenius_norm_and_det"
_HERMITIAN_EIGENVALUES = "tests/test_linalg.py::TestScalarKernels::test_hermitian_eigenvalues_same_as_numpy_form"
_MAX1 = "tests/test_linalg.py::TestStackedKernels::test_max1_is_pythons_max"
_TAYLOR = "tests/test_linalg.py::TestMatExp::test_against_taylor_oracle"

# No command-line run evaluates a closed form on a time array.  Every run
# calls _expm1_pauli with a2 = 0 and samples Hermitian metrics, whose
# eigenvalues are both positive and whose diagonals are real and equal.
TIER1_KILLERS = {
    "_real_entries: integral(t) / hbar -> integral(t) * hbar": _TIME_ARRAYS,
    "_sinhc_array: np.sinh(r) / r -> np.sinh(r) * r": _TIME_ARRAYS,
    "_sinhc_array: np.sin(r) / r -> np.sin(r) * r": _TIME_ARRAYS,
    "_sinhc_array: -q[neg] -> +q[neg]": _TIME_ARRAYS,
    # the midpoints moved by 5e-7 dt: an O(dt) error far below propagation_consistency's 1e-6
    "time_ordered_propagate: 0.5 -> 0.5000005 #2": _SEQUENTIAL_PRODUCT,
    (
        "frobenius_norm_stack: sq_im[..., 0, 0] + sq_im[..., 1, 0] + (sq_im[..., 0, 1] + sq_im[..., 1, 1])"
        " -> sq_im[..., 0, 0] + sq_im[..., 1, 0] - (sq_im[..., 0, 1] + sq_im[..., 1, 1])"
    ): _NORM_AND_DET,
    "frobenius_norm_stack: sq_re[..., 0, 0] + sq_re[..., 1, 0] -> sq_re[..., 0, 0] - sq_re[..., 1, 0]": _NORM_AND_DET,
    "frobenius_norm_stack: sq_im[..., 0, 0] + sq_im[..., 1, 0] -> sq_im[..., 0, 0] - sq_im[..., 1, 0]": _NORM_AND_DET,
    "frobenius_norm_stack: sq_im[..., 0, 1] + sq_im[..., 1, 1] -> sq_im[..., 0, 1] - sq_im[..., 1, 1]": _NORM_AND_DET,
    "det_real_stack: a00.real * a11.real - a00.imag * a11.imag -> a00.real * a11.real + a00.imag * a11.imag": (
        _NORM_AND_DET
    ),
    # scales p - q, which is 0 on every sampled metric
    "hermitian_eigenvalues_stack: 0.5 -> 0.5000005 #2": _HERMITIAN_EIGENVALUES,
    "hermitian_eigenvalues_stack: tol * scale -> tol / scale": (
        "tests/test_linalg.py::TestScalarKernels::test_not_hermitian_still_raised"
    ),
    "_max1: 1.0 -> 1.000001": _MAX1,
    "_max1: 1.0 -> 1.000001 #2": _MAX1,
    "_expm1_pauli: a1 - 1j * a2 -> a1 + 1j * a2": _TAYLOR,
    "_expm1_pauli: a1 + 1j * a2 -> a1 - 1j * a2": _TAYLOR,
    "_expm1_pauli: a1 * a1 + a2 * a2 -> a1 * a1 - a2 * a2": _TAYLOR,
}


def _sites(function: ast.FunctionDef) -> list[ast.AST]:
    """The mutable nodes of a function, in ast.walk order."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(node)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append(node)
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value * LITERAL_SCALE != node.value:
            found.append(node)
    return found


def _mutate(node: ast.AST) -> None:
    if isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.UnaryOp):
        node.op = ast.UAdd()
    else:
        node.value = node.value * LITERAL_SCALE


def mutants() -> dict[str, tuple[ModuleType, ast.FunctionDef]]:
    """Every mutant by name, 'function: original -> mutated', as (its module, the mutated definition)."""
    found = {}
    for module, target in TARGETS:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        (function,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == target)
        for k in range(len(_sites(function))):
            mutated = copy.deepcopy(function)
            node = _sites(mutated)[k]
            before = ast.unparse(node)
            _mutate(node)
            name = f"{function.name}: {before} -> {ast.unparse(node)}"
            repeat, n = name, 1
            while repeat in found:
                n += 1
                repeat = f"{name} #{n}"
            found[repeat] = (module, mutated)
    return found


@contextlib.contextmanager
def rebound(module: ModuleType, definition: ast.FunctionDef):
    """Compile ``definition`` with the globals of ``module`` and bind it in every quasic module that holds the original."""
    tree = ast.fix_missing_locations(ast.Module(body=[definition], type_ignores=[]))
    code = compile(tree, module.__file__, "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope: dict = {}
    exec(code, vars(module), scope)
    name = definition.name
    replacement, original = scope[name], getattr(module, name)
    holders = [
        module
        for key, module in list(sys.modules.items())
        if (key == "quasic" or key.startswith("quasic.")) and getattr(module, name, None) is original
    ]
    for module in holders:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module in holders:
            setattr(module, name, original)


def killing_run(out_dir: str) -> list[str] | None:
    """The first run that fails (exits non-zero or raises), or None."""
    for argv in RUNS:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*argv, "--out-dir", out_dir])
        except Exception:
            return argv
        if code != 0:
            return argv
    return None


def tier1_kills(name: str, test_id: str) -> bool:
    """Whether the Tier-1 test fails (pytest exit 1) under the mutant, run in a subprocess."""
    done = subprocess.run(
        [sys.executable, __file__, "--under", name, test_id],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 1


def run_pytest_under(name: str, test_id: str) -> int:
    import pytest

    with rebound(*mutants()[name]):
        return int(pytest.main(["-q", "-x", "-p", "no:cacheprovider", test_id]))


def judge() -> int:
    found = mutants()
    problems = []
    for table in (EQUIVALENT, TIER1_KILLERS):
        problems += [f"stale allowlist entry (no such mutant): {name}" for name in table if name not in found]
    with tempfile.TemporaryDirectory() as out_dir:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            failed = killing_run(out_dir)
        if failed is not None:
            print(f"the unmutated package fails a run: {' '.join(failed)}", file=sys.stderr)
            return 1
        survivors = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, (module, definition) in found.items():
                with rebound(module, definition):
                    if killing_run(out_dir) is None:
                        survivors.append(name)
    allowed = 0
    for name in survivors:
        if name in EQUIVALENT:
            allowed += 1
        elif name in TIER1_KILLERS:
            if tier1_kills(name, TIER1_KILLERS[name]):
                allowed += 1
            else:
                problems.append(f"survives the command-line runs and {TIER1_KILLERS[name]}: {name}")
        else:
            problems.append(f"survives every command-line run: {name}")
    problems += [
        f"stale allowlist entry (killed by a command-line run): {name}"
        for name in (*EQUIVALENT, *TIER1_KILLERS)
        if name in found and name not in survivors
    ]
    killed = len(found) - len(survivors)
    print(f"{len(found)} mutants: {killed} killed by the command-line runs, {allowed} allowlisted")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--under", nargs=2, metavar=("MUTANT", "TEST"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.under:
        return run_pytest_under(*args.under)
    return judge()


if __name__ == "__main__":
    raise SystemExit(main())
