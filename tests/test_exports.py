"""The ``quasic`` namespace is the README's library example, the constant drive and the exceptions."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

import quasic
from quasic import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> set:
    """The names of the README python block's ``from quasic import (...)``, the block as CI runs it."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    found = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom) and node.module == "quasic"]
    assert len(found) == 1
    return {alias.name for alias in found[0].names}


def public_names() -> set:
    return {name for name, value in vars(quasic).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_exports_are_the_readme_example_the_constant_drive_and_the_errors():
    exceptions = {name for name, value in vars(errors).items() if inspect.isclass(value) and issubclass(value, errors.QuasiCError)}
    assert len(readme_imports()) == 13 and len(exceptions) == 8
    assert public_names() == readme_imports() | {"ConstantDrive"} | exceptions


@pytest.mark.parametrize(
    "module, name",
    [
        ("linalg", "psd_sqrt"),
        ("linalg", "PAULI_Z"),
        ("reporting", "VerificationReport"),
        ("biortho", "completeness_residual"),
        ("coperator", "dyson_from_eigenvectors"),
        ("evolution", "aligned_eigenstate_trace"),
        ("invariants", "lr_residual"),
        ("model", "classify_regime"),
    ],
)
def test_other_names_live_in_their_modules(module, name):
    assert not hasattr(quasic, name)
    assert hasattr(importlib.import_module(f"quasic.{module}"), name)
