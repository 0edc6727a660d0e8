"""C-operators, constraint suites, metric operators and Dyson maps.

A C-operator is the signature-weighted sum of biorthonormal projectors,
C = sum_n s_n |right_n><left_n| with s_n = +-1.  It squares to the identity,
commutes with the antilinear parity-conjugation symmetry, and in the
time-dependent setting is conserved in the Heisenberg sense, i.e. it solves
the same equation as a Lewis-Riesenfeld invariant.  The metric is recovered
as rho = sigma_z * C and factorizes through a Dyson map as rho = eta^dag eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import BiorthoSystem, biortho_system, completeness_residual
from .errors import InvalidSystemError, NotHermitianError
from .invariants import InvariantForm, _real_entries, lr_residual
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_Z,
    _mat2,
    adjoint,
    commutator,
    det,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
    psd_sqrt,
)
from .model import HamiltonianParams, Regime, hamiltonian_at
from .reporting import VerificationReport

Signature = tuple[int, int]


def validate_signature(sig: Signature) -> Signature:
    if len(sig) != 2 or any(s not in (1, -1) for s in sig):
        raise ValueError("signature must be a pair of +1/-1 entries")
    return (int(sig[0]), int(sig[1]))


@dataclass(frozen=True)
class COperator:
    matrix: np.ndarray


class MetricOperator:
    """A metric rho as its 2x2 matrix.

    A plain slotted class rather than a frozen dataclass: the closed forms
    build one per evaluation, and a frozen dataclass's ``__init__`` (which
    sets its field through ``object.__setattr__``) takes about twice as long.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    @property
    def det(self) -> float:
        return float(np.real(det(self.matrix)))

    def eigenvalues(self, tol: float = 1e-8) -> tuple[float, float]:
        return hermitian_eigenvalues_2x2(self.matrix, tol=tol)


def c_from_system(sys: BiorthoSystem, signature: Signature, tol: float = DEFAULT_TOL) -> COperator:
    """Signature-weighted projector sum over a biorthonormal system.

    The result is invariant under rescaling any right vector by c with the
    compensating 1/conj(c) on its left partner.
    """
    signature = validate_signature(signature)
    resid = completeness_residual(sys)
    if resid > max(tol, 1e-8):
        raise InvalidSystemError(f"completeness residual {resid:.3g}")
    acc = np.zeros((2, 2), dtype=complex)
    for s, pair in zip(signature, sys.pairs):
        acc += s * np.outer(pair.right, np.conj(pair.left))
    return COperator(matrix=acc)


def involution_residual(c: COperator) -> float:
    return frobenius_norm(c.matrix @ c.matrix - IDENTITY)


def pt_commutation_residual(c: COperator) -> float:
    """Antilinear commutation restated linearly: ||sigma_z conj(C) sigma_z - C||."""
    return frobenius_norm(PAULI_Z @ np.conj(c.matrix) @ PAULI_Z - c.matrix)


def parity_pseudo_hermiticity_residual(c: COperator) -> float:
    """||sigma_z C^dag sigma_z - C||."""
    return frobenius_norm(PAULI_Z @ adjoint(c.matrix) @ PAULI_Z - c.matrix)


def static_constraint_suite(
    c: COperator, h: np.ndarray, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """The three constraints of the time-independent theory.

    C^2 = I, commutation with the antilinear symmetry, and [H, C] = 0.
    """
    report = VerificationReport(metadata={"suite": "static-constraints"})
    report.add("c_squared_identity", involution_residual(c), tol)
    report.add("pt_commutation", pt_commutation_residual(c), tol)
    report.add("h_commutation", frobenius_norm(commutator(h, c.matrix)), tol)
    return report


def td_constraint_suite(
    c_at: Callable[[float], np.ndarray],
    p: HamiltonianParams,
    t: float,
    fd_step: float = 1e-5,
    tol: float = DEFAULT_TOL,
    conservation_tol: float = 1e-8,
) -> VerificationReport:
    """Time-dependent replacement of the static constraints at time t.

    The commutation constraint with H becomes the conservation law
    i*hbar dC/dt = [H, C], checked by central differences.  The antilinear
    commutation residual is reported as-is; for the drive-dependent closed
    forms the antilinear map acts as a time reflection about the drive
    anchor, so that residual vanishes only at reflection-fixed times.
    """
    c = COperator(matrix=c_at(t))
    report = VerificationReport(metadata={"suite": "td-constraints", "t": t})
    report.add("c_squared_identity", involution_residual(c), tol)
    report.add("pt_commutation", pt_commutation_residual(c), tol)
    report.add("conservation", lr_residual(c_at, p, t, fd_step=fd_step), conservation_tol)
    return report


def metric_from_c(c: COperator, tol: float = DEFAULT_TOL) -> MetricOperator:
    """rho = sigma_z * C; Hermiticity is required, positivity only reported.

    A non-Hermitian product signals an inconsistent C-operator (for example
    a static construction in the broken regime) and raises NotHermitianError.
    """
    rho = PAULI_Z @ c.matrix
    scale = max(1.0, frobenius_norm(rho))
    resid = frobenius_norm(rho - adjoint(rho))
    if resid > tol * scale:
        raise NotHermitianError(f"sigma_z*C has anti-Hermitian residual {resid:.3g}")
    return MetricOperator(matrix=0.5 * (rho + adjoint(rho)))


def quasi_hermiticity_residual(
    rho_at: Callable[[float], np.ndarray],
    p: HamiltonianParams,
    t: float,
    fd_step: float = 1e-5,
) -> float:
    """|| i*hbar d(rho)/dt - H(t)^dag rho + rho H(t) || by central differences.

    Every member of the family has sigma_z H sigma_z = H^dag, so for
    rho = sigma_z C this defect is sigma_z times the conservation defect
    i*hbar dC/dt - [H, C] of ``invariants.lr_residual``, entry by entry up
    to sign, and the two residuals are the same number.  The command line
    computes and writes both.
    """
    drho = (rho_at(t + fd_step) - rho_at(t - fd_step)) / (2.0 * fd_step)
    h = hamiltonian_at(p, t)
    rho = rho_at(t)
    return frobenius_norm(1j * p.hbar * drho - (adjoint(h) @ rho - rho @ h))


#: The metric rho = sigma_z I has one closed form per invariant form.
MetricForm = InvariantForm


def metric_form_for_regime(regime: Regime) -> MetricForm:
    """The fixed-regime form of a regime; the three regimes share their forms' values."""
    return MetricForm(regime.value)


def closed_form_metric(form: MetricForm, p: HamiltonianParams, t: float) -> MetricOperator:
    """Published closed-form metric rho(t) = sigma_z * I(t) for the family.

    I(t) is the closed-form invariant of the same form.  The drive-dependent
    form FULL_TD holds on and next to the exceptional points lam = +-kappa,
    where its entries take their coalescence limit.
    """
    d, x, y = _real_entries(form, p, t)
    # sigma_z I(t) with I = [[-d, x + iy], [-x + iy, d]]: the second row negated, exactly
    return MetricOperator(matrix=_mat2(-d, x + 1j * y, x - 1j * y, -d))


def dyson_map(rho: MetricOperator) -> np.ndarray:
    """Dyson map from a positive-definite metric.

    The Hermitian square root is the canonical representative of the
    eta^dag eta factorization (unique up to left-unitary factors); maps
    with eigenvector rows come from dyson_from_eigenvectors.
    """
    return psd_sqrt(rho.matrix)


def dyson_from_eigenvectors(sys: BiorthoSystem, tol: float = 1e-8) -> np.ndarray:
    """Dyson map whose rows are the right eigenvectors (descending eigenvalue).

    Its adjoint action diagonalizes the source with the eigenvalues on the
    diagonal in row order; the construction is verified before returning.
    """
    pairs = sorted(
        sys.pairs, key=lambda pr: (-pr.eigenvalue.real, -pr.eigenvalue.imag)
    )
    eta = np.array([pairs[0].right, pairs[1].right], dtype=complex)
    transformed = eta @ sys.source @ np.linalg.inv(eta)
    offdiag = abs(transformed[0, 1]) + abs(transformed[1, 0])
    if offdiag > tol * max(1.0, frobenius_norm(sys.source)):
        raise ValueError("eigenvector rows do not diagonalize the source")
    return eta


def c_from_hamiltonian(
    p: HamiltonianParams, signature: Signature = (1, -1), t: float = 0.0
) -> COperator:
    """Static C-operator of the time-independent member at parameter point p."""
    h = hamiltonian_at(p, t)
    return c_from_system(biortho_system(h), signature)
