"""C-operators, their constraint residuals, metric operators and Dyson maps.

A C-operator is the signature-weighted sum of biorthonormal projectors,
C = sum_n s_n |right_n><left_n| with s_n = +-1.  It squares to the identity
(``involution_residual``), commutes with the antilinear parity-conjugation
symmetry (``pt_commutation_residual``), and in the time-dependent setting
is conserved in the Heisenberg sense, i.e. it solves the same equation as a
Lewis-Riesenfeld invariant (``invariants.lr_residual``).  The metric is
recovered as rho = sigma_z * C and factorizes through a Dyson map as
rho = eta^dag eta: ``linalg.psd_sqrt`` of a positive-definite metric gives
the Hermitian map, ``dyson_from_eigenvectors`` the one whose rows are the
right eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import BiorthoSystem, _projector_sum
from .errors import NotHermitianError
from .invariants import FD_STEP, InvariantForm, _bound_entries, _conservation_residual, _real_entries
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_Z,
    Rows,
    _mat2_stack,
    adjoint,
    frobenius_norm,
)
from .model import HamiltonianParams

Signature = tuple[int, int]


def validate_signature(sig: Signature) -> Signature:
    if len(sig) != 2 or any(s not in (1, -1) for s in sig):
        raise ValueError("signature must be a pair of +1/-1 entries")
    return (int(sig[0]), int(sig[1]))


@dataclass(frozen=True)
class COperator:
    matrix: np.ndarray


class MetricOperator:
    """A metric rho as its 2x2 matrix, or an (N, 2, 2) stack of them, in ``matrix``.

    A float evaluation of a closed form also carries ``rows``, the matrix as
    two rows of Python complex scalars, ((a00, a01), (a10, a11)): the
    ``ndarray.tolist()`` form, which the residuals' entry-wise kernel reads
    directly.  Such an operator is built from its rows, and ``matrix`` is
    built from them on its first read and kept, with the same bits as a
    matrix built directly; the per-sample loop of the command line reads
    only the rows.  Otherwise ``rows`` is None.

    A plain slotted class rather than a frozen dataclass: the closed forms
    build one per evaluation, and a frozen dataclass's ``__init__`` (which
    sets its field through ``object.__setattr__``) takes about twice as long.
    """

    __slots__ = ("_matrix", "rows")

    def __init__(self, matrix: np.ndarray | None, rows: Rows | None = None) -> None:
        self._matrix = matrix
        self.rows = rows

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            (a00, a01), (a10, a11) = self.rows
            self._matrix = _mat2_stack(a00, a01, a10, a11)
        return self._matrix


def c_from_system(sys: BiorthoSystem, signature: Signature) -> COperator:
    """Signature-weighted projector sum over a biorthonormal system.

    The result is invariant under rescaling any right vector by c with the
    compensating 1/conj(c) on its left partner.  It squares to the identity
    as far as the system is complete: ``biortho_system`` returns systems
    complete to ``biortho.SYSTEM_TOL``, and the command line's static
    scenario reports the residual as its ``completeness`` check.
    """
    pairs = ((pair.right, pair.left) for pair in sys.pairs)
    return COperator(matrix=_projector_sum(pairs, validate_signature(signature)))


def involution_residual(c: COperator) -> float:
    return frobenius_norm(c.matrix @ c.matrix - IDENTITY)


def pt_commutation_residual(a: np.ndarray) -> float:
    """Antilinear commutation restated linearly: ||sigma_z conj(A) sigma_z - A||.

    Zero when the 2x2 matrix A commutes with the parity-conjugation symmetry
    sigma_z * K, as every Hamiltonian of the family and its static
    C-operators do.
    """
    return frobenius_norm(PAULI_Z @ np.conj(a) @ PAULI_Z - a)


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


def _sigma_z_rows(rows: Rows) -> Rows:
    """sigma_z times a 2x2 matrix given as its rows: the second row negated, which is exact."""
    top, (a10, a11) = rows
    return top, (-a10, -a11)


def quasi_hermiticity_residual(
    rho_at: Callable[[float], Rows],
    p: HamiltonianParams,
    t: float,
) -> float:
    """|| i*hbar d(rho)/dt - H(t)^dag rho + rho H(t) || by central differences, of half-span FD_STEP.

    Every member of the family has H^dag = sigma_z H sigma_z, so this defect
    is sigma_z times the conservation defect i*hbar dC/dt - [H, C] of
    C = sigma_z rho, of the same norm: it is computed as such, by the body
    of ``invariants.lr_residual`` on the rows of sigma_z rho.  ``rho_at``
    returns the metric as its rows of Python scalars, the ``tolist()`` form.
    """
    plus, minus = _sigma_z_rows(rho_at(t + FD_STEP)), _sigma_z_rows(rho_at(t - FD_STEP))
    return _conservation_residual(plus, minus, _sigma_z_rows(rho_at(t)), p, t)


#: The metric rho = sigma_z I has one closed form per invariant form.
MetricForm = InvariantForm


def closed_form_metric(form: MetricForm, p: HamiltonianParams, t: float | np.ndarray) -> MetricOperator:
    """Published closed-form metric rho(t) = sigma_z * I(t) for the family.

    I(t) is the closed-form invariant of the same form.  t is a float, for
    which the result carries ``rows`` and builds ``matrix`` from them when
    it is read, or a time array of shape (N,), for which ``matrix`` is the
    (N, 2, 2) stack of the metrics at its entries.  A float evaluation runs
    the form's evaluator bound once per parameter set, like ``p.regime``
    (``invariants._bound_entries``), which does only the t-dependent
    arithmetic.  The three
    fixed-regime forms require the constant drive and a parameter point
    inside their regime (RegimeMismatchError otherwise).  The
    drive-dependent form FULL_TD holds on and next to
    the exceptional points lam = +-kappa, where its entries take their
    coalescence limit.
    """
    # sigma_z I(t) with I = [[-d, x + iy], [-x + iy, d]]: the second row negated, exactly
    if isinstance(t, np.ndarray):
        d, x, y = _real_entries(form, p, np)(t)
        iy = 1j * y
        return MetricOperator(_mat2_stack(-d, x + iy, x - iy, -d))
    d, x, y = _bound_entries(form, p)(t)
    iy = 1j * y
    # a complex diagonal, so that negating a row gives numpy's signed zeros
    nd = complex(-d)
    return MetricOperator(None, ((nd, x + iy), (x - iy, nd)))


def dyson_from_eigenvectors(sys: BiorthoSystem) -> np.ndarray:
    """Dyson map whose rows are the right eigenvectors (descending eigenvalue).

    Its adjoint action diagonalizes the source with the eigenvalues on the
    diagonal in row order.  The command line's static scenario verifies
    that as its ``dyson_rows_diagonalizes`` check.
    """
    pairs = sorted(
        sys.pairs, key=lambda pr: (-pr.eigenvalue.real, -pr.eigenvalue.imag)
    )
    return np.array([pairs[0].right, pairs[1].right], dtype=complex)
