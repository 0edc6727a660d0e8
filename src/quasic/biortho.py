"""Biorthonormal left/right eigensystems of non-Hermitian 2x2 matrices.

Construction convention: right vectors carry unit Euclidean norm and the
left vector of each pair absorbs the whole biorthogonal scale, so that
<left|right> = 1 exactly.  Any quantity assembled from |right><left| pairs
is invariant under the residual rescaling freedom.

Pair ordering: the pair whose right vector has positive parity pseudo-norm
<v|sigma_z|v> comes first (sign classes +, 0, - in that order; descending
eigenvalue inside a class).  With this order the (+1, -1) signature weights
produce the operator whose induced metric sigma_z * C is positive definite
whenever one exists, for Hamiltonians and invariants alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrixError, NearlyDefectiveError
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_Z,
    adjoint,
    eigen_2x2,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class BiorthoPair:
    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class BiorthoSystem:
    pairs: tuple[BiorthoPair, BiorthoPair]
    source: np.ndarray


def _condition_number(v1: np.ndarray, v2: np.ndarray) -> float:
    v = np.column_stack([v1, v2])
    hi, lo = hermitian_eigenvalues_2x2(adjoint(v) @ v, tol=1e-8)
    if lo <= 0:
        return np.inf
    return float(np.sqrt(hi / lo))


def _order_key(pair: BiorthoPair, tol: float):
    w = float(np.real(np.vdot(pair.right, PAULI_Z @ pair.right)))
    if w > tol:
        sign_class = 0
    elif w < -tol:
        sign_class = 2
    else:
        sign_class = 1
    return (sign_class, -pair.eigenvalue.real, -pair.eigenvalue.imag)


def biortho_system(a: np.ndarray, tol: float = DEFAULT_TOL) -> BiorthoSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    Right vectors come from the eigendecomposition of ``a``, left vectors
    from that of ``a``'s adjoint, matched by eigenvalue conjugation.  Raises
    DefectiveMatrixError at a coalescent (non-diagonalizable) point and
    NearlyDefectiveError when the eigenvector matrix condition exceeds 1e12.
    """
    a = np.asarray(a, dtype=complex)
    right_dec = eigen_2x2(a, tol=tol)
    if right_dec.defective:
        raise DefectiveMatrixError("source matrix is defective")
    cond = _condition_number(right_dec.first.vector, right_dec.second.vector)
    if cond > COND_LIMIT:
        raise NearlyDefectiveError(f"eigenvector condition {cond:.3g} exceeds {COND_LIMIT:.0e}")
    left_dec = eigen_2x2(adjoint(a), tol=tol)
    if left_dec.defective:
        raise DefectiveMatrixError("adjoint matrix is defective")

    scale = max(1.0, frobenius_norm(a))
    rights = right_dec.pairs
    lefts = left_dec.pairs
    # match left eigenvectors by minimal |lam_left - conj(lam_right)| cost
    straight = abs(lefts[0].value - np.conj(rights[0].value)) + abs(
        lefts[1].value - np.conj(rights[1].value)
    )
    crossed = abs(lefts[1].value - np.conj(rights[0].value)) + abs(
        lefts[0].value - np.conj(rights[1].value)
    )
    if abs(straight - crossed) <= tol * scale and abs(lefts[0].value - lefts[1].value) > tol * scale:
        raise ValueError("ambiguous left/right eigenvalue pairing")
    order = (0, 1) if straight <= crossed else (1, 0)

    pairs = []
    for i, j in zip((0, 1), order):
        right = rights[i].vector
        raw_left = lefts[j].vector
        overlap = np.vdot(raw_left, right)
        if abs(overlap) < 1.0 / COND_LIMIT:
            raise NearlyDefectiveError("left/right overlap too small to normalize")
        left = raw_left / np.conj(overlap)
        pairs.append(BiorthoPair(eigenvalue=rights[i].value, right=right, left=left))
    pairs.sort(key=lambda pr: _order_key(pr, tol))
    return BiorthoSystem(pairs=(pairs[0], pairs[1]), source=a)


def completeness_residual(sys: BiorthoSystem) -> float:
    """Norm of sum_n |right_n><left_n| - identity."""
    acc = np.zeros((2, 2), dtype=complex)
    for pair in sys.pairs:
        acc += np.outer(pair.right, np.conj(pair.left))
    return frobenius_norm(acc - IDENTITY)


def _canonical_direction(v: np.ndarray) -> np.ndarray:
    # unit norm, first component above threshold rotated to positive real
    n = np.linalg.norm(v)
    if n == 0:
        return v.astype(complex)
    u = v / n
    for comp in u:
        if abs(comp) > 1e-12:
            return u * (np.conj(comp) / abs(comp))
    return u


def check_left_right_parity_relation(sys: BiorthoSystem) -> float:
    """Residual of the parity link between left vectors and sigma_z * right.

    Returns the largest deviation, over the two pairs, between the
    direction-canonicalized left vector and the direction-canonicalized
    sigma_z * right vector.  Zero means each left eigenvector is
    proportional to the parity image of its right partner, which is the
    gauge-invariant content of the link.  The sign of that proportionality
    depends on the normalization gauge (conventions differ between
    constructions), and canonicalizing the direction removes it.
    """
    worst = 0.0
    for pair in sys.pairs:
        w = PAULI_Z @ pair.right
        resid = float(np.linalg.norm(_canonical_direction(pair.left) - _canonical_direction(w)))
        worst = max(worst, resid)
    return worst
