"""Biorthonormal left/right eigensystems of non-Hermitian 2x2 matrices.

Construction convention: right vectors carry unit Euclidean norm and the
left vectors are their dual basis, the conjugated rows of V^-1 for
V = [right1 right2], so each left vector absorbs the whole biorthogonal
scale and <left_m|right_n> = delta_mn up to rounding.  Any quantity
assembled from |right><left| pairs is invariant under the residual
rescaling freedom.

Pair ordering: the pair whose right vector has positive parity pseudo-norm
<v|sigma_z|v> comes first (sign classes +, 0, - in that order; descending
eigenvalue inside a class).  With this order the (+1, -1) signature weights
produce the operator whose induced metric sigma_z * C is positive definite
whenever one exists, for Hamiltonians and invariants alike.

``biortho_system`` takes one matrix or an (N, 2, 2) stack.  One matrix,
built once per run, takes plain numpy steps: ``linalg.eigen_2x2`` of the
matrix, det V, the eigenvector condition number from the Gram matrix and
det V, the left vectors from V^-1 = adj(V) / det V, and the sign class of
``_sign_class`` for the pair order.  One eigensolve suffices: the adjoint's
eigenvectors are the dual basis up to scale.  Since V V^-1 is formed
directly, the completeness residual stays at ~eps * cond.  A stack, such
as the closed-form invariant on a time grid in phase reconstruction, takes
the same steps and tests per sample as array passes (``_biortho_stack``),
to within a few ulp: numpy's array products, ``abs`` and hypot round
differently from its scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrixError, NearlyDefectiveError
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    _eigen_stack,
    _max1,
    adjoint,
    det,
    eigen_2x2,
    frobenius_norm,
    frobenius_norm_stack,
    hermitian_eigenvalues_2x2,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class BiorthoPair:
    """One eigenvalue with its right and left vectors.

    A complex and two (2,) arrays; for a stack of N matrices, an (N,) array
    and two (N, 2) arrays.
    """

    eigenvalue: complex | np.ndarray
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class BiorthoSystem:
    pairs: tuple[BiorthoPair, BiorthoPair]
    source: np.ndarray


def _condition_number(v1: np.ndarray, v2: np.ndarray, d: complex | None = None) -> float:
    """Condition number hi / |det V| of the matrix V whose columns are v1 and v2.

    hi, the larger eigenvalue of the Gram matrix V^H V, is the squared
    largest singular value of V and |det V| the product of both, so the
    ratio is the largest over the smallest.  det V = x0 y1 - x1 y0 loses
    only ~eps * cond of relative accuracy as the vectors turn parallel,
    where the Gram matrix's smaller eigenvalue cancels to rounding noise
    from a condition of ~1e8 on.  ``d`` is det V when the caller has it.
    """
    v = np.column_stack([v1, v2])
    hi, _ = hermitian_eigenvalues_2x2(adjoint(v) @ v, tol=1e-8)
    d = abs(det(v) if d is None else d)
    return hi / d if d else math.inf


def biortho_system(a: np.ndarray, tol: float = DEFAULT_TOL) -> BiorthoSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    Right vectors come from the eigendecomposition of ``a``; the left
    vectors are their dual basis, the conjugated rows of V^-1 = adj(V) / det V
    for V = [right1 right2].  Raises DefectiveMatrixError at a coalescent
    (non-diagonalizable) point and NearlyDefectiveError when the
    eigenvector matrix condition exceeds 1e12.

    ``a`` is one 2x2 matrix, or an (N, 2, 2) stack whose system has pairs
    of (N,) eigenvalues and (N, 2) vectors (see ``_biortho_stack``).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 3:
        return _biortho_stack(a, tol)
    right = eigen_2x2(a, tol)
    if right.defective:
        raise DefectiveMatrixError("source matrix is defective")
    r1, r2 = right.first.vector, right.second.vector
    d = complex(r1[0] * r2[1] - r2[0] * r1[1])
    cond = _condition_number(r1, r2, d)
    if cond > COND_LIMIT:
        raise NearlyDefectiveError(f"eigenvector condition {cond:.3g} exceeds {COND_LIMIT:.0e}")
    # for unit right vectors ||left_n|| = 1 / |det V| <= hi / |det V| = cond <= COND_LIMIT
    pairs = [
        BiorthoPair(right.first.value, r1, (np.array([r2[1], -r2[0]]) / d).conj()),
        BiorthoPair(right.second.value, r2, (np.array([-r1[1], r1[0]]) / d).conj()),
    ]
    # sign class, then descending eigenvalue
    pairs.sort(key=lambda pr: (int(_sign_class(pr.right, tol)), -pr.eigenvalue.real, -pr.eigenvalue.imag))
    return BiorthoSystem(pairs=tuple(pairs), source=a)


def _biortho_stack(a: np.ndarray, tol: float) -> BiorthoSystem:
    """biortho_system of each matrix of an (N, 2, 2) stack, in one array pass.

    Every sample goes through the single-matrix path's steps and tests: the
    eigen kernel (``linalg._eigen_stack``), det V and the condition number,
    the left vectors from adj(V) / det V and the pair order.  The results
    agree with the single-matrix path's to a few ulp, in the same pair
    order, since numpy's array hypot, abs and complex products round
    differently from its scalar ones.  If any sample fails, the exception
    is the one the single-matrix path raises on the first failing sample,
    and its message names that sample's index.
    """
    with np.errstate(all="ignore"):
        scale = _max1(frobenius_norm_stack(a))
        (value1, right1), (value2, right2), defective = _eigen_stack(a, scale, tol)
        d = right1[:, 0] * right2[:, 1] - right2[:, 0] * right1[:, 1]
        cond = _condition_stack(right1, right2, d)
        left1 = (np.stack((right2[:, 1], -right2[:, 0]), axis=-1) / d[:, None]).conj()
        left2 = (np.stack((-right1[:, 1], right1[:, 0]), axis=-1) / d[:, None]).conj()

    ill = cond > COND_LIMIT
    failed = defective | ill
    if failed.any():
        k = int(np.argmax(failed))
        if defective[k]:
            raise DefectiveMatrixError(f"source matrix is defective at sample {k}")
        raise NearlyDefectiveError(f"eigenvector condition {cond[k]:.3g} exceeds {COND_LIMIT:.0e} at sample {k}")

    # the order key (sign class, -Re value, -Im value) of each pair, compared as a tuple
    class1, class2 = _sign_class(right1, tol), _sign_class(right2, tol)
    swap = (class2 < class1) | (
        (class2 == class1)
        & ((value2.real > value1.real) | ((value2.real == value1.real) & (value2.imag > value1.imag)))
    )
    column = swap[:, None]
    pairs = (
        BiorthoPair(np.where(swap, value2, value1), np.where(column, right2, right1), np.where(column, left2, left1)),
        BiorthoPair(np.where(swap, value1, value2), np.where(column, right1, right2), np.where(column, left1, left2)),
    )
    return BiorthoSystem(pairs=pairs, source=a)


def _condition_stack(v1: np.ndarray, v2: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``_condition_number`` of each pair of rows of two (N, 2) arrays and their det V, to a few ulp."""
    x0, x1, y0, y1 = v1[:, 0], v1[:, 1], v2[:, 0], v2[:, 1]
    p = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    q = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    g = x0.conj() * y0 + x1.conj() * y1
    hi = 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(g))
    d = np.abs(d)
    return np.divide(hi, d, out=np.full_like(hi, np.inf), where=d != 0)


def _sign_class(right: np.ndarray, tol: float) -> np.ndarray:
    """Sign class of the parity pseudo-norm w = <v|sigma_z|v> of each v of a (..., 2) array.

    0 for w > tol, 2 for w < -tol and 1 in between: the first key of the
    pair order.
    """
    x0, x1 = right[..., 0], right[..., 1]
    w = (x0.real * x0.real + x0.imag * x0.imag) - (x1.real * x1.real + x1.imag * x1.imag)
    return np.where(w > tol, 0, np.where(w < -tol, 2, 1))


def completeness_residual(sys: BiorthoSystem) -> float:
    """Norm of sum_n |right_n><left_n| - identity."""
    acc = np.zeros((2, 2), dtype=complex)
    for pair in sys.pairs:
        acc += np.outer(pair.right, np.conj(pair.left))
    return frobenius_norm(acc - IDENTITY)

