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

``biortho_system`` takes one matrix or an (N, 2, 2) stack.  One matrix
goes through Python scalars, since its callers run it once per sample or
once per run: it reads the four entries and runs the eigen kernel
``linalg._eigen_scalars`` on them and on their conjugate transpose,
without building the adjoint array.  The eigenvector condition number, the
sort key and the eigenvalue matching use those scalars too.  The results
are the numpy form's to the bit: ``np.vdot`` forms the biorthogonal
overlap and numpy divides the left vector by it, because a scalar sum
rounds differently from the BLAS.  A stack, such as the closed-form
invariant on a time grid in phase reconstruction, takes the same steps and
tests per sample as array passes (``_biortho_stack``), to within a few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrixError, NearlyDefectiveError
from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    _eigen_scalars,
    _eigen_stack,
    _max1,
    frobenius_norm,
    frobenius_norm_stack,
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


def _condition_number(v1: tuple[complex, complex], v2: tuple[complex, complex]) -> float:
    """Condition number hi / |det V| of the matrix V whose columns are v1 and v2.

    hi, the larger eigenvalue of the Gram matrix V^H V, is the squared
    largest singular value of V and |det V| the product of both, so the
    ratio is the largest over the smallest.  det V = x0 y1 - x1 y0 loses
    only ~eps * cond of relative accuracy as the vectors turn parallel,
    where the Gram matrix's smaller eigenvalue cancels to rounding noise
    from a condition of ~1e8 on.
    """
    (x0, x1), (y0, y1) = v1, v2
    p = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    q = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    g = x0.conjugate() * y0 + x1.conjugate() * y1
    hi = 0.5 * (p + q) + math.hypot(0.5 * (p - q), abs(g))
    det = abs(x0 * y1 - x1 * y0)
    return hi / det if det else math.inf


def _order_key(value: complex, right: tuple[complex, complex], tol: float):
    x0, x1 = right
    # parity pseudo-norm <v|sigma_z|v>
    w = (x0.real * x0.real + x0.imag * x0.imag) - (x1.real * x1.real + x1.imag * x1.imag)
    if w > tol:
        sign_class = 0
    elif w < -tol:
        sign_class = 2
    else:
        sign_class = 1
    return (sign_class, -value.real, -value.imag)


def biortho_system(a: np.ndarray, tol: float = DEFAULT_TOL) -> BiorthoSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    Right vectors come from the eigendecomposition of ``a``, left vectors
    from that of ``a``'s adjoint, matched by eigenvalue conjugation.  Raises
    DefectiveMatrixError at a coalescent (non-diagonalizable) point and
    NearlyDefectiveError when the eigenvector matrix condition exceeds 1e12.

    ``a`` is one 2x2 matrix, or an (N, 2, 2) stack whose system has pairs
    of (N,) eigenvalues and (N, 2) vectors (see ``_biortho_stack``).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 3:
        return _biortho_stack(a, tol)
    (a00, a01), (a10, a11) = a.tolist()
    # the adjoint's norm equals a's to the bit: its memory order mirrors a's
    scale = max(1.0, frobenius_norm(a))
    right1, right2, defective = _eigen_scalars(a00, a01, a10, a11, scale, tol)
    if defective:
        raise DefectiveMatrixError("source matrix is defective")
    cond = _condition_number(right1[1], right2[1])
    if cond > COND_LIMIT:
        raise NearlyDefectiveError(f"eigenvector condition {cond:.3g} exceeds {COND_LIMIT:.0e}")
    left1, left2, defective = _eigen_scalars(
        a00.conjugate(), a10.conjugate(), a01.conjugate(), a11.conjugate(), scale, tol
    )
    if defective:
        raise DefectiveMatrixError("adjoint matrix is defective")

    # match left eigenvectors by minimal |lam_left - conj(lam_right)| cost; the
    # left eigenvalues are the exact conjugates of the right ones, so one
    # matching costs 0 and the other twice the eigenvalue gap
    r1, r2 = right1[0].conjugate(), right2[0].conjugate()
    l1, l2 = left1[0], left2[0]
    straight = abs(l1 - r1) + abs(l2 - r2)
    crossed = abs(l2 - r1) + abs(l1 - r2)
    lefts = (left1, left2) if straight <= crossed else (left2, left1)

    pairs = []
    for (value, vector), (_, left_vector) in zip((right1, right2), lefts):
        right = np.array(vector)
        raw_left = np.array(left_vector)
        # np.vdot, not a scalar sum: its BLAS sum rounds differently
        overlap = np.vdot(raw_left, right)
        if abs(overlap) < 1.0 / COND_LIMIT:
            raise NearlyDefectiveError("left/right overlap too small to normalize")
        left = raw_left / np.conj(overlap)
        pairs.append((_order_key(value, vector, tol), BiorthoPair(value, right, left)))
    if pairs[1][0] < pairs[0][0]:
        pairs.reverse()
    return BiorthoSystem(pairs=(pairs[0][1], pairs[1][1]), source=a)


def _biortho_stack(a: np.ndarray, tol: float) -> BiorthoSystem:
    """biortho_system of each matrix of an (N, 2, 2) stack, in one array pass.

    Every sample goes through the scalar path's steps and tests: the eigen
    kernel on the matrix and on its adjoint (``linalg._eigen_stack``), the
    condition number, the matching of left to right by eigenvalue, the
    overlap guard and the pair order.  The results agree with the scalar
    path's to a few ulp, in the same pair order, since numpy's hypot, abs
    and complex arithmetic round differently from Python's.  If any sample
    fails, the exception is the one the scalar path raises on the first
    failing sample, and its message names that sample's index.
    """
    with np.errstate(all="ignore"):
        scale = _max1(frobenius_norm_stack(a))
        (value1, right1), (value2, right2), source_defective = _eigen_stack(a, scale, tol)
        cond = _condition_stack(right1, right2)
        (conj1, raw1), (conj2, raw2), adjoint_defective = _eigen_stack(
            a.conj().swapaxes(-1, -2), scale, tol
        )
        r1, r2 = value1.conj(), value2.conj()
        straight = np.abs(conj1 - r1) + np.abs(conj2 - r2)
        crossed = np.abs(conj2 - r1) + np.abs(conj1 - r2)
        keep = (straight <= crossed)[:, None]
        raw1, raw2 = np.where(keep, raw1, raw2), np.where(keep, raw2, raw1)
        overlap1 = np.einsum("ki,ki->k", raw1.conj(), right1)
        overlap2 = np.einsum("ki,ki->k", raw2.conj(), right2)
        thin = (np.abs(overlap1) < 1.0 / COND_LIMIT) | (np.abs(overlap2) < 1.0 / COND_LIMIT)
        left1 = raw1 / overlap1.conj()[:, None]
        left2 = raw2 / overlap2.conj()[:, None]

    ill = cond > COND_LIMIT
    failed = source_defective | ill | adjoint_defective | thin
    if failed.any():
        k = int(np.argmax(failed))
        if source_defective[k]:
            raise DefectiveMatrixError(f"source matrix is defective at sample {k}")
        if ill[k]:
            raise NearlyDefectiveError(
                f"eigenvector condition {cond[k]:.3g} exceeds {COND_LIMIT:.0e} at sample {k}"
            )
        if adjoint_defective[k]:
            raise DefectiveMatrixError(f"adjoint matrix is defective at sample {k}")
        raise NearlyDefectiveError(f"left/right overlap too small to normalize at sample {k}")

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


def _condition_stack(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``_condition_number`` of each pair of rows of two (N, 2) arrays."""
    x0, x1, y0, y1 = v1[:, 0], v1[:, 1], v2[:, 0], v2[:, 1]
    p = (x0.real * x0.real + x0.imag * x0.imag) + (x1.real * x1.real + x1.imag * x1.imag)
    q = (y0.real * y0.real + y0.imag * y0.imag) + (y1.real * y1.real + y1.imag * y1.imag)
    g = x0.conj() * y0 + x1.conj() * y1
    hi = 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(g))
    det = np.abs(x0 * y1 - x1 * y0)
    return np.divide(hi, det, out=np.full_like(hi, np.inf), where=det != 0)


def _sign_class(right: np.ndarray, tol: float) -> np.ndarray:
    """The sign class of ``_order_key`` for each row of an (N, 2) array."""
    x0, x1 = right[:, 0], right[:, 1]
    w = (x0.real * x0.real + x0.imag * x0.imag) - (x1.real * x1.real + x1.imag * x1.imag)
    return np.where(w > tol, 0, np.where(w < -tol, 2, 1))


def completeness_residual(sys: BiorthoSystem) -> float:
    """Norm of sum_n |right_n><left_n| - identity."""
    acc = np.zeros((2, 2), dtype=complex)
    for pair in sys.pairs:
        acc += np.outer(pair.right, np.conj(pair.left))
    return frobenius_norm(acc - IDENTITY)

