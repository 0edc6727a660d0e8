"""Dense complex 2x2 linear algebra in closed form.

Everything is trace/determinant based (quadratic eigenvalues, Cayley-Hamilton
exponential, explicit Hermitian square root), so there are no iterative
solvers and no convergence concerns.  Tolerances only enter predicates and
degeneracy detection; they are relative to the matrix scale, floored at 1.

The per-sample kernels (``frobenius_norm`` of a 2x2 matrix,
``hermitian_eigenvalues_2x2`` and the eigen kernel ``_eigen_scalars``
behind ``eigen_2x2`` and ``biortho.biortho_system``) read the four entries
as Python scalars: numpy's per-call overhead is several microseconds,
far more than the arithmetic on four numbers.  They keep numpy's order of
operations, so their results are numpy's to the bit (with OpenBLAS on
x86-64; within 2 ulp wherever a BLAS sums in another order).  Two details
of numpy are reproduced on purpose.  numpy divides a complex array by a
float n by multiplying each entry by k = 1/n as ``(re + im*0) * k,
(im - re*0) * k``; Python's ``complex / float`` divides instead, and its
``complex * float`` differs in the sign of zero parts.  The discriminant's
square root stays ``np.sqrt``, because ``cmath.sqrt`` rounds differently
on some inputs.  Matrix products, ``np.vdot`` and division by a complex
number stay numpy: the scalar product and dot formulas round differently
from the BLAS (fused multiply-adds) on most inputs, so they would change
the residuals that the command line writes and the biorthonormal left
vectors.

The stacked kernels (``frobenius_norm_stack``,
``hermitian_eigenvalues_stack``, ``det_real_stack``) take (..., 2, 2)
arrays and give, element by element, the bits of the scalar kernels on
each matrix.  Four measured facts (numpy 2.4, 20,000 random complex 2x2
inputs each) decide how they are written.  Batched ``np.matmul`` equals
the per-matrix ``a @ b`` (0 of 20,000 differ), so C^2 of a stack is one
``np.matmul``.  ``np.abs`` of a complex array differs from the scalar
``abs`` of a numpy complex on 7,025 of 20,000 inputs, while
``np.hypot(z.real, z.imag)`` matches it.  Complex multiplication of
arrays differs from numpy's scalar complex multiplication on 8,711 of
20,000 inputs, so the determinant's real part is formed in real
arithmetic, (a00.re a11.re - a00.im a11.im) - (a01.re a10.re - a01.im
a10.im), which is what the scalar product computes.  Norms sum in
``_norm4``'s order, (x00^2 + x10^2) + (x01^2 + x11^2), over the real
parts and then the imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotPositiveDefiniteError

DEFAULT_TOL = 1e-10

# sinh(r)/r switches to its Taylor series below this modulus
_SINHC_SWITCH = 1e-6


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


def _mat2(a00: complex, a01: complex, a10: complex, a11: complex) -> np.ndarray:
    """The complex 2x2 array [[a00, a01], [a10, a11]] (faster than np.array of nested lists)."""
    m = np.empty((2, 2), dtype=complex)
    m[0, 0] = a00
    m[0, 1] = a01
    m[1, 0] = a10
    m[1, 1] = a11
    return m


IDENTITY = _frozen([[1, 0], [0, 1]])
PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, -1j], [1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def _norm4(a00: complex, a01: complex, a10: complex, a11: complex) -> float:
    """Frobenius norm of [[a00, a01], [a10, a11]] from Python scalars.

    np.linalg.norm of a complex array is sqrt(re.re + im.im), each a dot
    product over the entries in memory order, which the BLAS accumulates in
    two lanes: (x0^2 + x2^2) + (x1^2 + x3^2).  Summing in that order gives
    the same bits for a row-major matrix; summing sequentially does not, on
    ~14% of random matrices.
    """
    re = (a00.real * a00.real + a10.real * a10.real) + (a01.real * a01.real + a11.real * a11.real)
    im = (a00.imag * a00.imag + a10.imag * a10.imag) + (a01.imag * a01.imag + a11.imag * a11.imag)
    return math.sqrt(re + im)


def frobenius_norm(a: np.ndarray) -> float:
    a = np.asarray(a)
    if a.shape != (2, 2):
        return float(np.linalg.norm(a))
    (a00, a01), (a10, a11) = a.tolist()
    if a.strides[0] < a.strides[1]:
        # column-major (a transpose, e.g. an adjoint): memory order is a00, a10, a01, a11
        return _norm4(a00, a10, a01, a11)
    return _norm4(a00, a01, a10, a11)


def frobenius_norm_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., 2, 2) stack, each equal to ``frobenius_norm`` of a row-major matrix."""
    sq_re = a.real * a.real
    sq_im = a.imag * a.imag
    re = (sq_re[..., 0, 0] + sq_re[..., 1, 0]) + (sq_re[..., 0, 1] + sq_re[..., 1, 1])
    im = (sq_im[..., 0, 0] + sq_im[..., 1, 0]) + (sq_im[..., 0, 1] + sq_im[..., 1, 1])
    return np.sqrt(re + im)


def det(a: np.ndarray) -> complex:
    return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def det_real_stack(a: np.ndarray) -> np.ndarray:
    """Real parts of the determinants of a (..., 2, 2) stack, each equal to ``det(a).real``."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return (a00.real * a11.real - a00.imag * a11.imag) - (a01.real * a10.real - a01.imag * a10.imag)


def trace(a: np.ndarray) -> complex:
    return complex(a[0, 0] + a[1, 1])


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    scale = max(1.0, frobenius_norm(a))
    return frobenius_norm(a - adjoint(a)) <= tol * scale


def is_positive_definite(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian with both eigenvalues > tol."""
    if not is_hermitian(a, tol):
        return False
    _, lo = hermitian_eigenvalues_2x2(a, tol=tol)
    return lo > tol


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit-norm right eigenvector."""

    value: complex
    vector: np.ndarray


@dataclass(frozen=True)
class EigenDecomposition:
    first: EigenPair
    second: EigenPair
    #: True when the eigenvalue is coalescent and only one eigenvector exists
    #: (both pairs then carry the same value and vector); callers must handle.
    defective: bool = False

    @property
    def pairs(self) -> tuple[EigenPair, EigenPair]:
        return (self.first, self.second)


def _null_vector(a00: complex, a01: complex, a10: complex, a11: complex, lam: complex, scale: float):
    """Unit vector spanning the kernel of [[a00, a01], [a10, a11]] - lam I, as two Python complexes.

    Either row of the adjugate of (a - lam I) spans the kernel; take the
    better conditioned one: the first on a tie, the second if the first's
    norm is NaN.  Below 1e-14 * scale both rows vanish and e_0 is returned.
    """
    c0, c1 = a01, lam - a00
    n = math.hypot(abs(c0), abs(c1))
    d0, d1 = lam - a11, a10
    nd = math.hypot(abs(d0), abs(d1))
    if not n >= nd:
        c0, c1, n = d0, d1, nd
    if n <= 1e-14 * scale:
        return (1 + 0j, 0j)
    # numpy's complex array / float, to the bit (see the module docstring)
    k = 1.0 / n
    return (
        complex((c0.real + c0.imag * 0.0) * k, (c0.imag - c0.real * 0.0) * k),
        complex((c1.real + c1.imag * 0.0) * k, (c1.imag - c1.real * 0.0) * k),
    )


def _eigen_scalars(a00: complex, a01: complex, a10: complex, a11: complex, scale: float, tol: float):
    """Eigensystem of [[a00, a01], [a10, a11]] from Python scalars.

    Returns ``((lam1, v1), (lam2, v2), defective)`` with each v a unit
    vector as a pair of Python complexes, ordered as in ``eigen_2x2``.  A
    vanishing discriminant (within tol * scale) gives either a multiple of
    the identity (canonical vectors, not defective) or a defective matrix
    (the one eigenpair twice, the same tuple object).
    """
    m = 0.5 * (a00 + a11)
    # np.sqrt, not cmath.sqrt, which rounds differently on some inputs
    s = complex(np.sqrt(m * m - (a00 * a11 - a01 * a10)))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    if abs(s) <= tol * scale:
        # a - m I is stored row-major whatever the layout of a
        if _norm4(a00 - m, a01, a10, a11 - m) <= tol * scale:
            return (m, (1 + 0j, 0j)), (m, (0j, 1 + 0j)), False
        pair = (m, _null_vector(a00, a01, a10, a11, m, scale))
        return pair, pair, True
    lam1, lam2 = m + s, m - s
    return (
        (lam1, _null_vector(a00, a01, a10, a11, lam1, scale)),
        (lam2, _null_vector(a00, a01, a10, a11, lam2, scale)),
        False,
    )


def eigen_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Closed-form eigendecomposition via the trace/determinant quadratic.

    Pairs are ordered by descending (Re, Im) of the eigenvalue.  When the
    discriminant vanishes within tol the matrix is either a multiple of the
    identity (two canonical eigenvectors, not defective) or defective, in
    which case the single eigenvalue/eigenvector is returned with the
    ``defective`` flag set.
    """
    a = np.asarray(a, dtype=complex)
    (a00, a01), (a10, a11) = a.tolist()
    (lam1, v1), (lam2, v2), defective = _eigen_scalars(
        a00, a01, a10, a11, max(1.0, frobenius_norm(a)), tol
    )
    first = EigenPair(lam1, np.array(v1))
    if defective:
        return EigenDecomposition(first, first, defective=True)
    return EigenDecomposition(first, EigenPair(lam2, np.array(v2)))


def hermitian_eigenvalues_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues of a Hermitian matrix, descending."""
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, frobenius_norm(a))
    (a00, a01), (a10, a11) = a.tolist()
    # a - adjoint(a) entry by entry; numpy stores that difference row-major
    skew = _norm4(
        a00 - a00.conjugate(), a01 - a10.conjugate(), a10 - a01.conjugate(), a11 - a11.conjugate()
    )
    if skew > tol * scale:
        raise NotHermitianError(f"anti-Hermitian part exceeds tol={tol}")
    p = a00.real
    q = a11.real
    mid = 0.5 * (p + q)
    # np.hypot, not math.hypot, whose own algorithm rounds differently
    rad = float(np.hypot(0.5 * (p - q), abs(a[0, 1])))
    return (mid + rad, mid - rad)


def _max1(x: np.ndarray) -> np.ndarray:
    """Python's max(1.0, x) element by element: a NaN gives 1, as it does there."""
    return np.where(x > 1.0, x, 1.0)


def hermitian_eigenvalues_stack(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eigenvalues_2x2`` of each matrix of a (..., 2, 2) stack: (hi, lo) arrays.

    Raises the scalar kernel's NotHermitianError if any matrix fails its
    Hermiticity test.
    """
    scale = _max1(frobenius_norm_stack(a))
    skew = frobenius_norm_stack(a - a.conj().swapaxes(-1, -2))
    if np.any(skew > tol * scale):
        raise NotHermitianError(f"anti-Hermitian part exceeds tol={tol}")
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    mid = 0.5 * (p + q)
    a01 = a[..., 0, 1]
    rad = np.hypot(0.5 * (p - q), np.hypot(a01.real, a01.imag))
    return mid + rad, mid - rad


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, broadcast over the leading axes.

    The explicit four-entry formula: numpy's matmul loop has a per-matrix
    overhead that made it ~7x slower on a stack of 1024 complex 2x2
    matrices (305 us against 43 us, numpy 2.4).
    """
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _expm1_pauli(a1, a2, a3) -> np.ndarray:
    """exp(a1*sigma_x + a2*sigma_y + a3*sigma_z) - I, broadcast over arrays.

    Cayley-Hamilton closed form: with r = sqrt(a1^2 + a2^2 + a3^2),
    exp = cosh(r) I + sinh(r)/r * a_vec . sigma_vec.  cosh and sinh(r)/r are
    even, so the branch of the complex sqrt is irrelevant.  Returning the
    deviation from I, with cosh(r) - 1 = 2 sinh(r/2)^2, keeps its full
    relative precision for factors close to the identity.  Returns shape
    (..., 2, 2) for coefficient arrays of shape (...).
    """
    a1, a2, a3 = (np.asarray(c, dtype=complex) for c in (a1, a2, a3))
    r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    small = np.abs(r) < _SINHC_SWITCH
    # sinh(r)/r = 1 + r^2/6 + r^4/120 + ... ; six terms leave relative error
    # far below double precision at the switch point.  The safe divisor keeps
    # the unused branch of np.where free of 0/0.
    r2 = r * r
    series = 1 + r2 / 6 * (1 + r2 / 20 * (1 + r2 / 42 * (1 + r2 / 72 * (1 + r2 / 110))))
    safe_r = np.where(small, 1.0, r)
    sinhc = np.where(small, series, np.sinh(safe_r) / safe_r)
    half = np.sinh(0.5 * r)
    coshm1 = 2.0 * half * half
    out = np.empty(r.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = coshm1 + sinhc * a3
    out[..., 1, 1] = coshm1 - sinhc * a3
    out[..., 0, 1] = sinhc * (a1 - 1j * a2)
    out[..., 1, 0] = sinhc * (a1 + 1j * a2)
    return out


def mat_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) of one 2x2 matrix by the Cayley-Hamilton closed form."""
    a = np.asarray(a, dtype=complex)
    deviation = _expm1_pauli(
        0.5 * (a[0, 1] + a[1, 0]),
        0.5j * (a[0, 1] - a[1, 0]),
        0.5 * (a[0, 0] - a[1, 1]),
    )
    return np.exp(0.5 * (a[0, 0] + a[1, 1])) * (IDENTITY + deviation)


def psd_sqrt(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive-definite square root.

    Uses the 2x2 identity sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)).
    """
    a = np.asarray(a, dtype=complex)
    hi, lo = hermitian_eigenvalues_2x2(a, tol=tol)
    if lo <= tol:
        raise NotPositiveDefiniteError(f"eigenvalue {lo} <= tol={tol}")
    s = np.sqrt(hi * lo)
    h = 0.5 * (a + adjoint(a))
    return (h + s * IDENTITY) / np.sqrt(hi + lo + 2.0 * s)
