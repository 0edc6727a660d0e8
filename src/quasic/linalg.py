"""Dense complex 2x2 linear algebra in closed form.

Everything is trace/determinant based (quadratic eigenvalues, Cayley-Hamilton
exponential, explicit Hermitian square root), so there are no iterative
solvers and no convergence concerns.  Tolerances only enter predicates and
degeneracy detection; they are relative to the matrix scale, floored at 1.

``frobenius_norm`` of a 2x2 matrix reads the four entries as Python
scalars and sums them in ``_norm4``: numpy's per-call overhead is several
microseconds, far more than the arithmetic on four numbers.  For the same
reason the derivative residuals, which the command line evaluates per
sample, form their defect entries in ``_derivative_defect`` on Python
scalars and finish in ``_norm4``.  ``_norm4`` keeps numpy's order of
summation over a row-major matrix, so ``frobenius_norm`` gives numpy's
bits on the C-contiguous copy (with OpenBLAS on x86-64; within 2 ulp
wherever a BLAS sums in another order), whatever the memory layout of its
argument.

The stacked kernels (``frobenius_norm_stack``,
``hermitian_eigenvalues_stack``, ``det_real_stack``) take (..., 2, 2)
arrays and give, element by element, the bits of ``frobenius_norm``, of
numpy's scalar determinant a00 a11 - a01 a10 and of its scalar ``abs`` on
each matrix.  Four measured facts
(numpy 2.4, 20,000 random complex 2x2 inputs each) decide how they are
written.  Batched ``np.matmul`` equals the per-matrix ``a @ b`` (0 of
20,000 differ), so C^2 of a stack is one ``np.matmul``.  ``np.abs`` of a complex array differs from the scalar
``abs`` of a numpy complex on 7,025 of 20,000 inputs, while
``np.hypot(z.real, z.imag)`` matches it.  Complex multiplication of
arrays differs from numpy's scalar complex multiplication on 8,711 of
20,000 inputs, so the determinant's real part is formed in real
arithmetic, (a00.re a11.re - a00.im a11.im) - (a01.re a10.re - a01.im
a10.im), which is what the scalar product computes.  Norms sum in
``_norm4``'s order, (x00^2 + x10^2) + (x01^2 + x11^2), over the real
parts and then the imaginary parts.

There is one eigen kernel of each kind, and it is stacked: a single
matrix is a stack of one.  ``eigen_2x2`` is ``_eigen_stack`` of the one
matrix and ``hermitian_eigenvalues_2x2`` is ``hermitian_eigenvalues_stack``
of it.  The eigenvalues are m +- s with m the half trace and s^2 =
((a00 - a11)/2)^2 + a01 a10, the discriminant m^2 - det written without
the trace.  Formed as m*m - det it cancels against m when m dwarfs the
traceless part (a Hamiltonian with a large omega next to coalescence):
the rounding of m^2, ~eps m^2, then swamps s^2 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 1-2).  The
shift-invariant form rounds relative to its two terms only.
``_eigen_stack`` is written for few array passes: the scalar-multiple
test runs only on the samples found coalescent, each null vector takes
its adjugate row one component at a time with one select, and the moduli
of a01 and a10, which both eigenvalues' rows share, are taken once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import NotHermitianError, NotPositiveDefiniteError

DEFAULT_TOL = 1e-10

#: A 2x2 matrix as its two rows of Python scalars, ((a00, a01), (a10, a11)): the form of ``ndarray.tolist()``
Rows = Sequence[Sequence[complex]]


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


def _mat2_stack(a00, a01, a10, a11) -> np.ndarray:
    """The complex (..., 2, 2) stack of [[a00, a01], [a10, a11]]; scalar entries give one 2x2 matrix."""
    m = np.empty(np.shape(a00) + (2, 2), dtype=complex)
    m[..., 0, 0] = a00
    m[..., 0, 1] = a01
    m[..., 1, 0] = a10
    m[..., 1, 1] = a11
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


def _derivative_defect(plus, minus, mid, h, c) -> tuple:
    """The entries (e00, e01, e10, e11) of c (P - M) - (H X - X H) for 2x2 P, M, X and H.

    Each matrix is given as its two rows, ((a00, a01), (a10, a11)): Rows of
    Python scalars, which cost a fraction of a numpy operation per entry
    (the ``rows`` of a closed-form metric evaluated at a float, or the
    ``tolist()`` of a 2x2 array), or a (2, 2, N) array of entry arrays, for
    which every entry is an (N,) array.  Written entry by entry, with no
    type test and no matrix product, so the one body serves both.  Python
    complex arithmetic gives inf or NaN on non-finite entries and raises
    nothing; numpy arrays follow their errstate.
    """
    (p00, p01), (p10, p11) = plus
    (m00, m01), (m10, m11) = minus
    (x00, x01), (x10, x11) = mid
    (h00, h01), (h10, h11) = h
    return (
        c * (p00 - m00) - ((h00 * x00 + h01 * x10) - (x00 * h00 + x01 * h10)),
        c * (p01 - m01) - ((h00 * x01 + h01 * x11) - (x00 * h01 + x01 * h11)),
        c * (p10 - m10) - ((h10 * x00 + h11 * x10) - (x10 * h00 + x11 * h10)),
        c * (p11 - m11) - ((h10 * x01 + h11 * x11) - (x10 * h01 + x11 * h11)),
    )


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a 2x2 matrix, with the bits of np.linalg.norm (see ``_norm4``)."""
    (a00, a01), (a10, a11) = np.asarray(a).tolist()
    return _norm4(a00, a01, a10, a11)


def frobenius_norm_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., 2, 2) stack, each equal to ``frobenius_norm`` of its matrix."""
    sq_re = a.real * a.real
    sq_im = a.imag * a.imag
    re = (sq_re[..., 0, 0] + sq_re[..., 1, 0]) + (sq_re[..., 0, 1] + sq_re[..., 1, 1])
    im = (sq_im[..., 0, 0] + sq_im[..., 1, 0]) + (sq_im[..., 0, 1] + sq_im[..., 1, 1])
    return np.sqrt(re + im)


def hypot_norm_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., 2, 2) stack as hypots of the entries' moduli.

    No entry is squared, so a norm is finite wherever it is representable;
    ``frobenius_norm_stack`` is inf once an entry passes ~1.3e154.  It
    agrees with that norm to a few ulp, not to the bit.
    """
    m = np.hypot(a.real, a.imag)
    return np.hypot(np.hypot(m[..., 0, 0], m[..., 1, 0]), np.hypot(m[..., 0, 1], m[..., 1, 1]))


def det_real_stack(a: np.ndarray) -> np.ndarray:
    """Real parts of the determinants of a (..., 2, 2) stack, each equal to numpy's scalar (a00 a11 - a01 a10).real."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return (a00.real * a11.real - a00.imag * a11.imag) - (a01.real * a10.real - a01.imag * a10.imag)


def _max1(x: np.ndarray) -> np.ndarray:
    """Python's max(1.0, x) element by element: a NaN gives 1, as it does there."""
    return np.where(x > 1.0, x, 1.0)


def _eigen_stack(a: np.ndarray, tol: float):
    """Closed-form eigensystems of each matrix of an (N, 2, 2) stack.

    Returns ``((lam1, v1), (lam2, v2), defective)`` with (N,) eigenvalue
    arrays, (N, 2) unit right vectors and an (N,) mask.  The eigenvalues
    are m +- s with s in the right half-plane (Re s > 0, or Re s = 0 and
    Im s >= 0), so lam1 has the larger (Re, Im).  Each sample with
    |s| <= tol * scale, scale = max(1, ||a||), is coalescent: a multiple
    of the identity within the same bound gets the canonical vectors e_0
    and e_1, and any other coalescent sample is defective, with lam1 = lam2
    = m and v1 = v2.  Each vector is the better-normed adjugate row of
    a - lam I, (a01, lam - a00) or (lam - a11, a10): the first on a tie,
    the second if the first's norm is NaN, and e_0 when both norms are
    below 1e-14 * scale.  Silent on non-finite entries, which give NaN
    samples.
    """
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    with np.errstate(all="ignore"):
        scale = _max1(frobenius_norm_stack(a))
        m = 0.5 * (a00 + a11)
        half = 0.5 * (a00 - a11)
        s = np.sqrt(half * half + a01 * a10)
        np.negative(s, out=s, where=(s.real < 0) | ((s.real == 0) & (s.imag < 0)))
        limit = tol * scale
        coalescent = np.abs(s) <= limit
        identity = np.zeros_like(coalescent)
        if coalescent.any():
            k = np.flatnonzero(coalescent)
            identity[k] = frobenius_norm_stack(a[k] - m[k, None, None] * IDENTITY) <= limit[k]
            s[k] = 0.0
        abs01, abs10 = np.abs(a01), np.abs(a10)
        tiny = 1e-14 * scale
        pairs = []
        for lam in (m + s, m - s):
            # adjugate rows (a01, lam - a00) and (lam - a11, a10) of a - lam I
            c1, d0 = lam - a00, lam - a11
            n = np.hypot(abs01, np.abs(c1))
            nd = np.hypot(np.abs(d0), abs10)
            pick = n >= nd
            n = np.where(pick, n, nd)
            inv = 1.0 / n
            v = np.empty(lam.shape + (2,), dtype=complex)
            np.multiply(np.where(pick, a01, d0), inv, out=v[:, 0])
            np.multiply(np.where(pick, c1, a10), inv, out=v[:, 1])
            small = n <= tiny
            if small.any():
                v[small] = 1.0, 0.0
            pairs.append((lam, v))
    (lam1, v1), (lam2, v2) = pairs
    if identity.any():
        v1[identity] = 1.0, 0.0
        v2[identity] = 0.0, 1.0
    return (lam1, v1), (lam2, v2), coalescent & ~identity


def eigen_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """Closed-form eigensystem of one matrix: ``_eigen_stack`` on a stack of one.

    Returns ``((lam1, v1), (lam2, v2), defective)``: two complex
    eigenvalues in descending (Re, Im), their unit (2,) right vectors and a
    bool.  When the discriminant vanishes within tol the matrix is either a
    multiple of the identity (the canonical vectors, not defective) or
    defective, with one eigenvalue and one eigenvector given twice.
    """
    (lam1, v1), (lam2, v2), defective = _eigen_stack(np.asarray(a, dtype=complex)[None], tol)
    return (complex(lam1[0]), v1[0]), (complex(lam2[0]), v2[0]), bool(defective[0])


def hermitian_eigenvalues_stack(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenvalues of each Hermitian matrix of a (..., 2, 2) stack: (hi, lo) arrays.

    Raises NotHermitianError if the anti-Hermitian part of any matrix
    exceeds tol times its scale, max(1, ||a||).
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


def hermitian_eigenvalues_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues of a Hermitian matrix, descending: ``hermitian_eigenvalues_stack`` of the one matrix."""
    # silent on non-finite entries
    with np.errstate(invalid="ignore", over="ignore"):
        hi, lo = hermitian_eigenvalues_stack(np.asarray(a, dtype=complex), tol)
    return float(hi), float(lo)


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
    # the quotient sinh(r)/r subtracts nothing, so it keeps its relative
    # precision as r -> 0; r = 0 (a nilpotent generator) takes the limit 1, and
    # there the divisor is a placeholder that keeps the discarded quotient free of 0/0
    zero = r == 0
    sinhc = np.where(zero, 1.0, np.sinh(r) / np.where(zero, 1.0, r))
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


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian positive-definite square root.

    Uses the 2x2 identity sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)).
    Hermiticity and positivity are tested at DEFAULT_TOL.
    """
    a = np.asarray(a, dtype=complex)
    hi, lo = hermitian_eigenvalues_2x2(a)
    if lo <= DEFAULT_TOL:
        raise NotPositiveDefiniteError(f"eigenvalue {lo} <= tol={DEFAULT_TOL}")
    s = np.sqrt(hi * lo)
    h = 0.5 * (a + adjoint(a))
    return (h + s * IDENTITY) / np.sqrt(hi + lo + 2.0 * s)
