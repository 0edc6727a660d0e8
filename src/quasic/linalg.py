"""Dense complex 2x2 linear algebra in closed form.

Everything is trace/determinant based (quadratic eigenvalues, Cayley-Hamilton
exponential, explicit Hermitian square root), so there are no iterative
solvers and no convergence concerns.  Tolerances only enter predicates and
degeneracy detection; they are relative to the matrix scale, floored at 1.

``frobenius_norm`` of a 2x2 matrix, which the command line calls per
sample, reads the four entries as Python scalars: numpy's per-call
overhead is several microseconds, far more than the arithmetic on four
numbers.  It keeps numpy's order of summation, so its results are numpy's
to the bit (with OpenBLAS on x86-64; within 2 ulp wherever a BLAS sums in
another order).  The single-matrix eigen kernels run a few times per run,
not per sample, and are plain numpy: ``eigen_2x2`` forms the eigenvalues
from numpy scalars and divides the better adjugate row (chosen by
``math.hypot``) as a numpy array, and ``hermitian_eigenvalues_2x2`` is
``hermitian_eigenvalues_stack`` of the one matrix.  The eigenvalues are
m +- s with m the half trace and s^2 = ((a00 - a11)/2)^2 + a01 a10, the
discriminant m^2 - det written without the trace.  Formed as m*m - det it
cancels against m when m dwarfs the traceless part (a Hamiltonian with a
large omega next to coalescence): the rounding of m^2, ~eps m^2, then
swamps s^2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., SIAM 2002, ch. 1-2).  The shift-invariant form rounds relative to its
two terms only.

The stacked kernels (``frobenius_norm_stack``,
``hermitian_eigenvalues_stack``, ``det_real_stack``) take (..., 2, 2)
arrays and give, element by element, the bits of ``frobenius_norm``,
``det`` and numpy's scalar ``abs`` on each matrix.  Four measured facts
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

``_eigen_stack`` is ``eigen_2x2`` on each matrix of a stack, with the
same tests per matrix.  Its complex products and hypot are numpy's array
forms, so it agrees with ``eigen_2x2`` to a few ulp, not to the bit: bit
equality would need the real-arithmetic rewrite above for every complex
product, and its callers (phase reconstruction on a time grid) need only
the accuracy.  It is written for few array passes: the scalar-multiple
test runs only on the samples found coalescent, each null vector takes its
adjugate row one component at a time with one select, and the moduli of
a01 and a10, which both eigenvalues' rows share, are taken once.
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


def _mat2_stack(a00, a01, a10, a11) -> np.ndarray:
    """The complex (..., 2, 2) stack of [[a00, a01], [a10, a11]] from arrays of entries."""
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


def _null_vector(a: np.ndarray, lam: complex, scale: float) -> np.ndarray:
    """Unit vector spanning the kernel of a - lam I.

    Either row of the adjugate of (a - lam I) spans the kernel; take the
    better conditioned one: the first on a tie, the second if the first's
    norm is NaN.  Below 1e-14 * scale both rows vanish and e_0 is returned.
    """
    c0, c1 = complex(a[0, 1]), complex(lam - a[0, 0])
    n = math.hypot(abs(c0), abs(c1))
    d0, d1 = complex(lam - a[1, 1]), complex(a[1, 0])
    nd = math.hypot(abs(d0), abs(d1))
    if not n >= nd:
        c0, c1, n = d0, d1, nd
    if n <= 1e-14 * scale:
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([c0, c1]) / n


def _eigen_stack(a: np.ndarray, scale: np.ndarray, tol: float):
    """``eigen_2x2`` of each matrix of an (N, 2, 2) stack.

    Returns ``((lam1, v1), (lam2, v2), defective)`` with (N,) eigenvalue
    arrays, (N, 2) unit vectors and an (N,) mask, each sample decided by
    ``eigen_2x2``'s tests: coalescence, the scalar-multiple test (run only
    on the coalescent samples), and ``_null_vector``'s choice of adjugate
    row (the first on a tie, the second if the first's norm is NaN, e_0
    below 1e-14 * scale).  Callers run it under np.errstate, so that it
    stays silent on non-finite entries.
    """
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
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


def eigen_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Closed-form eigendecomposition: eigenvalues m +- s of the characteristic quadratic.

    m is the half trace and s^2 = ((a00 - a11)/2)^2 + a01 a10, which does not
    cancel against m (see the module docstring).  Pairs are ordered by
    descending (Re, Im) of the eigenvalue.  When the discriminant vanishes
    within tol the matrix is either a multiple of the identity (two
    canonical eigenvectors, not defective) or defective, in which case the
    single eigenvalue/eigenvector is returned with the
    ``defective`` flag set.
    """
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, frobenius_norm(a))
    m = 0.5 * (a[0, 0] + a[1, 1])
    half = 0.5 * (a[0, 0] - a[1, 1])
    s = np.sqrt(complex(half * half + a[0, 1] * a[1, 0]))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    if abs(s) <= tol * scale:
        if frobenius_norm(a - m * IDENTITY) <= tol * scale:
            return EigenDecomposition(
                EigenPair(complex(m), np.array([1.0, 0.0], dtype=complex)),
                EigenPair(complex(m), np.array([0.0, 1.0], dtype=complex)),
            )
        pair = EigenPair(complex(m), _null_vector(a, m, scale))
        return EigenDecomposition(pair, pair, defective=True)
    lam1, lam2 = complex(m + s), complex(m - s)
    return EigenDecomposition(
        EigenPair(lam1, _null_vector(a, lam1, scale)), EigenPair(lam2, _null_vector(a, lam2, scale))
    )


def _max1(x: np.ndarray) -> np.ndarray:
    """Python's max(1.0, x) element by element: a NaN gives 1, as it does there."""
    return np.where(x > 1.0, x, 1.0)


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
