"""Dense complex 2x2 linear algebra in closed form.

Everything is trace/determinant based (quadratic eigenvalues, Cayley-Hamilton
exponential, explicit Hermitian square root), so there are no iterative
solvers and no convergence concerns.  Tolerances only enter predicates and
degeneracy detection; they are relative to the matrix scale, floored at 1.
"""

from __future__ import annotations

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


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def det(a: np.ndarray) -> complex:
    return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


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


def _eigvec(a: np.ndarray, lam: complex, scale: float) -> np.ndarray:
    # Kernel of (a - lam*I) from either row of its adjugate; take the better
    # conditioned candidate.
    c1 = np.array([a[0, 1], lam - a[0, 0]], dtype=complex)
    c2 = np.array([lam - a[1, 1], a[1, 0]], dtype=complex)
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    n = np.linalg.norm(v)
    if n <= 1e-14 * scale:
        return np.array([1.0, 0.0], dtype=complex)
    return v / n


def eigen_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Closed-form eigendecomposition via the trace/determinant quadratic.

    Pairs are ordered by descending (Re, Im) of the eigenvalue.  When the
    discriminant vanishes within tol the matrix is either a multiple of the
    identity (two canonical eigenvectors, not defective) or defective, in
    which case the single eigenvalue/eigenvector is returned with the
    ``defective`` flag set.
    """
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, frobenius_norm(a))
    m = 0.5 * (a[0, 0] + a[1, 1])
    disc = m * m - det(a)
    s = np.sqrt(complex(disc))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    if abs(s) <= tol * scale:
        if frobenius_norm(a - m * IDENTITY) <= tol * scale:
            return EigenDecomposition(
                EigenPair(complex(m), np.array([1.0, 0.0], dtype=complex)),
                EigenPair(complex(m), np.array([0.0, 1.0], dtype=complex)),
            )
        pair = EigenPair(complex(m), _eigvec(a, m, scale))
        return EigenDecomposition(pair, pair, defective=True)
    lam1, lam2 = complex(m + s), complex(m - s)
    return EigenDecomposition(
        EigenPair(lam1, _eigvec(a, lam1, scale)),
        EigenPair(lam2, _eigvec(a, lam2, scale)),
    )


def hermitian_eigenvalues_2x2(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues of a Hermitian matrix, descending."""
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, frobenius_norm(a))
    if frobenius_norm(a - adjoint(a)) > tol * scale:
        raise NotHermitianError(f"anti-Hermitian part exceeds tol={tol}")
    p = a[0, 0].real
    q = a[1, 1].real
    mid = 0.5 * (p + q)
    rad = float(np.hypot(0.5 * (p - q), abs(a[0, 1])))
    return (mid + rad, mid - rad)


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
