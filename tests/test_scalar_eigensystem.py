"""The single-matrix eigensystem kernels against their numpy references.

``reference_eigen_2x2`` and ``reference_biortho_system`` write out, step
by step, the numpy form of ``eigen_2x2`` and ``biortho_system`` on one
matrix, with the left vectors as the conjugated rows of V^-1 =
adj(V) / det V for the right vectors V = [right1 right2].  Neither needs a
guard on the left vectors' size: for unit right vectors ||left_n|| =
1 / |det V| <= cond, which the condition guard bounds
(``tests/test_biortho.py::test_condition_guard_bounds_the_overlap``).
Results must agree to the bit (eigenvalues, right and left vectors, pair
order), and every failure must raise the same exception with the same
message.
"""

import math
from collections import Counter

import numpy as np
import pytest

from quasic.biortho import COND_LIMIT, BiorthoPair, BiorthoSystem, biortho_system
from quasic.errors import DefectiveMatrixError, NearlyDefectiveError, QuasiCError
from quasic.invariants import InvariantForm, closed_form_invariant
from quasic.linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_Z,
    EigenDecomposition,
    EigenPair,
    adjoint,
    det,
    eigen_2x2,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
)
from quasic.model import ConstantDrive, HamiltonianParams, SineDrive, hamiltonian_at

RNG = np.random.default_rng(20261018)
TOLS = (DEFAULT_TOL, 1e-14)  # the default and the tolerance the defect tests use


def reference_eigvec(a, lam, scale):
    c1 = (complex(a[0, 1]), complex(lam - a[0, 0]))
    c2 = (complex(lam - a[1, 1]), complex(a[1, 0]))
    n1 = math.hypot(abs(c1[0]), abs(c1[1]))
    n2 = math.hypot(abs(c2[0]), abs(c2[1]))
    v, n = (c1, n1) if n1 >= n2 else (c2, n2)
    if n <= 1e-14 * scale:
        return np.array([1.0, 0.0], dtype=complex)
    return np.array(v, dtype=complex) / n


def reference_eigen_2x2(a, tol=DEFAULT_TOL):
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, frobenius_norm(a))
    m = 0.5 * (a[0, 0] + a[1, 1])
    # the discriminant ((a00 - a11)/2)^2 + a01 a10 = m^2 - det a, written
    # without the trace so that it does not cancel against m
    half = 0.5 * (a[0, 0] - a[1, 1])
    disc = half * half + a[0, 1] * a[1, 0]
    s = np.sqrt(complex(disc))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    if abs(s) <= tol * scale:
        if frobenius_norm(a - m * IDENTITY) <= tol * scale:
            return EigenDecomposition(
                EigenPair(complex(m), np.array([1.0, 0.0], dtype=complex)),
                EigenPair(complex(m), np.array([0.0, 1.0], dtype=complex)),
            )
        pair = EigenPair(complex(m), reference_eigvec(a, m, scale))
        return EigenDecomposition(pair, pair, defective=True)
    lam1, lam2 = complex(m + s), complex(m - s)
    return EigenDecomposition(
        EigenPair(lam1, reference_eigvec(a, lam1, scale)),
        EigenPair(lam2, reference_eigvec(a, lam2, scale)),
    )


def reference_condition_number(v1, v2):
    v = np.column_stack([v1, v2])
    hi, _ = hermitian_eigenvalues_2x2(adjoint(v) @ v, tol=1e-8)
    d = abs(det(v))
    return hi / d if d else np.inf


def reference_order_key(pair, tol):
    w = float(np.real(np.vdot(pair.right, PAULI_Z @ pair.right)))
    if w > tol:
        sign_class = 0
    elif w < -tol:
        sign_class = 2
    else:
        sign_class = 1
    return (sign_class, -pair.eigenvalue.real, -pair.eigenvalue.imag)


def reference_biortho_system(a, tol=DEFAULT_TOL):
    a = np.asarray(a, dtype=complex)
    right_dec = reference_eigen_2x2(a, tol=tol)
    if right_dec.defective:
        raise DefectiveMatrixError("source matrix is defective")
    v = np.column_stack([right_dec.first.vector, right_dec.second.vector])
    det_v = det(v)
    cond = reference_condition_number(right_dec.first.vector, right_dec.second.vector)
    if cond > COND_LIMIT:
        raise NearlyDefectiveError(f"eigenvector condition {cond:.3g} exceeds {COND_LIMIT:.0e}")

    # V^-1 = adj(V) / det V; left vector n is the conjugate of row n
    adj = np.array([[v[1, 1], -v[0, 1]], [-v[1, 0], v[0, 0]]])
    pairs = []
    for n, pair in enumerate(right_dec.pairs):
        left = np.conj(adj[n] / det_v)
        pairs.append(BiorthoPair(eigenvalue=pair.value, right=pair.vector, left=left))
    pairs.sort(key=lambda pr: reference_order_key(pr, tol))
    return BiorthoSystem(pairs=(pairs[0], pairs[1]), source=a)


def bits(value):
    return np.complex128(value).tobytes()


def eigen_outcome(fn, a, tol):
    dec = fn(a, tol=tol)
    return dec.defective, [(bits(pr.value), pr.vector.tobytes()) for pr in dec.pairs]


def biortho_outcome(fn, a, tol):
    try:
        sys_a = fn(a, tol=tol)
    except QuasiCError as exc:
        return type(exc), str(exc)
    assert sys_a.source.tobytes() == np.asarray(a, dtype=complex).tobytes()
    return [(bits(pr.eigenvalue), pr.right.tobytes(), pr.left.tobytes()) for pr in sys_a.pairs]


def assert_same(a):
    # real input, a column-major copy, an adjoint (a transposed view) and a transpose
    for m in (a, np.asfortranarray(a), adjoint(a), a.T):
        for tol in TOLS:
            assert eigen_outcome(eigen_2x2, m, tol) == eigen_outcome(reference_eigen_2x2, m, tol)
            assert biortho_outcome(biortho_system, m, tol) == biortho_outcome(reference_biortho_system, m, tol)


def random_complex():
    return RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))


def test_random_matrices():
    for _ in range(200):
        assert_same(random_complex())
    for _ in range(50):
        assert_same(RNG.standard_normal((2, 2)))


def test_matrices_spread_over_200_decades():
    for _ in range(200):
        assert_same(random_complex() * 10.0 ** RNG.uniform(-100, 100, size=(2, 2)))


@pytest.mark.parametrize(
    "form,lam,kappa,drive",
    [
        (InvariantForm.FULL_TD, 2.0, 0.7, SineDrive()),
        (InvariantForm.FULL_TD, 0.7, 1.9, SineDrive()),
        (InvariantForm.PT_SYMMETRIC, 2.0, 1.0, ConstantDrive()),
        (InvariantForm.SPONTANEOUSLY_BROKEN, 1.0, 2.0, ConstantDrive()),
    ],
)
def test_invariant_and_hamiltonian_samples(form, lam, kappa, drive):
    p = HamiltonianParams(1.0, lam, kappa, drive=drive)
    for t in np.linspace(0.0, 3.0, 60):
        assert_same(closed_form_invariant(form, p, float(t)))
        assert_same(hamiltonian_at(p, float(t)))


def test_multiples_of_the_identity():
    for c in (0.0, 1.0, 2.5, -3j, 1e-300, 1e150 + 1e150j):
        assert_same(c * np.eye(2))
        assert not eigen_2x2(c * np.eye(2)).defective


def test_non_finite_entries():
    with np.errstate(all="ignore"):
        for a in (np.full((2, 2), np.nan), np.array([[1.0, 2.0], [3.0, np.nan]]), np.array([[np.nan, 1.0], [np.inf, 0.0]])):
            assert_same(a)


def test_same_exception_on_defective_and_nearly_defective_input():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    coalescent = hamiltonian_at(HamiltonianParams(1.0, 1.0, 1.0), 0.0)
    tall = np.array([[1.0, 1e13], [0.0, 2.0]])  # eigenvector condition ~1e13
    for a, tol, expected in (
        (jordan, DEFAULT_TOL, DefectiveMatrixError),
        (coalescent, DEFAULT_TOL, DefectiveMatrixError),
        (tall, 1e-14, NearlyDefectiveError),
    ):
        outcome = biortho_outcome(biortho_system, a, tol)
        assert outcome == biortho_outcome(reference_biortho_system, a, tol)
        assert outcome[0] is expected


def test_same_outcome_on_nearly_parallel_eigenvectors():
    # eigenvectors parallel to 1e-15 ... 1e-8 before a is rounded, which
    # leaves the computed eigenvectors of a far less parallel in most draws
    draws = []
    for _ in range(800):
        v1, w = random_complex()
        eps = 10.0 ** RNG.uniform(-15, -8)
        v = np.column_stack([v1, v1 + eps * w])
        draws.append(v @ np.diag([1.0, 2.0]) @ np.linalg.inv(v))
    # the draws above that the condition guard used to catch are coalescent
    # under the exact discriminant; [[1, b], [0, 2]] has eigenvectors (1, 0)
    # and ~(b, 1), condition ~2b, and its eigenvalues stay distinct at tol
    # 1e-14 up to b ~ 5e13
    draws += [np.array([[1.0, b], [0.0, 2.0]]) for b in 10.0 ** RNG.uniform(11, 13.5, size=50)]
    seen = Counter()
    for a in draws:
        for tol in TOLS:
            outcome = biortho_outcome(biortho_system, a, tol)
            assert outcome == biortho_outcome(reference_biortho_system, a, tol)
            seen[outcome[1].split()[0] if isinstance(outcome, tuple) else "system"] += 1
    # every branch ran: a system, the condition guard, a defect
    assert {"system", "eigenvector", "source"} <= set(seen), seen
