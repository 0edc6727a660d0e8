"""The eigensystem kernels against independent numpy-scalar references.

``eigen_2x2`` and ``biortho_system`` run the stacked kernels on a stack of
one.  ``reference_eigen_2x2`` and ``reference_biortho_system`` write out,
step by step and on numpy scalars, the same closed forms for one matrix,
with the left vectors as the conjugated rows of V^-1 = adj(V) / det V for
the right vectors V = [right1 right2].  Neither needs a guard on the left
vectors' size: for unit right vectors ||left_n|| = 1 / |det V| <= cond,
which the condition guard bounds
(``tests/test_biortho.py::test_condition_guard_bounds_the_overlap``).
numpy's array and scalar complex products, ``abs`` and hypot round
differently, so results agree to rounding, not to the bit
(``assert_close``), in the same pair order, and every failure raises the
same exception with the same message, but for the condition that a
NearlyDefectiveError reports: past the guard it is known only as far as
``assert_same_condition`` states.
"""

import math
import re
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


def det2(v):
    """numpy's scalar determinant of a 2x2 array, as a Python complex."""
    return complex(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0])


def reference_condition_number(v1, v2):
    v = np.column_stack([v1, v2])
    hi, _ = hermitian_eigenvalues_2x2(adjoint(v) @ v, tol=1e-8)
    d = abs(det2(v))
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
    det_v = det2(v)
    cond = reference_condition_number(right_dec.first.vector, right_dec.second.vector)
    if cond > COND_LIMIT:
        raise NearlyDefectiveError(f"eigenvector condition {cond:.3g} exceeds {COND_LIMIT:.3g}")

    # V^-1 = adj(V) / det V; left vector n is the conjugate of row n
    adj = np.array([[v[1, 1], -v[0, 1]], [-v[1, 0], v[0, 0]]])
    pairs = []
    for n, pair in enumerate(right_dec.pairs):
        left = np.conj(adj[n] / det_v)
        pairs.append(BiorthoPair(eigenvalue=pair.value, right=pair.vector, left=left))
    pairs.sort(key=lambda pr: reference_order_key(pr, tol))
    return BiorthoSystem(pairs=(pairs[0], pairs[1]))


EPS = np.finfo(float).eps


def eigen_outcome(fn, a, tol):
    dec = fn(a, tol=tol)
    return dec.defective, [(pr.value, pr.vector, None) for pr in dec.pairs]


def biortho_outcome(fn, a, tol):
    """(type, message) of the exception raised, or the pairs as (eigenvalue, right, left) triples."""
    try:
        sys_a = fn(a, tol=tol)
    except QuasiCError as exc:
        return type(exc), str(exc)
    return [(pr.eigenvalue, pr.right, pr.left) for pr in sys_a.pairs]


def assert_close(got, want, a):
    """Pairs ``got`` equal ``want`` to rounding, in the same order.

    Each is a list of (eigenvalue, right, left or None).  The bounds, with
    the worst ratio measured over this module's inputs (and 6,000 further
    near-parallel draws) in brackets:
    - eigenvalue: 8 eps (scale + t / |s|), with t = |(a00 - a11)/2|^2 +
      |a01 a10| the terms of the discriminant and s the half split.  The
      discriminant rounds relative to its terms, and its square root
      divides that error by 2 |s| [3.4].
    - right vector, after removing its phase: 4 eps cond [1.6].  Where the
      two adjugate rows tie in norm within rounding (the parity-symmetric
      Hamiltonians), the two kernels can pick different rows, which are
      different phases of one vector.
    - left vector, rotated by the same phase: 16 cond (eps + dr) ||left||,
      with dr the right vectors' difference: det V ~ 1 / cond carries it,
      and its own rounding [4.0].
    A non-finite result must be non-finite in the same entries.
    """
    scale = max(1.0, frobenius_norm(a))
    half = 0.5 * (a[0, 0] - a[1, 1])
    terms = abs(half) ** 2 + abs(a[0, 1] * a[1, 0])
    (value1, right1, _), (value2, right2, _) = want
    if not all(np.isfinite(x).all() for pair in want for x in pair if x is not None):
        for got_pair, want_pair in zip(got, want):
            for x, y in zip(got_pair, want_pair):
                assert x is None or (np.isfinite(x) == np.isfinite(y)).all(), (a, got, want)
        return
    split = abs(value1 - value2) / 2
    cond = reference_condition_number(right1, right2)
    for (value, right, left), (want_value, want_right, want_left) in zip(got, want):
        assert abs(value - want_value) <= 8 * EPS * (scale + (terms / split if split else 0.0)), (a, got, want)
        overlap = np.vdot(want_right, right)
        phase = overlap / abs(overlap)
        dr = np.abs(right - phase * want_right).max()
        assert dr <= 4 * EPS * cond, (a, got, want)
        if left is not None:
            bound = 16 * cond * (EPS + dr) * np.linalg.norm(want_left)
            assert np.abs(left - phase * want_left).max() <= bound, (a, got, want)


def assert_same_outcome(got, want, a):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), (a, got, want)
        assert_close(got, want, a)


def assert_same(a):
    # real input, a column-major copy, an adjoint (a transposed view) and a transpose
    for m in (a, np.asfortranarray(a), adjoint(a), a.T):
        for tol in TOLS:
            defective, pairs = eigen_outcome(eigen_2x2, m, tol)
            want_defective, want_pairs = eigen_outcome(reference_eigen_2x2, m, tol)
            assert defective == want_defective
            assert_close(pairs, want_pairs, m)
            assert_same_outcome(biortho_outcome(biortho_system, m, tol), biortho_outcome(reference_biortho_system, m, tol), m)


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


def at_the_coalescence_threshold(a, tol):
    """|s^2| within the rounding of the discriminant's terms of the coalescence threshold (tol scale)^2.

    s^2 = ((a00 - a11)/2)^2 + a01 a10 rounds relative to its terms, so the
    kernel and the reference can reach different verdicts only inside the
    band ||s^2| - (tol scale)^2| <= eps (|(a00 - a11)/2|^2 + |a01 a10|).
    """
    half = 0.5 * (a[0, 0] - a[1, 1])
    disc = half * half + a[0, 1] * a[1, 0]
    scale = max(1.0, frobenius_norm(a))
    return abs(abs(disc) - (tol * scale) ** 2) <= EPS * (abs(half) ** 2 + abs(a[0, 1] * a[1, 0]))


def reported_condition(message):
    """The condition a NearlyDefectiveError message reports."""
    match = re.fullmatch(rf"eigenvector condition (\S+) exceeds {re.escape(f'{COND_LIMIT:.3g}')}", message)
    assert match, message
    return float(match.group(1))


def assert_same_condition(got_message, want_message, a):
    """Two NearlyDefectiveError messages report conditions that agree as far as the condition is known.

    Past the guard each kernel's right vectors are within 4 eps cond of the
    reference's (``assert_close``), and unit vectors at a small angle theta
    have condition ~2 / theta, so the reciprocal conditions differ by up to
    4 eps cond; each message rounds its condition to 3 digits (5e-3
    relative).  From cond ~3.4e7 on, 4 eps cond exceeds 1 / cond and the
    bound leaves the kernel's value free above: there the two messages can
    differ, 1.61e8 against 2.03e8 for one draw.
    """
    got, want = reported_condition(got_message), reported_condition(want_message)
    assert abs(1.0 / got - 1.0 / want) <= 4 * EPS * want + 5e-3 * (1.0 / got + 1.0 / want), (a, got_message, want_message)


def test_same_outcome_on_nearly_parallel_eigenvectors():
    # eigenvectors parallel to 1e-15 ... 1e-8 before a is rounded, which
    # leaves the computed eigenvectors of a less parallel, but past the
    # condition guard in most draws
    draws = []
    for _ in range(800):
        v1, w = random_complex()
        eps = 10.0 ** RNG.uniform(-15, -8)
        v = np.column_stack([v1, v1 + eps * w])
        draws.append(v @ np.diag([1.0, 2.0]) @ np.linalg.inv(v))
    # [[1, b], [0, 2]] has eigenvectors (1, 0) and ~(b, 1), condition ~2b, and
    # its eigenvalues stay distinct at tol 1e-14 up to b ~ 5e13; turned by a
    # random unitary Q, its condition stays ~2b: b across the guard
    draws += [np.array([[1.0, b], [0.0, 2.0]]) for b in 10.0 ** RNG.uniform(11, 13.5, size=50)]
    for b in 10.0 ** RNG.uniform(np.log10(COND_LIMIT) - 3, np.log10(COND_LIMIT) + 1, size=200):
        q, _ = np.linalg.qr(random_complex())
        draws.append(q @ np.array([[1.0, b], [0.0, 2.0]]) @ adjoint(q))
    seen = Counter()
    flips = 0
    for a in draws:
        for tol in TOLS:
            outcome = biortho_outcome(biortho_system, a, tol)
            want = biortho_outcome(reference_biortho_system, a, tol)
            if isinstance(outcome, tuple) != isinstance(want, tuple) or (
                isinstance(want, tuple) and outcome[0] is not want[0]
            ):
                # a different coalescence verdict, allowed only where the
                # discriminant meets the threshold within its rounding
                assert at_the_coalescence_threshold(a, tol), (a, tol, outcome, want)
                flips += 1
                continue
            if isinstance(want, tuple) and want[0] is NearlyDefectiveError:
                assert_same_condition(outcome[1], want[1], a)
            else:
                assert_same_outcome(outcome, want, a)
            seen[want[1].split()[0] if isinstance(want, tuple) else "system"] += 1
    # every branch ran: a system, the condition guard, a defect
    assert {"system", "eigenvector", "source"} <= set(seen), seen
    # the threshold band holds a minority of the draws
    assert flips < 0.2 * len(draws) * len(TOLS), (flips, seen)
