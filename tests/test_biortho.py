"""Biorthonormal eigensystem construction and its invariants."""

import math

import mpmath
import numpy as np
import pytest

from quasic.biortho import (
    COND_LIMIT,
    BiorthoPair,
    BiorthoSystem,
    _condition_number,
    biortho_system,
    completeness_residual,
)
from quasic.errors import DefectiveMatrixError, NearlyDefectiveError
from quasic.invariants import InvariantForm, _real_entries, closed_form_invariant
from quasic.linalg import IDENTITY, PAULI_X, PAULI_Z, adjoint, eigen_2x2, frobenius_norm
from quasic.model import HamiltonianParams, SineDrive, hamiltonian_at

RNG = np.random.default_rng(99)


def random_diagonalizable(min_gap=0.3):
    while True:
        a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        tr = a[0, 0] + a[1, 1]
        disc = (0.5 * tr) ** 2 - (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        if abs(np.sqrt(disc)) > min_gap:
            return a


def test_sigma_z_system():
    sys_z = biortho_system(PAULI_Z)
    first, second = sys_z.pairs
    assert first.eigenvalue == 1 and second.eigenvalue == -1
    assert np.allclose(np.abs(first.right), [1, 0])
    assert np.allclose(first.left, first.right)
    assert np.allclose(second.left, second.right)


def test_model_hamiltonian_eigenvectors():
    lam, kappa = 2.0, 1.0
    p = HamiltonianParams(1.0, lam, kappa)
    sys_h = biortho_system(hamiltonian_at(p, 0.0))
    root = np.sqrt(lam**2 - kappa**2)
    for pair in sys_h.pairs:
        sign = 1.0 if pair.eigenvalue.real > -0.5 else -1.0
        ref = np.array([1j * (-lam + sign * root), kappa])
        # proportionality: cross determinant vanishes
        cross = pair.right[0] * ref[1] - pair.right[1] * ref[0]
        assert abs(cross) < 1e-12


def test_completeness_and_cross_orthogonality():
    for _ in range(50):
        a = random_diagonalizable()
        sys_a = biortho_system(a)
        assert completeness_residual(sys_a) < 1e-10
        for n, pn in enumerate(sys_a.pairs):
            for m, pm in enumerate(sys_a.pairs):
                expected = 1.0 if n == m else 0.0
                assert np.vdot(pn.left, pm.right) == pytest.approx(expected, abs=1e-10)


def test_left_eigen_relation():
    for _ in range(20):
        a = random_diagonalizable()
        sys_a = biortho_system(a)
        for pair in sys_a.pairs:
            resid = np.linalg.norm(
                adjoint(a) @ pair.left - np.conj(pair.eigenvalue) * pair.left
            )
            assert resid < 1e-9 * max(1.0, frobenius_norm(a)) * np.linalg.norm(pair.left)


def test_hermitian_input_reduces_to_orthonormal():
    for _ in range(20):
        a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        a = a + adjoint(a) + np.diag([2.0, -1.0])
        sys_a = biortho_system(a)
        for pair in sys_a.pairs:
            overlap = np.vdot(pair.left, pair.right)
            assert abs(abs(overlap) - 1.0) < 1e-10
            assert np.linalg.norm(np.abs(pair.left) - np.abs(pair.right)) < 1e-10


def test_defective_at_coalescence():
    p = HamiltonianParams(1.0, 1.0, 1.0)
    with pytest.raises(DefectiveMatrixError):
        biortho_system(hamiltonian_at(p, 0.0))
    with pytest.raises(DefectiveMatrixError):
        biortho_system(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_nearly_defective():
    # eigenvalues 1 and 2 are distinct at tol=1e-14 but the eigenvectors are
    # parallel to one part in 1e13, tripping the condition guard
    with pytest.raises(NearlyDefectiveError):
        biortho_system(np.array([[1.0, 1e13], [0.0, 2.0]]), tol=1e-14)


def mp_condition_number(v1, v2):
    """sigma_max / sigma_min of the matrix with columns v1, v2, from its Gram matrix at 60 digits."""
    with mpmath.workdps(60):
        x, y = [mpmath.mpc(c) for c in v1], [mpmath.mpc(c) for c in v2]
        p, q = sum(abs(c) ** 2 for c in x), sum(abs(c) ** 2 for c in y)
        g = sum(mpmath.conj(a) * b for a, b in zip(x, y))
        mid, rad = (p + q) / 2, mpmath.sqrt(((p - q) / 2) ** 2 + abs(g) ** 2)
        return float(mpmath.sqrt((mid + rad) / (mid - rad)))


def test_condition_number_against_mpmath():
    # unit vectors at angle 2 / c have condition ~c; det V rounds to a few
    # eps against |det V| ~ 2 / cond, so the relative error is below 2 eps cond
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for target in 10.0 ** rng.uniform(2.0, 13.0, size=600):
        z = rng.standard_normal(4)
        v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        v /= np.linalg.norm(v)
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        u = (math.cos(2.0 / target) * v + math.sin(2.0 / target) * w) * np.exp(2j * np.pi * rng.uniform())
        v1, v2 = tuple(complex(c) for c in v), tuple(complex(c) for c in u)
        want, got = mp_condition_number(v1, v2), _condition_number(v1, v2)
        assert abs(got - want) <= 2.0 * eps * want * want, (want, got)
        if want <= 5e11:
            assert got <= COND_LIMIT, (want, got)
        if want >= 2e12:
            assert got > COND_LIMIT, (want, got)


def test_condition_guard_follows_the_true_condition():
    # [[1, b], [0, 2]] has eigenvectors (1, 0) and ~(b, 1), condition ~2b
    raised = passed = 0
    for b in np.geomspace(50.0, 5e12, 80):
        a = np.array([[1.0, b], [0.0, 2.0]])
        dec = eigen_2x2(a, tol=1e-14)
        cond = mp_condition_number(*(tuple(pr.vector.tolist()) for pr in dec.pairs))
        if cond <= 5e11:
            biortho_system(a, tol=1e-14)
            passed += 1
        elif cond >= 2e12:
            with pytest.raises(NearlyDefectiveError, match="eigenvector condition"):
                biortho_system(a, tol=1e-14)
            raised += 1
    assert passed > 50 and raised > 5, (passed, raised)


def test_condition_guard_bounds_the_overlap():
    # left_n is the conjugate of row n of V^-1 = adj(V) / det V, and a row of adj(V)
    # is the other right vector, so for unit vectors ||left_n|| = 1 / |det V| =
    # cond / hi <= cond: every system the condition guard lets through has
    # ||left_n|| <= COND_LIMIT
    rng = np.random.default_rng(2026)
    mats = [np.array([[1.0, b], [0.0, 2.0]]) for b in np.geomspace(50.0, 5e12, 200)]
    for _ in range(1000):
        # eigenvectors parallel to 1e-15 ... 1e-8 before a is rounded
        v1, w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = np.column_stack([v1, v1 + 10.0 ** rng.uniform(-15, -8) * w])
        mats.append(v @ np.diag([1.0, 2.0]) @ np.linalg.inv(v))
    worst = {"single": 0.0, "stacked": 0.0}
    for a in mats:
        for tol in (1e-10, 1e-14):
            for path, m in (("single", a), ("stacked", a[None])):
                try:
                    sys_a = biortho_system(m, tol=tol)
                except DefectiveMatrixError:  # NearlyDefectiveError included
                    continue
                norm = max(float(np.linalg.norm(pair.left)) for pair in sys_a.pairs)
                assert norm <= COND_LIMIT, (path, a, tol)
                worst[path] = max(worst[path], norm)
    # both paths built systems right up to the condition guard
    assert min(worst.values()) > 1e11, worst


def test_completeness_residual_follows_the_condition():
    # sum_n |right_n><left_n| = V V^-1 with V^-1 = adj(V) / det V formed directly,
    # so each entry rounds at ~eps times |x0 y1| / |det V| <= cond; a left vector
    # from a second eigensolve, normalized by its overlap, reaches ~eps * cond^2
    rng = np.random.default_rng(2026)
    mats = [np.array([[1.0, b], [0.0, 2.0]]) for b in np.geomspace(50.0, 5e12, 200)]
    for _ in range(400):
        # eigenvectors parallel to 1e-15 ... 1e-8 before a is rounded
        v1, w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = np.column_stack([v1, v1 + 10.0 ** rng.uniform(-15, -8) * w])
        mats.append(v @ np.diag([1.0, 2.0]) @ np.linalg.inv(v))
    eps = np.finfo(float).eps
    worst = {"single": 0.0, "stacked": 0.0}
    for a in mats:
        for tol in (1e-10, 1e-14):
            for path, m in (("single", a), ("stacked", a[None])):
                try:
                    sys_a = biortho_system(m, tol=tol)
                except DefectiveMatrixError:  # NearlyDefectiveError included
                    continue
                if path == "stacked":
                    pairs = tuple(BiorthoPair(pr.eigenvalue[0], pr.right[0], pr.left[0]) for pr in sys_a.pairs)
                    sys_a = BiorthoSystem(pairs=pairs, source=a)
                cond = mp_condition_number(*(tuple(pr.right.tolist()) for pr in sys_a.pairs))
                assert completeness_residual(sys_a) <= 2.0 * eps * cond, (path, a, tol, cond)
                worst[path] = max(worst[path], cond)
    # both paths built systems right up to the condition guard
    assert min(worst.values()) > 1e11, worst


def test_completeness_residual_detects_zeroed_left():
    sys_z = biortho_system(PAULI_Z)
    broken = type(sys_z)(
        pairs=(
            type(sys_z.pairs[0])(
                eigenvalue=sys_z.pairs[0].eigenvalue,
                right=sys_z.pairs[0].right,
                left=np.zeros(2, dtype=complex),
            ),
            sys_z.pairs[1],
        ),
        source=sys_z.source,
    )
    assert completeness_residual(broken) == pytest.approx(1.0)


def parity_link_residual(sys):
    """Largest distance, over the pairs, between the unit directions of left and sigma_z * right.

    Each direction is rotated so that its first component above 1e-12 is
    positive real, which removes the gauge-dependent phase of the link.
    """

    def direction(v):
        u = v / np.linalg.norm(v)
        lead = next(comp for comp in u if abs(comp) > 1e-12)
        return u * (np.conj(lead) / abs(lead))

    return max(
        float(np.linalg.norm(direction(pair.left) - direction(PAULI_Z @ pair.right)))
        for pair in sys.pairs
    )


def test_parity_link_hamiltonian():
    # a parity-pseudo-Hermitian source has each left vector along sigma_z * right
    p = HamiltonianParams(1.0, 2.0, 1.0)
    sys_h = biortho_system(hamiltonian_at(p, 0.0))
    assert parity_link_residual(sys_h) < 1e-10


def test_parity_link_invariant():
    p = HamiltonianParams(1.0, 2.0, 1.0)
    inv = closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, 0.8)
    sys_i = biortho_system(inv)
    assert parity_link_residual(sys_i) < 1e-10


def test_parity_link_fails_for_sigma_x():
    sys_x = biortho_system(PAULI_X)
    assert parity_link_residual(sys_x) > 0.1


def test_gauge_invariance_of_projector_sum():
    p = HamiltonianParams(1.0, 2.0, 1.0)
    sys_h = biortho_system(hamiltonian_at(p, 0.0))

    def weighted_sum(pairs, signs=(1, -1)):
        return sum(
            s * np.outer(pr.right, np.conj(pr.left)) for s, pr in zip(signs, pairs)
        )

    base = weighted_sum(sys_h.pairs)
    for _ in range(50):
        scales = RNG.uniform(0.1, 10.0, size=2) * np.exp(2j * np.pi * RNG.uniform(size=2))
        rescaled = [
            type(pr)(eigenvalue=pr.eigenvalue, right=c * pr.right, left=pr.left / np.conj(c))
            for c, pr in zip(scales, sys_h.pairs)
        ]
        assert frobenius_norm(weighted_sum(rescaled) - base) < 1e-12


def test_pair_order_puts_positive_parity_norm_first():
    # the pair whose right vector has positive <v|sigma_z|v> leads, so the
    # (+1, -1) signature induces the positive-definite metric
    p = HamiltonianParams(1.0, 2.0, 1.0)
    sys_h = biortho_system(hamiltonian_at(p, 0.0))
    w0 = np.real(np.vdot(sys_h.pairs[0].right, PAULI_Z @ sys_h.pairs[0].right))
    w1 = np.real(np.vdot(sys_h.pairs[1].right, PAULI_Z @ sys_h.pairs[1].right))
    assert w0 > 0 > w1
    assert np.allclose(
        sum(s * np.outer(pr.right, np.conj(pr.left)) for s, pr in zip((1, 1), sys_h.pairs)),
        IDENTITY,
    )


EPS = np.finfo(float).eps


def assert_slices_match_scalar(stack, tol=1e-10):
    """Every slice of the stacked system is the scalar system of that matrix, to a few ulp, in its pair order."""
    sys_stack = biortho_system(stack, tol=tol)
    n = len(stack)
    assert sys_stack.source.shape == (n, 2, 2)
    for pair in sys_stack.pairs:
        assert pair.eigenvalue.shape == (n,) and pair.right.shape == pair.left.shape == (n, 2)
    for k, a in enumerate(stack):
        scale = max(1.0, frobenius_norm(a))
        for got, want in zip(sys_stack.pairs, biortho_system(a, tol=tol).pairs):
            # a swapped pair order would differ by the eigenvalue gap
            assert abs(got.eigenvalue[k] - want.eigenvalue) <= 8 * EPS * scale
            assert np.abs(got.right[k] - want.right).max() <= 16 * EPS
            assert np.abs(got.left[k] - want.left).max() <= 16 * EPS * max(1.0, np.linalg.norm(want.left))


class TestStackedSystem:
    def test_random_matrices(self):
        stack = np.array([random_diagonalizable() for _ in range(2000)])
        assert_slices_match_scalar(stack)
        # scaled up to 1e100; below norm 1 the tolerance floor makes most matrices defective
        assert_slices_match_scalar(stack * 10.0 ** RNG.uniform(0, 100, size=(2000, 1, 1)))

    @pytest.mark.parametrize("lam,kappa", [(2.0, 0.7), (0.7, 1.9), (-1.3, 0.5)])
    def test_invariant_time_stacks(self, lam, kappa):
        p = HamiltonianParams(1.0, lam, kappa, hbar=1.3, drive=SineDrive())
        grid = np.linspace(0.0, 3.0, 3001)
        assert_slices_match_scalar(closed_form_invariant(InvariantForm.FULL_TD, p, grid))

    @pytest.mark.parametrize("lam,kappa", [(2.0, 0.7), (0.7, 1.9)])
    def test_invariant_stack_against_closed_form_eigenvectors(self, lam, kappa):
        # I = [[-d, x + iy], [-x + iy, d]] has the eigenvalue +1 with right vector
        # v = (1 - d, -x + iy) and left vector u = (1 - d, x - iy) / (2 (1 - d)), <u|v> = 1
        p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
        grid = np.linspace(0.0, 3.0, 601)
        d, x, y = _real_entries(InvariantForm.FULL_TD, p, grid, stack=True)
        v = np.stack((1.0 - d, -x + 1j * y), axis=-1)
        u = np.stack((1.0 - d, x - 1j * y), axis=-1) / (2.0 * (1.0 - d))[:, None]
        first, second = biortho_system(closed_form_invariant(InvariantForm.FULL_TD, p, grid)).pairs
        plus = (np.abs(first.eigenvalue - 1.0) < 1e-12)[:, None]
        assert np.all(plus | (np.abs(second.eigenvalue - 1.0) < 1e-12)[:, None])
        right, left = np.where(plus, first.right, second.right), np.where(plus, first.left, second.left)
        # the system's pair is (c v, u / conj(c)) for the c with |c v| = 1
        c = right[:, 0] / v[:, 0]
        assert np.abs(np.abs(c) * np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-15
        assert np.abs(right - c[:, None] * v).max() <= 1e-15
        assert np.abs(left - u / c.conj()[:, None]).max() <= 1e-14 * np.abs(u / c.conj()[:, None]).max()

    def test_special_slices(self):
        # multiples of the identity, Hermitian and real matrices, a stack of one
        h = hamiltonian_at(HamiltonianParams(1.0, 2.0, 1.0), 0.0)
        stack = np.array([2.5 * IDENTITY, -3j * IDENTITY, PAULI_Z, PAULI_X, h])
        assert_slices_match_scalar(stack)
        assert_slices_match_scalar(stack[:1])

    @pytest.mark.parametrize("lam,kappa", [(2.0, 0.7), (0.7, 1.9)])
    def test_identity_swapped_and_nan_slices_in_an_invariant_stack(self, lam, kappa):
        # multiples of the identity are the only coalescent slices (their
        # scalar-multiple test runs on that subset alone), -sigma_z is the
        # only slice whose pairs change order, and a NaN matrix passes through
        p = HamiltonianParams(1.0, lam, kappa, hbar=1.3, drive=SineDrive())
        stack = closed_form_invariant(InvariantForm.FULL_TD, p, np.linspace(0.0, 3.0, 3001))
        inserts = {0: 2.5 * IDENTITY, 17: np.full((2, 2), np.nan), 1500: -3j * IDENTITY, 1501: -PAULI_Z}
        inserts.update({2999: np.full((2, 2), np.nan), 3000: 0.0 * IDENTITY, 3003: -PAULI_Z})
        for k, a in sorted(inserts.items()):
            stack = np.insert(stack, k, a, axis=0)
        nan = [k for k, a in inserts.items() if np.isnan(a).any()]
        sys_stack = biortho_system(stack)
        for pair in sys_stack.pairs:
            assert np.isnan(pair.eigenvalue[nan]).all() and np.isnan(pair.right[nan]).all()
        finite = np.delete(np.arange(len(stack)), nan)
        assert_slices_match_scalar(stack[finite])
        # -sigma_z: eigenvalue 1 has right vector e_1 (class 2), so the pair of -1 and e_0 leads
        assert sys_stack.pairs[0].eigenvalue[1501] == -1.0 and sys_stack.pairs[1].eigenvalue[1501] == 1.0

    def test_non_finite_slices_pass_through(self):
        # the scalar path returns a NaN system for a NaN matrix; so does its slice
        stack = np.array([PAULI_Z, np.full((2, 2), np.nan), PAULI_X]).astype(complex)
        sys_stack = biortho_system(stack)
        assert np.isnan(sys_stack.pairs[0].right[1]).all()
        for k in (0, 2):
            for got, want in zip(sys_stack.pairs, biortho_system(stack[k]).pairs):
                assert np.abs(got.right[k] - want.right).max() <= 16 * EPS

    @pytest.mark.parametrize(
        "bad,tol,expected,message",
        [
            (np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10, DefectiveMatrixError, "source matrix is defective"),
            (hamiltonian_at(HamiltonianParams(1.0, 1.0, 1.0), 0.0), 1e-10, DefectiveMatrixError, "source matrix is defective"),
            (np.array([[1.0, 1e13], [0.0, 2.0]]), 1e-14, NearlyDefectiveError, "eigenvector condition"),
        ],
    )
    def test_a_failing_slice_raises_the_scalar_exception(self, bad, tol, expected, message):
        with pytest.raises(expected) as scalar:
            biortho_system(bad, tol=tol)
        assert type(scalar.value) is expected
        good = np.array([random_diagonalizable() for _ in range(6)])
        for k in (0, 3, 6):
            stack = np.insert(good, k, bad, axis=0)
            with pytest.raises(expected, match=f"{message}.* at sample {k}$"):
                biortho_system(stack, tol=tol)
        # the first failing sample is the one named
        stack = np.concatenate((good[:2], [bad], good[2:4], [bad]))
        with pytest.raises(expected, match="at sample 2$"):
            biortho_system(stack, tol=tol)
