"""Closed-form 2x2 linear algebra against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from quasic.errors import NotHermitianError, NotPositiveDefiniteError
from quasic.linalg import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _eigen_stack,
    _null_vector,
    adjoint,
    commutator,
    det,
    det_real_stack,
    eigen_2x2,
    frobenius_norm,
    frobenius_norm_stack,
    hermitian_eigenvalues_2x2,
    hermitian_eigenvalues_stack,
    mat_exp,
    psd_sqrt,
)
from quasic.model import HamiltonianParams, hamiltonian_at

RNG = np.random.default_rng(20240817)


def random_complex_matrix(scale=1.0):
    return scale * (RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2)))


def expm_taylor_oracle(a, terms=40):
    """Scaling-and-squaring of the raw Taylor series; independent of mat_exp."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    b = a / 2.0**squarings
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


class TestBasics:
    def test_pauli_products(self):
        assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
        assert np.allclose(PAULI_Z @ PAULI_Z, IDENTITY)

    def test_commutators(self):
        a = random_complex_matrix()
        assert frobenius_norm(commutator(a, a)) == 0.0
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)
        assert np.allclose(commutator(PAULI_Z, IDENTITY), np.zeros((2, 2)))

    def test_adjoint(self):
        assert np.allclose(adjoint(1j * PAULI_X), -1j * PAULI_X)
        assert np.allclose(adjoint(PAULI_Z), PAULI_Z)
        a = random_complex_matrix()
        assert np.allclose(adjoint(adjoint(a)), a)

    def test_det_trace(self):
        assert det(PAULI_Z) == -1
        # the trace is the sum of the eigenvalues
        dec = eigen_2x2(PAULI_X)
        assert dec.first.value + dec.second.value == 0

    def test_predicates(self):
        # Hermiticity and positivity are tested where a routine requires them
        assert hermitian_eigenvalues_2x2(PAULI_Y) == pytest.approx((1.0, -1.0), abs=1e-15)
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues_2x2(1j * PAULI_Y)
        s = psd_sqrt(np.diag([2.0, 0.5]).astype(complex))
        assert np.allclose(s, np.diag([math.sqrt(2.0), math.sqrt(0.5)]))
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(PAULI_Z)
        with pytest.raises(NotHermitianError):
            psd_sqrt(1j * PAULI_Y)


class TestEigen:
    def test_identity(self):
        dec = eigen_2x2(IDENTITY)
        assert not dec.defective
        assert dec.first.value == 1 and dec.second.value == 1
        assert abs(np.vdot(dec.first.vector, dec.second.vector)) < 1e-14

    def test_sigma_z(self):
        dec = eigen_2x2(PAULI_Z)
        assert dec.first.value == 1 and dec.second.value == -1
        assert np.allclose(np.abs(dec.first.vector), [1, 0])
        assert np.allclose(np.abs(dec.second.vector), [0, 1])

    def test_model_hamiltonian_eigenvalues(self):
        # closed form -omega/2 +- sqrt(lam^2 - kappa^2)/2 at (1, 2, 1)
        h = -0.5 * np.array([[3.0, 1j], [1j, -1.0]])
        dec = eigen_2x2(h)
        root = math.sqrt(3.0) / 2.0
        assert dec.first.value == pytest.approx(-0.5 + root, abs=1e-14)
        assert dec.second.value == pytest.approx(-0.5 - root, abs=1e-14)

    def test_residual_bound(self):
        for _ in range(50):
            a = random_complex_matrix(scale=RNG.uniform(0.1, 10))
            dec = eigen_2x2(a)
            if dec.defective:
                continue
            for pair in dec.pairs:
                resid = np.linalg.norm(a @ pair.vector - pair.value * pair.vector)
                assert resid <= 1e-10 * frobenius_norm(a) * np.linalg.norm(pair.vector)

    def test_reconstruction(self):
        for _ in range(50):
            a = random_complex_matrix()
            dec = eigen_2x2(a)
            if dec.defective:
                continue
            v = np.column_stack([dec.first.vector, dec.second.vector])
            lam = np.diag([dec.first.value, dec.second.value])
            assert frobenius_norm(v @ lam @ np.linalg.inv(v) - a) <= 1e-10

    def test_null_vector_same_candidate_as_vector_norms(self):
        # the np.linalg.norm form of the adjugate-row choice
        def reference(a, lam, scale):
            c1 = np.array([a[0, 1], lam - a[0, 0]], dtype=complex)
            c2 = np.array([lam - a[1, 1], a[1, 0]], dtype=complex)
            v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
            n = np.linalg.norm(v)
            if n <= 1e-14 * scale:
                return np.array([1.0, 0.0], dtype=complex)
            return v / n

        cases = [(random_complex_matrix(), complex(RNG.standard_normal(), RNG.standard_normal()))
                 for _ in range(200)]
        cases += [(IDENTITY, 1.0), (PAULI_Z, 1.0), (np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)]
        for a, lam in cases:
            a = np.asarray(a, dtype=complex)
            scale = max(1.0, frobenius_norm(a))
            got = _null_vector(a, complex(lam), scale)
            assert np.abs(got - reference(a, lam, scale)).max() <= 1e-15

    def test_ordering_descending(self):
        a = np.diag([1.0 - 2j, 1.0 + 3j])
        dec = eigen_2x2(a)
        assert dec.first.value.imag > dec.second.value.imag

    def test_defective_jordan_block(self):
        dec = eigen_2x2(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert dec.defective
        assert dec.first.value == pytest.approx(1.0)
        assert dec.first.vector is dec.second.vector

    def test_defective_exceptional_point(self):
        h = -0.5 * np.array([[1 + 1.0, 1j], [1j, 1 - 1.0]])  # lam = kappa = 1
        dec = eigen_2x2(h)
        assert dec.defective
        assert dec.first.value == pytest.approx(-0.5)

    def test_split_next_to_coalescence_against_mpmath(self):
        # H = -1/2 [[omega + lam, i kappa], [i kappa, omega - lam]] with |lam| within
        # 1e-16 .. 1e-2 of |kappa| and omega up to 1e3 |kappa|.  The split 2 s of
        # the computed eigenvalues m +- s must follow the exact split of the
        # rounded entries: s^2 = ((a00 - a11)/2)^2 + a01 a10 rounds relative to
        # its two terms, not to m^2, so the error bound does not grow with omega
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        matrices, exact = [], []
        for _ in range(400):
            kappa = 10.0 ** rng.uniform(-5, 0) * rng.choice((-1.0, 1.0))
            lam = kappa * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -2))
            omega = abs(kappa) * 10.0 ** rng.uniform(0, 3)
            h = hamiltonian_at(HamiltonianParams(omega, lam, kappa), 0.0)
            with mpmath.workdps(50):
                a00, a01, a10, a11 = (mpmath.mpc(complex(z)) for z in h.ravel())
                s = mpmath.sqrt(((a00 - a11) / 2) ** 2 + a01 * a10)
            matrices.append(h)
            exact.append((complex(s), float(abs((a00 - a11) / 2) ** 2 + abs(a01 * a10))))
        scale = np.maximum(1.0, frobenius_norm_stack(np.array(matrices)))
        seen = {True: 0, False: 0}
        for tol in (1e-10, 1e-15):
            with np.errstate(all="ignore"):
                (stack1, _), (stack2, _), stack_defective = _eigen_stack(np.array(matrices), scale, tol)
            for k, (h, (s, terms)) in enumerate(zip(matrices, exact)):
                dec = eigen_2x2(h, tol=tol)
                assert dec.defective == stack_defective[k]
                limit = tol * scale[k]
                if abs(s) <= 0.5 * limit:
                    assert dec.defective
                elif abs(s) >= 2.0 * limit:
                    assert not dec.defective
                    m = abs(0.5 * (h[0, 0] + h[1, 1]))
                    bound = 4.0 * eps * (m + terms / abs(s))
                    for lam1, lam2 in ((dec.first.value, dec.second.value), (stack1[k], stack2[k])):
                        split = lam1 - lam2
                        assert abs(split - 2.0 * s) <= bound or abs(split + 2.0 * s) <= bound, (h, s)
                seen[dec.defective] += 1
        # both sides of the coalescence test ran
        assert min(seen.values()) > 50, seen


class TestHermitianEigenvalues:
    def test_trivial(self):
        assert hermitian_eigenvalues_2x2(IDENTITY) == (1.0, 1.0)
        assert hermitian_eigenvalues_2x2(PAULI_X) == (1.0, -1.0)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues_2x2(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_det_consistency(self):
        for _ in range(100):
            a = random_complex_matrix()
            a = a + adjoint(a)
            hi, lo = hermitian_eigenvalues_2x2(a)
            assert hi >= lo
            assert hi + lo == pytest.approx((a[0, 0] + a[1, 1]).real, abs=1e-12)
            assert hi * lo == pytest.approx(det(a).real, abs=1e-12)


class TestScalarKernels:
    """The 2x2 kernels that read Python scalars, against the numpy forms they replace."""

    @staticmethod
    def matrices():
        for _ in range(300):
            yield random_complex_matrix()
        for _ in range(300):
            # entries spread over 200 decades, so the sum order matters
            yield random_complex_matrix() * 10.0 ** RNG.uniform(-100, 100, size=(2, 2))

    def test_frobenius_norm_matches_numpy(self):
        for a in self.matrices():
            # row-major, column-major (adjoints are transposed views) and a difference
            for m in (a, adjoint(a), np.asfortranarray(a), a - adjoint(a), a.real):
                expected = float(np.linalg.norm(m))
                assert abs(frobenius_norm(m) - expected) <= 2 * math.ulp(expected)

    def test_frobenius_norm_other_shapes_use_numpy(self):
        for m in (np.arange(3.0), RNG.standard_normal((3, 3)), RNG.standard_normal((2, 2, 2))):
            assert frobenius_norm(m) == float(np.linalg.norm(m))

    def test_frobenius_norm_non_finite(self):
        assert frobenius_norm(np.array([[np.inf, 0], [0, 1]], dtype=complex)) == np.inf
        assert math.isnan(frobenius_norm(np.array([[np.nan, 0], [0, 1]], dtype=complex)))

    def test_hermitian_eigenvalues_match_eigvalsh(self):
        for a in self.matrices():
            h = a + adjoint(a)
            hi, lo = hermitian_eigenvalues_2x2(h)
            lo_ref, hi_ref = np.linalg.eigvalsh(h)
            scale = np.linalg.norm(h)
            assert abs(hi - hi_ref) <= 1e-14 * scale and abs(lo - lo_ref) <= 1e-14 * scale
            # a column-major view of the same matrix gives the same numbers
            assert hermitian_eigenvalues_2x2(adjoint(h)) == (hi, lo)

    def test_hermitian_eigenvalues_same_as_numpy_form(self):
        def reference(a, tol=1e-10):
            a = np.asarray(a, dtype=complex)
            scale = max(1.0, float(np.linalg.norm(a)))
            if float(np.linalg.norm(a - adjoint(a))) > tol * scale:
                raise NotHermitianError("reference")
            p, q = a[0, 0].real, a[1, 1].real
            rad = float(np.hypot(0.5 * (p - q), abs(a[0, 1])))
            return (0.5 * (p + q) + rad, 0.5 * (p + q) - rad)

        for a in self.matrices():
            h = a + adjoint(a)
            assert hermitian_eigenvalues_2x2(h) == reference(h)

    def test_not_hermitian_still_raised(self):
        for a in self.matrices():
            h = a + adjoint(a)
            scale = max(1.0, np.linalg.norm(h))
            skew = np.array([[0.0, 1.0], [-1.0, 0.0]]) * scale
            with pytest.raises(NotHermitianError):
                hermitian_eigenvalues_2x2(h + 1e-6 * skew)
            with pytest.raises(NotHermitianError):
                hermitian_eigenvalues_2x2(h + 1e-6j * scale * IDENTITY)
            hermitian_eigenvalues_2x2(h + 1e-12 * skew)  # within tol * scale


class TestStackedKernels:
    """The (..., 2, 2) kernels give each matrix the scalar kernels' bits."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
        # half the entries spread over 100 decades, so the sum order matters
        a[1000:] *= 10.0 ** rng.uniform(-50, 50, size=(1000, 2, 2))
        return a

    def test_frobenius_norm_and_det(self):
        a = self.stack()
        assert frobenius_norm_stack(a).tolist() == [frobenius_norm(m) for m in a]
        assert det_real_stack(a).tolist() == [float(np.real(det(m))) for m in a]
        # C^2 - I of a stack by batched matmul, as the command line forms it
        squares = frobenius_norm_stack(np.matmul(a, a) - IDENTITY)
        assert squares.tolist() == [frobenius_norm(m @ m - IDENTITY) for m in a]

    def test_hermitian_eigenvalues(self):
        a = self.stack()
        h = a + a.conj().swapaxes(-1, -2)
        hi, lo = hermitian_eigenvalues_stack(h, tol=1e-8)
        assert list(zip(hi.tolist(), lo.tolist())) == [hermitian_eigenvalues_2x2(m, tol=1e-8) for m in h]

    def test_not_hermitian_raises_the_scalar_error(self):
        h = np.array([IDENTITY, PAULI_X, np.array([[0.0, 1.0], [0.0, 0.0]])], dtype=complex)
        with pytest.raises(NotHermitianError) as scalar:
            hermitian_eigenvalues_2x2(h[2], tol=1e-8)
        with pytest.raises(NotHermitianError) as stacked:
            hermitian_eigenvalues_stack(h, tol=1e-8)
        assert str(stacked.value) == str(scalar.value)

    def test_non_finite_entries(self):
        h = np.array([[[np.inf, 0], [0, 1]], [[np.nan, 0], [0, 1]], [[1, 0], [0, 1]]], dtype=complex)
        with np.errstate(invalid="ignore"):
            hi, lo = hermitian_eigenvalues_stack(h)
        for k, m in enumerate(h):
            assert [repr(hi[k]), repr(lo[k])] == [repr(np.float64(v)) for v in hermitian_eigenvalues_2x2(m)]


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((2, 2))), IDENTITY)

    def test_diagonal_phase(self):
        got = mat_exp(1j * (math.pi / 2) * PAULI_Z)
        assert np.allclose(got, np.diag([1j, -1j]), atol=1e-15)

    def test_sigma_x(self):
        got = mat_exp(PAULI_X)
        expected = math.cosh(1.0) * IDENTITY + math.sinh(1.0) * PAULI_X
        assert np.abs(got - expected).max() < 1e-14
        # and against the independent series oracle
        assert np.abs(got - expm_taylor_oracle(PAULI_X)).max() < 1e-13

    def test_against_taylor_oracle(self):
        for _ in range(40):
            a = random_complex_matrix(scale=RNG.uniform(0.05, 2.0))
            assert np.abs(mat_exp(a) - expm_taylor_oracle(a)).max() < 1e-12

    def test_inverse_property(self):
        for _ in range(40):
            a = random_complex_matrix()
            a *= 5.0 / max(1.0, frobenius_norm(a))
            assert frobenius_norm(mat_exp(a) @ mat_exp(-a) - IDENTITY) < 1e-12

    def test_small_generator_branch(self):
        # |r| below the series switch-over
        a = 1e-8 * (PAULI_X + 0.5 * PAULI_Y - 0.25 * PAULI_Z)
        assert np.abs(mat_exp(a) - expm_taylor_oracle(a)).max() < 5e-16

    def test_branch_switch_is_continuous(self):
        direction = PAULI_X + 0.5 * PAULI_Y - 0.25 * PAULI_Z
        scale = 1e-6 / np.sqrt(abs(1.0 + 0.5**2 - (-0.25) ** 2 * 0 + 0.25**2))
        below = mat_exp(0.999 * scale * direction)
        above = mat_exp(1.001 * scale * direction)
        # both sides of the switch agree with the oracle to full precision
        for got, gen in ((below, 0.999 * scale * direction), (above, 1.001 * scale * direction)):
            assert np.abs(got - expm_taylor_oracle(gen)).max() < 5e-16


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(IDENTITY), IDENTITY)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_resquare_random(self):
        for _ in range(50):
            a = random_complex_matrix()
            pd = a @ adjoint(a) + 0.1 * IDENTITY
            s = psd_sqrt(pd)
            assert frobenius_norm(s - adjoint(s)) <= 1e-10 * max(1.0, frobenius_norm(s))
            assert frobenius_norm(s @ s - pd) < 1e-12 * max(1.0, frobenius_norm(pd))

    def test_sqrt_of_square(self):
        for _ in range(20):
            a = random_complex_matrix()
            s0 = a @ adjoint(a) + 0.5 * IDENTITY
            assert frobenius_norm(psd_sqrt(s0 @ s0) - s0) < 1e-11 * frobenius_norm(s0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(PAULI_Z)
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))
