"""Closed-form invariants and the time-ordered coefficient propagator."""

import math
import warnings

import numpy as np
import pytest

from quasic.errors import (
    DriveRangeError,
    ExceptionalPointSingularError,
    NotTemplateError,
    RegimeMismatchError,
)
from quasic.invariants import (
    InvariantForm,
    InvariantState,
    TemplateCoefficients,
    closed_form_invariant,
    coefficient_matrix,
    invariant_coefficients,
    lr_residual,
    preset_initial_state,
    scaled_drive_integral,
    signature_normalize,
    time_ordered_propagate,
)
from quasic.invariants import _ordered_product
from quasic.linalg import PAULI_Z, adjoint, det, frobenius_norm
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    PauliCoefficients,
    SineDrive,
    TabulatedDrive,
    hamiltonian_coefficients,
)

RNG = np.random.default_rng(31)

SQRT2 = math.sqrt(2.0)

PT_PARAMS = HamiltonianParams(1.0, 2.0, 1.0)
BROKEN_PARAMS = HamiltonianParams(1.0, 0.5, 1.0)
EP_PARAMS = HamiltonianParams(1.0, 1.0, 1.0)
FULL_SINE_PARAMS = HamiltonianParams(1.0, 2.0, 1.0, drive=SineDrive())
FULL_CONST_PARAMS = HamiltonianParams(1.0, 0.5, 1.0, drive=ConstantDrive())

FORM_PARAMS = [
    (InvariantForm.PT_SYMMETRIC, PT_PARAMS),
    (InvariantForm.SPONTANEOUSLY_BROKEN, BROKEN_PARAMS),
    (InvariantForm.EXCEPTIONAL_POINT, EP_PARAMS),
    (InvariantForm.FULL_TD, FULL_SINE_PARAMS),
    (InvariantForm.FULL_TD, FULL_CONST_PARAMS),
]


def expm3_series_oracle(a, terms=60):
    """Plain Taylor sum; adequate for the small step generators used here."""
    acc = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def sequential_reference(p, init, t0, t1, steps):
    """The exponential product one step at a time in coefficient space.

    Applies exp((2/hbar) dt M(t_mid)) to the coefficient vector step by step,
    the scheme time_ordered_propagate must reproduce.  Only the factors are
    built as one array; their product is taken in a plain sequential loop.
    The arithmetic is in long double: in double precision the sequential
    product alone drifts by ~1e-12 over 8193 steps of a constant generator.
    """
    dt = (t1 - t0) / steps
    gens = (2.0 / p.hbar) * dt * np.array(
        [
            coefficient_matrix(hamiltonian_coefficients(p, t0 + (k + 0.5) * dt))
            for k in range(steps)
        ]
    )
    # series long enough that the first omitted term is below long-double roundoff
    norm = np.abs(gens).sum(axis=2).max()
    terms = next(k for k in range(2, 80) if norm**k / math.factorial(k) < 1e-21)
    v = np.asarray(init.iota, dtype=np.clongdouble)
    for factor in expm3_series_oracle(gens.astype(np.clongdouble), terms=terms):
        v = factor @ v
    return v.astype(complex)


class TestCoefficientMatrix:
    def test_scalar_only(self):
        m = coefficient_matrix(PauliCoefficients(3.7, 0, 0, 0))
        assert np.allclose(m, np.zeros((3, 3)))

    def test_static_model_values(self):
        lam, kappa = 2.0, 1.0
        m = coefficient_matrix(hamiltonian_coefficients(HamiltonianParams(1.0, lam, kappa), 0.0))
        expected = np.array(
            [
                [0, lam / 2, 0],
                [-lam / 2, 0, 1j * kappa / 2],
                [0, -1j * kappa / 2, 0],
            ]
        )
        assert np.allclose(m, expected)

    def test_antisymmetry(self):
        for _ in range(20):
            c = PauliCoefficients(*(RNG.standard_normal(4) + 1j * RNG.standard_normal(4)))
            m = coefficient_matrix(c)
            assert frobenius_norm(m + m.T) < 1e-15


class TestOrderedProduct:
    # the family's H(t) commute with each other, so propagation tests cannot
    # see the order of the factors; random matrices can
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 100])
    def test_matches_sequential_product_in_time_order(self, n):
        deltas = RNG.standard_normal((n, 2, 2)) + 1j * RNG.standard_normal((n, 2, 2))
        expected = np.eye(2, dtype=complex)
        for d in deltas:
            expected = (np.eye(2) + d) @ expected
        got = np.eye(2) + _ordered_product(deltas)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_keeps_relative_precision_near_the_identity(self):
        # 10^4 identical rotations by 1e-9: the product's deviation from I is
        # exp(1e-5 * i sigma_z) - I, which a product of the rounded factors
        # I + delta misses by ~2e-9 relative
        deltas = np.broadcast_to(np.diag([np.expm1(1e-9j), np.expm1(-1e-9j)]), (10_000, 2, 2))
        got = _ordered_product(np.array(deltas))
        expected = np.diag([np.expm1(1e-5j), np.expm1(-1e-5j)])
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestPropagation:
    def test_zero_hamiltonian_is_identity_flow(self):
        p = HamiltonianParams(0.0, 0.0, 0.0)
        init = InvariantState(0.0, np.array([1.0, 2.0, 3.0], dtype=complex), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # r = 0 in every factor
            out = time_ordered_propagate(p, init, 0.0, 4.0, 57)
        assert np.allclose(out.iota, init.iota)
        assert out.iota0 == init.iota0

    def test_constant_generator_matches_single_exponential(self):
        p = PT_PARAMS
        init = preset_initial_state(InvariantForm.PT_SYMMETRIC, p)
        t1 = 1.7
        out = time_ordered_propagate(p, init, 0.0, t1, 400)
        m = coefficient_matrix(hamiltonian_coefficients(p, 0.0))
        expected = expm3_series_oracle(2.0 * t1 * m) @ init.iota
        assert np.abs(out.iota - expected).max() < 1e-12

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_matches_closed_form(self, form, p):
        init = preset_initial_state(form, p)
        t1 = init.time + 2.0
        out = time_ordered_propagate(p, init, init.time, t1, 4000)
        target = closed_form_invariant(form, p, t1)
        assert frobenius_norm(out.matrix() - target) < 1e-7

    def test_second_order_convergence(self):
        p = FULL_SINE_PARAMS
        init = preset_initial_state(InvariantForm.FULL_TD, p)
        t1 = 5.0
        errs = []
        for steps in (1000, 2000, 4000):
            out = time_ordered_propagate(p, init, init.time, t1, steps)
            errs.append(frobenius_norm(out.matrix() - closed_form_invariant(InvariantForm.FULL_TD, p, t1)))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    @pytest.mark.parametrize(
        "form,p",
        [
            (InvariantForm.PT_SYMMETRIC, PT_PARAMS),
            # hyperbolic growth amplifies relative roundoff into the absolute
            # determinant, so keep the broken-regime entries moderate
            (InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 1.0, 1.02)),
        ],
    )
    def test_determinant_preserved(self, form, p):
        state = preset_initial_state(form, p)
        for t1 in np.linspace(1.0, 10.0, 10):
            state = time_ordered_propagate(p, state, state.time, t1, 500)
            assert abs(det(state.matrix()) + 1.0) < 1e-9

    def test_backward_propagation_inverts(self):
        p = FULL_SINE_PARAMS
        init = preset_initial_state(InvariantForm.FULL_TD, p)
        fwd = time_ordered_propagate(p, init, init.time, 4.0, 2000)
        back = time_ordered_propagate(p, fwd, 4.0, init.time, 2000)
        assert np.abs(back.iota - init.iota).max() < 1e-8

    def test_tabulated_drive_matches_sine_drive(self):
        grid = np.linspace(0.0, 4.0, 8001)
        tab = TabulatedDrive(times=grid, values=np.sin(grid), t_ref=math.pi / 2)
        p_tab = HamiltonianParams(1.0, 2.0, 1.0, drive=tab)
        init = preset_initial_state(InvariantForm.FULL_TD, p_tab)
        out_tab = time_ordered_propagate(p_tab, init, init.time, 3.5, 2000)
        out_ref = time_ordered_propagate(
            FULL_SINE_PARAMS, init, init.time, 3.5, 2000
        )
        assert np.abs(out_tab.iota - out_ref.iota).max() < 1e-6
        closed = closed_form_invariant(InvariantForm.FULL_TD, p_tab, 3.5)
        assert frobenius_norm(out_tab.matrix() - closed) < 1e-6

    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    @pytest.mark.parametrize(
        "lam,kappa", [(2.0, 1.0), (0.5, 1.0), (1.0, 1.0)], ids=["pt", "broken", "ep"]
    )
    @pytest.mark.parametrize(
        "drive",
        [
            SineDrive(),
            ConstantDrive(),
            TabulatedDrive(times=np.linspace(0.0, 3.0, 61), values=np.cos(np.linspace(0.0, 3.0, 61))),
        ],
        ids=["sine", "constant", "tabulated"],
    )
    def test_same_scheme_as_sequential_product(self, drive, lam, kappa, forward):
        p = HamiltonianParams(1.0, lam, kappa, hbar=0.8, drive=drive)
        init = InvariantState(0.5, np.array([0.3 + 0.1j, 1j, 1.2], dtype=complex), 0.0)
        t0, t1 = (0.3, 2.3) if forward else (2.3, 0.3)
        # odd tails and both sides of the 4096-step block edges
        for steps in (1, 2, 3, 4095, 4096, 4097, 8193):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # r = 0 at the EP
                out = time_ordered_propagate(p, init, t0, t1, steps)
            ref = sequential_reference(p, init, t0, t1, steps)
            assert np.linalg.norm(out.iota - ref) <= 1e-12 * np.linalg.norm(ref), steps
            assert out.iota0 == init.iota0 and out.time == t1

    def test_propagation_outside_tabulated_range(self):
        grid = np.linspace(0.0, 1.0, 11)
        tab = TabulatedDrive(times=grid, values=np.ones_like(grid))
        p = HamiltonianParams(1.0, 2.0, 1.0, drive=tab)
        init = InvariantState(0.0, np.array([0.0, 0.0, 1.0], dtype=complex), 0.0)
        with pytest.raises(DriveRangeError):
            time_ordered_propagate(p, init, 0.0, 2.0, 10)


class TestPresets:
    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_preset_matches_closed_form_at_anchor(self, form, p):
        init = preset_initial_state(form, p)
        assert frobenius_norm(init.matrix() - closed_form_invariant(form, p, init.time)) < 1e-12

    def test_full_td_preset_is_sigma_z(self):
        init = preset_initial_state(InvariantForm.FULL_TD, FULL_SINE_PARAMS)
        assert np.allclose(init.matrix(), PAULI_Z)
        assert init.time == pytest.approx(math.pi / 2)


class TestClosedForms:
    @pytest.mark.parametrize(
        "form,p",
        [
            (InvariantForm.PT_SYMMETRIC, PT_PARAMS),
            (InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 1.0, 1.2)),
            (InvariantForm.EXCEPTIONAL_POINT, EP_PARAMS),
            (InvariantForm.FULL_TD, FULL_SINE_PARAMS),
            (InvariantForm.FULL_TD, HamiltonianParams(1.0, 1.0, 1.2, drive=ConstantDrive())),
        ],
    )
    def test_det_is_minus_one(self, form, p):
        # entry scale stays below ~1e3 for these parameters, so the 1e-9
        # bound is meaningful in double precision over the whole window
        for t in np.linspace(0.0, 10.0, 41):
            assert abs(det(closed_form_invariant(form, p, t)) + 1.0) < 1e-9

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_template_identity(self, form, p):
        # delta^2 + gamma_plus*gamma_minus = xi^2 forces eigenvalues +-1
        for t in np.linspace(0.0, 3.0, 7):
            c = invariant_coefficients(form, p, t)
            assert c.signature_identity_residual() < 1e-9 * max(1.0, abs(c.xi) ** 2)

    def test_template_identity_over_parameter_grid(self):
        for lam in (0.5, 1.0, 2.0):
            for kappa in (0.5, 1.0, 2.0):
                if abs(lam) == abs(kappa):
                    continue
                p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
                for t in (0.0, 0.7, 1.5, 3.0):
                    c = invariant_coefficients(InvariantForm.FULL_TD, p, t)
                    assert c.signature_identity_residual() < 1e-9 * max(1.0, abs(c.xi) ** 2)

    def test_full_td_at_zero_drive_integral_is_sigma_z(self):
        got = closed_form_invariant(InvariantForm.FULL_TD, FULL_SINE_PARAMS, math.pi / 2)
        assert frobenius_norm(got - PAULI_Z) < 1e-14

    def test_exceptional_point_at_time_zero(self):
        got = closed_form_invariant(InvariantForm.EXCEPTIONAL_POINT, EP_PARAMS, 0.0)
        expected = np.array([[SQRT2, 1.0], [-1.0, -SQRT2]])
        assert np.allclose(got, expected, atol=1e-15)

    def test_full_td_parity_pseudo_hermitian(self):
        for p in (FULL_SINE_PARAMS, FULL_CONST_PARAMS):
            for t in np.linspace(0.0, 5.0, 11):
                j = closed_form_invariant(InvariantForm.FULL_TD, p, t)
                assert frobenius_norm(PAULI_Z @ adjoint(j) @ PAULI_Z - j) < 1e-10

    def test_scaled_drive_integral_regimes(self):
        mu_pt = scaled_drive_integral(FULL_SINE_PARAMS, 1.0)
        assert abs(mu_pt.real) < 1e-15 and abs(mu_pt.imag) > 0.1
        mu_broken = scaled_drive_integral(HamiltonianParams(1.0, 0.5, 1.0, drive=ConstantDrive()), 1.0)
        assert abs(mu_broken.imag) < 1e-15 and mu_broken.real > 0.1

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatchError):
            invariant_coefficients(InvariantForm.PT_SYMMETRIC, BROKEN_PARAMS, 0.0)
        with pytest.raises(RegimeMismatchError):
            invariant_coefficients(InvariantForm.SPONTANEOUSLY_BROKEN, PT_PARAMS, 0.0)
        with pytest.raises(RegimeMismatchError):
            invariant_coefficients(InvariantForm.EXCEPTIONAL_POINT, PT_PARAMS, 0.0)

    def test_full_td_singular_at_coalescence(self):
        with pytest.raises(ExceptionalPointSingularError):
            invariant_coefficients(InvariantForm.FULL_TD, EP_PARAMS, 1.0)


class TestLrResidual:
    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_closed_forms_satisfy_invariant_equation(self, form, p):
        def inv_at(t):
            return closed_form_invariant(form, p, t)

        for t in np.linspace(0.0, 5.0, 11):
            assert lr_residual(inv_at, p, t, fd_step=1e-5) < 1e-8

    def test_commuting_case_is_exact(self):
        p = HamiltonianParams(1.0, 0.0, 0.0)
        const = np.array([[1.0, 0.5], [0.5j, -1.0]])
        assert lr_residual(lambda t: const, p, 0.9) < 1e-15

    def test_detects_corrupted_invariant(self):
        p = PT_PARAMS

        def corrupted(t):
            m = closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, t).copy()
            m[0, 1] += 0.1
            return m

        assert lr_residual(corrupted, p, 1.0) > 0.01

    def test_step_halving_reduces_residual_quadratically(self):
        p = PT_PARAMS

        def inv_at(t):
            return closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, t)

        coarse = lr_residual(inv_at, p, 1.3, fd_step=2e-3)
        fine = lr_residual(inv_at, p, 1.3, fd_step=1e-3)
        assert 3.0 < coarse / fine < 5.0


class TestSignatureNormalize:
    def test_scaled_sigma_z(self):
        assert np.allclose(signature_normalize(3.0 * PAULI_Z), PAULI_Z)

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_closed_forms_already_normalized(self, form, p):
        m = closed_form_invariant(form, p, 1.1)
        assert frobenius_norm(signature_normalize(m) - m) < 1e-12

    def test_rejects_identity(self):
        with pytest.raises(NotTemplateError):
            signature_normalize(np.eye(2, dtype=complex))

    def test_random_opposite_pair_family(self):
        for _ in range(20):
            a = RNG.standard_normal() + 1j * RNG.standard_normal()
            g = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            m = g @ np.diag([a, -a]) @ np.linalg.inv(g)
            normd = signature_normalize(m)
            vals = sorted(np.linalg.eigvals(normd), key=lambda z: -z.real)
            assert vals[0] == pytest.approx(1.0, abs=1e-9)
            assert vals[1] == pytest.approx(-1.0, abs=1e-9)


def test_template_coefficients_matrix_layout():
    c = TemplateCoefficients(2.0, 0.5, 1.0 + 1j, -1.0 + 1j)
    m = c.matrix()
    assert m[0, 0] == pytest.approx(-0.25)
    assert m[0, 1] == pytest.approx((1.0 + 1j) / 2.0)
    assert m[1, 0] == pytest.approx((-1.0 + 1j) / 2.0)
    assert m[1, 1] == pytest.approx(0.25)
