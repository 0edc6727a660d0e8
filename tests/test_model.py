"""Hamiltonian family, drives, Pauli coefficients and parity-conjugation symmetry."""

import dataclasses
import math

import numpy as np
import pytest

from quasic.biortho import biortho_system
from quasic.coperator import c_from_system, metric_from_c, pt_commutation_residual
from quasic.linalg import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, _mat2_stack
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    Regime,
    SineDrive,
    _hamiltonian_entries,
    classify_regime,
    hamiltonian_at,
    hamiltonian_coefficients,
)

RNG = np.random.default_rng(7)

# a drive shape with the scale that lambda and kappa carry for it; the
# negative scale flips the signs of both couplings
SCALED_DRIVES = [
    (ConstantDrive(), 0.7),
    (SineDrive(frequency=0.9), 1.3),
    (SineDrive(frequency=3.0, t_ref=0.4), -0.9),
]
SCALED_DRIVE_IDS = ["constant", "sine", "sine-negative"]


def hamiltonian_array(p, t):
    """H at every entry of a time array, shape t.shape + (2, 2), from the one formula of its entries."""
    h00, h01, h11 = _hamiltonian_entries(p, p.drive.tau_array(t))
    return _mat2_stack(h00, h01, h01, h11)


def test_hamiltonian_zero_params():
    p = HamiltonianParams(omega=0.0, lam=0.0, kappa=0.0)
    assert np.allclose(hamiltonian_at(p, 0.3), np.zeros((2, 2)))


def test_hamiltonian_static_matrix():
    p = HamiltonianParams(omega=1.0, lam=2.0, kappa=1.0)
    expected = -0.5 * np.array([[3.0, 1j], [1j, -1.0]])
    assert np.allclose(hamiltonian_at(p, 1.7), expected)


def test_hamiltonian_sine_drive_vanishes_at_zero():
    p = HamiltonianParams(omega=1.0, lam=2.0, kappa=1.0, drive=SineDrive())
    assert np.allclose(hamiltonian_at(p, 0.0), -0.5 * IDENTITY)


@pytest.mark.parametrize("drive, scale", SCALED_DRIVES, ids=SCALED_DRIVE_IDS)
@pytest.mark.parametrize("kappa", [0.8, -0.8, 0.0])
def test_hamiltonian_at_matches_array_bit_for_bit(drive, scale, kappa):
    p = HamiltonianParams(0.7, scale * 1.9, scale * kappa, drive=drive)
    t = np.linspace(0.0, 4.0, 41)  # includes tau(0) = 0 for the sine drive
    stack = hamiltonian_array(p, t)
    for k, tk in enumerate(t):
        assert hamiltonian_at(p, float(tk)).tobytes() == stack[k].tobytes()


@pytest.mark.parametrize("drive, scale", SCALED_DRIVES, ids=SCALED_DRIVE_IDS)
@pytest.mark.parametrize("lam, kappa", [(1.9, 0.8), (-1.9, 0.8), (0.6, -2.1), (-0.6, -2.1), (1.9, 0.0)])
@pytest.mark.parametrize("hbar", [1.0, 1.3, 0.2])
def test_adjoint_is_parity_conjugate_exactly(drive, scale, lam, kappa, hbar):
    # H^dag = sigma_z H sigma_z entry for entry, with no rounding (a zero
    # imaginary part may differ in sign, which array_equal ignores): the paired
    # evolution gets its left states from the right propagator through it
    p = HamiltonianParams(0.7, scale * lam, scale * kappa, hbar=hbar, drive=drive)
    t = np.array([[0.0], [0.5], [1.0]]) * 0.01 + np.linspace(0.0, 4.0, 41)  # RK4 stage times
    h = hamiltonian_array(p, t)
    assert h.shape == (3, 41, 2, 2)
    assert np.array_equal(h.conj().swapaxes(-1, -2), PAULI_Z @ h @ PAULI_Z)


@pytest.mark.parametrize("drive, scale", SCALED_DRIVES, ids=SCALED_DRIVE_IDS)
@pytest.mark.parametrize("lam, kappa", [(1.9, 0.8), (-1.9, 0.8), (0.6, -2.1), (-0.6, -2.1), (1.9, 0.0), (1.1, 1.1)])
def test_hamiltonian_is_in_the_span_of_identity_and_one_fixed_k(drive, scale, lam, kappa):
    # H(t) = -1/2 (omega I + tau(t) K) with K = lam sigma_z + i kappa sigma_x
    # entry for entry, with no rounding (a zero imaginary part may differ in
    # sign, which array_equal ignores), and K^2 = (lam - kappa)(lam + kappa) I:
    # the RK4 propagator computes in span{I, K} on these two facts
    lam, kappa = scale * lam, scale * kappa
    p = HamiltonianParams(0.7, lam, kappa, drive=drive)
    t = np.array([[0.0], [0.5], [1.0]]) * 0.01 + np.linspace(0.0, 4.0, 41)  # RK4 stage times
    k = lam * PAULI_Z + 1j * kappa * PAULI_X
    tau = drive.tau_array(t)[..., None, None]
    assert np.array_equal(hamiltonian_array(p, t), -0.5 * (p.omega * IDENTITY + tau * k))
    q = (lam - kappa) * (lam + kappa)
    assert np.abs(k @ k - q * IDENTITY).max() <= 4.0 * np.finfo(float).eps * (lam * lam + kappa * kappa)


def test_hamiltonian_coefficients_match_decomposition():
    p = HamiltonianParams(omega=1.0, lam=2.0, kappa=1.0)
    c = hamiltonian_coefficients(p, 0.0)
    assert c.c0 == -0.5
    assert c.c1 == -0.5j
    assert c.c2 == 0.0
    assert c.c3 == -1.0
    composed = c.c0 * IDENTITY + c.c1 * PAULI_X + c.c2 * PAULI_Y + c.c3 * PAULI_Z
    assert np.array_equal(composed, hamiltonian_at(p, 0.0))


@pytest.mark.parametrize(
    "lam, kappa, regime",
    [
        (2.0, 1.0, Regime.PT_SYMMETRIC),
        (1.0, 2.0, Regime.SPONTANEOUSLY_BROKEN),
        (1.0, 1.0, Regime.EXCEPTIONAL_POINT),
        (-2.0, 1.0, Regime.PT_SYMMETRIC),
        (1.0, -1.0, Regime.EXCEPTIONAL_POINT),
    ],
)
def test_classify_regime(lam, kappa, regime):
    assert classify_regime(HamiltonianParams(1.0, lam, kappa)) is regime


def test_classify_regime_sign_flip_invariance():
    for _ in range(30):
        lam, kappa = RNG.uniform(-3, 3, size=2)
        a = classify_regime(HamiltonianParams(1.0, lam, kappa))
        b = classify_regime(HamiltonianParams(1.0, -lam, -kappa))
        assert a is b


def test_parity_involution():
    # the parity sigma_z squares to I, so rho = sigma_z C gives C back as sigma_z rho
    assert np.allclose(PAULI_Z @ PAULI_Z, IDENTITY)
    for lam, kappa in [(2.0, 1.0), (3.0, -0.5)]:
        h = hamiltonian_at(HamiltonianParams(1.0, lam, kappa), 0.0)
        c = c_from_system(biortho_system(h), (1, -1))
        assert np.allclose(PAULI_Z @ metric_from_c(c).matrix, c.matrix, atol=1e-12)


def test_antilinear_application():
    # sigma_z K fixes I, sigma_y, sigma_z and i*sigma_x and negates their
    # i-multiples, so the residual of a negated one is 2 ||sigma||
    for fixed in (IDENTITY, 1j * PAULI_X, PAULI_Y, PAULI_Z):
        assert pt_commutation_residual(fixed) == 0.0
        assert pt_commutation_residual(1j * fixed) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_antilinear_applied_twice_is_identity():
    # A -> sigma_z conj(A) sigma_z is an involution: A and its image have the
    # same residual, and their mean commutes with sigma_z K
    for _ in range(20):
        a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        image = PAULI_Z @ np.conj(a) @ PAULI_Z
        assert np.allclose(PAULI_Z @ np.conj(image) @ PAULI_Z, a)
        assert pt_commutation_residual(image) == pytest.approx(pt_commutation_residual(a), rel=1e-14)
        assert pt_commutation_residual(0.5 * (a + image)) < 1e-14


def test_pt_symmetry_residual_vanishes_for_family():
    for lam, kappa, drive in [
        (2.0, 1.0, ConstantDrive()),
        (1.0, 2.0, ConstantDrive()),
        (1.0, 1.0, SineDrive()),
        (0.75, 3.0, SineDrive(frequency=2.0)),
    ]:
        p = HamiltonianParams(1.0, lam, kappa, drive=drive)
        for t in (0.0, 0.7, 2.3):
            assert pt_commutation_residual(hamiltonian_at(p, t)) < 1e-12


def test_pt_symmetry_residual_detects_real_sigma_x_term():
    # the symmetric span is real combinations of I, sigma_y, sigma_z and
    # i*sigma_x; a real sigma_x admixture breaks the antilinear symmetry
    # while a real sigma_y one does not
    p = HamiltonianParams(1.0, 2.0, 1.0)
    h = hamiltonian_at(p, 0.0)
    assert pt_commutation_residual(h + 0.1 * PAULI_X) > 0.1
    assert pt_commutation_residual(h + 0.1 * PAULI_Y) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(1.0, 1.0, 1.0, hbar=0.0)
    with pytest.raises(ValueError):
        HamiltonianParams(float("nan"), 1.0, 1.0)


# each drive type at its defaults and away from them, a negative frequency included
DRIVE_SHAPES = {
    "constant": ConstantDrive(),
    "constant-offset": ConstantDrive(t_ref=0.3),
    "sine": SineDrive(),
    "sine-fast": SineDrive(frequency=2.0),
    "sine-negative": SineDrive(frequency=-3.0, t_ref=0.4),
}


class TestDrives:
    def test_constant_integral(self):
        d = ConstantDrive(t_ref=1.0)
        assert d.tau(12.3) == 1.0
        assert d.integral(3.0) == 2.0
        assert d.integral(1.0) == 0.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ConstantDrive(0.8),
            lambda: SineDrive(1.0),
            lambda: SineDrive(1.0, 0.3),
            lambda: ConstantDrive(value=2.0),
            lambda: SineDrive(amplitude=2.0),
        ],
        ids=["constant-positional", "sine-positional", "sine-two-positional", "constant-value", "sine-amplitude"],
    )
    def test_drives_take_only_their_shape_by_keyword(self, make):
        # a drive has no scale (lambda and kappa carry it: a drive scaled by a is
        # the pair (a lambda, a kappa)), and a positional value, such as such a
        # scale, is refused instead of landing in the anchor or the frequency
        with pytest.raises(TypeError):
            make()

    def test_sine_default_anchor_zeroes(self):
        d = SineDrive()
        for n in range(4):
            assert d.integral(math.pi / 2 + n * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_sine_integral_against_quadrature(self):
        d = SineDrive(frequency=0.8, t_ref=0.3)
        for t in (0.5, 1.9, 6.0):
            grid = np.linspace(d.t_ref, t, 20001)
            quad = np.trapezoid([d.tau(s) for s in grid], grid)
            assert d.integral(t) == pytest.approx(quad, abs=1e-7)

    @pytest.mark.parametrize("drive", DRIVE_SHAPES)
    def test_integral_additivity(self, drive):
        # moving the anchor to m splits the integral at m
        d = DRIVE_SHAPES[drive]
        for m, t in ((1.25, 2.5), (-0.8, 0.6), (3.1, -1.7)):
            moved = dataclasses.replace(d, t_ref=m)
            assert moved.integral(m) == 0.0
            assert d.integral(t) == pytest.approx(d.integral(m) + moved.integral(t), abs=1e-12)

    def test_sine_anchor_term_is_computed_once_with_its_bits(self):
        # integral reads cos(frequency * t_ref) from the drive: the same bits as
        # computing it per call, recomputed by dataclasses.replace, and no part
        # of equality, hash or repr
        d = SineDrive(frequency=0.8, t_ref=0.3)
        for drive in (d, dataclasses.replace(d, t_ref=-2.1), dataclasses.replace(d, frequency=3.7)):
            w = drive.frequency
            for t in (-4.0, 0.0, 0.3, 1.9, 6.0):
                assert drive.integral(t) == (math.cos(w * drive.t_ref) - math.cos(w * t)) / w
            assert drive.integral(drive.t_ref) == 0.0
        assert dataclasses.replace(d, t_ref=-2.1) == SineDrive(frequency=0.8, t_ref=-2.1)
        assert hash(d) == hash(SineDrive(frequency=0.8, t_ref=0.3)) and repr(d) == "SineDrive(frequency=0.8, t_ref=0.3)"

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0])
    def test_sine_zero_frequency_refused(self, zero):
        # the integral divides by the frequency: refused at construction, never a
        # ZeroDivisionError from the float integral or NaN from the array one
        with pytest.raises(ValueError, match="frequency must be non-zero"):
            SineDrive(frequency=zero)
        with pytest.raises(ValueError, match="frequency must be non-zero"):
            dataclasses.replace(SineDrive(frequency=0.8, t_ref=0.3), frequency=zero)

    @pytest.mark.parametrize("drive", [SineDrive(t_ref=math.inf), SineDrive(frequency=1e300, t_ref=1e300)])
    def test_sine_infinite_anchor_phase_gives_nan(self, drive):
        # math.cos of the infinite anchor phase raises; the integral is NaN, as np.cos gives
        assert math.isnan(drive.integral(1.0))
        assert np.isnan(drive.integral_array(np.array([0.0, 1.0]))).all()

    @pytest.mark.parametrize("drive", DRIVE_SHAPES)
    def test_scalar_forms_match_array_forms_at_non_finite_times(self, drive):
        # math.sin and math.cos raise on an infinite argument where np.sin and
        # np.cos give NaN; the scalar forms give the array forms' values
        d = DRIVE_SHAPES[drive]
        times = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            taus, integrals = d.tau_array(times), d.integral_array(times)
        for t, tau, integral in zip(times, taus, integrals):
            assert np.array_equal(d.tau(float(t)), tau, equal_nan=True)
            assert np.array_equal(d.integral(float(t)), integral, equal_nan=True)
