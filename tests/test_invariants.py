"""Closed-form invariants and the time-ordered coefficient propagator."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from quasic.errors import NotPositiveDefiniteError, RegimeMismatchError
from quasic.invariants import (
    InvariantForm,
    closed_form_invariant,
    coefficient_matrix,
    lr_residual,
    time_ordered_propagate,
)
from quasic import invariants, model
from quasic.biortho import biortho_system
from quasic.coperator import c_from_system, closed_form_metric, metric_from_c
from quasic.invariants import _real_entries
from quasic.linalg import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, adjoint, frobenius_norm, psd_sqrt
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    PauliCoefficients,
    SineDrive,
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


def anchor(form, p):
    """Where propagation starts: the drive anchor t_ref for FULL_TD, t = 0 otherwise."""
    return p.drive.t_ref if form is InvariantForm.FULL_TD else 0.0


def anchored(form, p):
    """(closed-form invariant at the anchor, anchor time)."""
    t0 = anchor(form, p)
    return closed_form_invariant(form, p, t0), t0


def pauli_decompose(a):
    """The coefficients of a = c0 I + c1 sigma_x + c2 sigma_y + c3 sigma_z."""
    return PauliCoefficients(
        c0=0.5 * (a[0, 0] + a[1, 1]),
        c1=0.5 * (a[0, 1] + a[1, 0]),
        c2=0.5j * (a[0, 1] - a[1, 0]),
        c3=0.5 * (a[0, 0] - a[1, 1]),
    )


def pauli_compose(c):
    return c.c0 * IDENTITY + c.c1 * PAULI_X + c.c2 * PAULI_Y + c.c3 * PAULI_Z


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

    Applies exp((2/hbar) dt M(t_mid)) to the Pauli coefficient vector of the
    2x2 invariant init step by step, the scheme time_ordered_propagate must
    reproduce, and returns the matrix with the constant scalar part of init.
    Only the factors are built as one array; their product is taken in a
    plain sequential loop.  The arithmetic is in long double: in double
    precision the sequential product alone drifts by ~1e-12 over 8193 steps
    of a constant generator.
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
    c = pauli_decompose(init)
    v = np.array([c.c1, c.c2, c.c3], dtype=np.clongdouble)
    for factor in expm3_series_oracle(gens.astype(np.clongdouble), terms=terms):
        v = factor @ v
    return pauli_compose(PauliCoefficients(c.c0, *v.astype(complex)))


def published_anchor(form, p):
    """The published invariant at the anchor, composed from its Pauli coefficients.

    (c1, c2, c3) are the coefficients of sigma_x, sigma_y, sigma_z, written
    for lam, kappa > 0; c1 flips for lam < 0 and (c1, c2) for kappa < 0.
    """
    if form is InvariantForm.FULL_TD:
        return PAULI_Z.copy()
    lam, kap = abs(p.lam), abs(p.kappa)
    if form is InvariantForm.PT_SYMMETRIC:
        xi = math.sqrt(lam**2 - kap**2)
        c1, c2, c3 = 1j * SQRT2 * kap / xi, 1j, SQRT2 * lam / xi
    elif form is InvariantForm.SPONTANEOUSLY_BROKEN:
        xi = math.sqrt(kap**2 - lam**2)
        c1, c2, c3 = 1j * (SQRT2 * lam - kap) / xi, 0.0, (SQRT2 * kap - lam) / xi
    else:
        c1, c2, c3 = 0.0, 1j, SQRT2
    if p.lam < 0:
        c1 = -c1
    if p.kappa < 0:
        c1, c2 = -c1, -c2
    return pauli_compose(PauliCoefficients(0.0, c1, c2, c3))


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
            assert np.linalg.norm(m + m.T) < 1e-15


class TestPropagation:
    def test_zero_hamiltonian_is_identity_flow(self):
        p = HamiltonianParams(0.0, 0.0, 0.0)
        init = pauli_compose(PauliCoefficients(0.5, 1.0, 2.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # r = 0 in every factor
            out = time_ordered_propagate(p, init, 0.0, 4.0, 57)
        assert np.allclose(out, init)

    def test_constant_generator_matches_single_exponential(self):
        p = PT_PARAMS
        init = closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, 0.0)
        t1 = 1.7
        out = time_ordered_propagate(p, init, 0.0, t1, 400)
        m = coefficient_matrix(hamiltonian_coefficients(p, 0.0))
        c = pauli_decompose(init)
        v = expm3_series_oracle(2.0 * t1 * m) @ np.array([c.c1, c.c2, c.c3])
        expected = pauli_compose(PauliCoefficients(c.c0, *v))
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_matches_closed_form(self, form, p):
        init, t0 = anchored(form, p)
        t1 = t0 + 2.0
        out = time_ordered_propagate(p, init, t0, t1, 4000)
        target = closed_form_invariant(form, p, t1)
        assert frobenius_norm(out - target) < 1e-7

    def test_second_order_convergence(self):
        p = FULL_SINE_PARAMS
        init, t0 = anchored(InvariantForm.FULL_TD, p)
        t1 = 5.0
        errs = []
        for steps in (1000, 2000, 4000):
            out = time_ordered_propagate(p, init, t0, t1, steps)
            errs.append(frobenius_norm(out - closed_form_invariant(InvariantForm.FULL_TD, p, t1)))
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
        state, t0 = anchored(form, p)
        for t1 in np.linspace(1.0, 10.0, 10):
            state = time_ordered_propagate(p, state, t0, t1, 500)
            t0 = t1
            assert abs(np.linalg.det(state) + 1.0) < 1e-9

    def test_backward_propagation_inverts(self):
        p = FULL_SINE_PARAMS
        init, t0 = anchored(InvariantForm.FULL_TD, p)
        fwd = time_ordered_propagate(p, init, t0, 4.0, 2000)
        back = time_ordered_propagate(p, fwd, 4.0, t0, 2000)
        assert np.abs(back - init).max() < 1e-8

    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    @pytest.mark.parametrize(
        "lam,kappa", [(2.0, 1.0), (0.5, 1.0), (1.0, 1.0)], ids=["pt", "broken", "ep"]
    )
    @pytest.mark.parametrize(
        "drive, scale",
        [(SineDrive(), 1.0), (ConstantDrive(), 1.0), (SineDrive(frequency=3.0, t_ref=0.4), -0.9)],
        ids=["sine", "constant", "sine-negative"],
    )
    def test_same_scheme_as_sequential_product(self, drive, scale, lam, kappa, forward):
        # the scale of the drive shape is carried by lambda and kappa
        p = HamiltonianParams(1.0, scale * lam, scale * kappa, hbar=0.8, drive=drive)
        # a scalar part of 0.5 rides along: conjugation keeps it
        init = pauli_compose(PauliCoefficients(0.5, 0.3 + 0.1j, 1j, 1.2))
        t0, t1 = (0.3, 2.3) if forward else (2.3, 0.3)
        # odd tails and both sides of the 4096-step block edges
        for steps in (1, 2, 3, 4095, 4096, 4097, 8193):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # r = 0 at the EP
                out = time_ordered_propagate(p, init, t0, t1, steps)
            ref = sequential_reference(p, init, t0, t1, steps)
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref), steps

    @pytest.mark.parametrize(
        "lam,kappa", [(2.0, 1.0), (0.5, 1.0), (1.0, 1.0)], ids=["pt", "broken", "ep"]
    )
    def test_constant_drive_result_does_not_depend_on_steps(self, lam, kappa):
        # for a constant drive the midpoint scheme is exact at any step count
        p = HamiltonianParams(1.0, 0.8 * lam, 0.8 * kappa, hbar=0.8, drive=ConstantDrive())
        init = pauli_compose(PauliCoefficients(0.5, 0.3 + 0.1j, 1j, 1.2))
        ref = time_ordered_propagate(p, init, 0.3, 2.3, 1)
        for steps in (7, 4097):
            out = time_ordered_propagate(p, init, 0.3, 2.3, steps)
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref), steps

    def test_peak_memory_does_not_grow_with_steps(self):
        # 10^6 steps: one array over all midpoints would take 8 MB per float array
        init = closed_form_invariant(InvariantForm.FULL_TD, FULL_SINE_PARAMS, math.pi / 2)
        tracemalloc.start()
        try:
            time_ordered_propagate(FULL_SINE_PARAMS, init, math.pi / 2, 10.0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "span",
        [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, np.inf), (-np.inf, 1.0), (0.0, -np.inf)],
        ids=["nan-t0", "nan-t1", "inf-t0", "inf-t1", "-inf-t0", "-inf-t1"],
    )
    @pytest.mark.parametrize("drive", [ConstantDrive(), SineDrive()], ids=["constant", "sine"])
    def test_non_finite_times_rejected(self, drive, span):
        p = HamiltonianParams(1.0, 2.0, 1.0, drive=drive)
        with pytest.raises(ValueError, match="t0 and t1 must be finite"):
            time_ordered_propagate(p, PAULI_Z.copy(), *span, 10)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            time_ordered_propagate(FULL_SINE_PARAMS, PAULI_Z.copy(), 0.0, 1.0, steps)


class TestPresets:
    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_preset_matches_closed_form_at_anchor(self, form, p):
        for s_lam, s_kappa in itertools.product((1.0, -1.0), repeat=2):
            q = dataclasses.replace(p, lam=s_lam * p.lam, kappa=s_kappa * p.kappa)
            got = closed_form_invariant(form, q, anchor(form, q))
            assert frobenius_norm(got - published_anchor(form, q)) < 1e-12, (s_lam, s_kappa)

    def test_full_td_preset_is_sigma_z(self):
        init, t0 = anchored(InvariantForm.FULL_TD, FULL_SINE_PARAMS)
        assert np.allclose(init, PAULI_Z)
        assert t0 == pytest.approx(math.pi / 2)


def assert_unit_signature(form, p, times):
    """det I = -1 and d^2 - x^2 - y^2 = 1 for the real entries, each within 1e-9."""
    for t in times:
        d, x, y = _real_entries(form, p)(t)
        assert abs(d * d - x * x - y * y - 1.0) < 1e-9, (form, p, t)
        assert abs(np.linalg.det(closed_form_invariant(form, p, t)) + 1.0) < 1e-9, (form, p, t)


# PT and broken pairs with entries from 1e-14 to 10 and every sign.
# classify_regime's band is 1e-12 wide at small scales, so the larger entry
# starts at 3e-12; below xi = 1e-10 the forms once raised.  Time enters as
# t / hbar, and hbar = 5 * scale keeps xi t / hbar below 2 for t <= 10.
SCALED_PAIRS = [
    (form, HamiltonianParams(1.0, scale * lam, scale * kappa, hbar=5.0 * scale))
    for scale in (3e-12, 5e-11, 1e-10, 1e-6, 1.0, 10.0)
    for form, lam, kappa in (
        (InvariantForm.PT_SYMMETRIC, 1.0, 0.0),
        (InvariantForm.PT_SYMMETRIC, -1.0, 0.5),
        (InvariantForm.PT_SYMMETRIC, 1.0, -0.005),
        (InvariantForm.SPONTANEOUSLY_BROKEN, 0.0, -1.0),
        (InvariantForm.SPONTANEOUSLY_BROKEN, 0.5, 1.0),
        (InvariantForm.SPONTANEOUSLY_BROKEN, -0.005, -1.0),
    )
]


class TestClosedForms:
    @pytest.mark.parametrize(
        "form,p",
        [
            (InvariantForm.PT_SYMMETRIC, PT_PARAMS),
            (InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 1.0, 1.2)),
            (InvariantForm.EXCEPTIONAL_POINT, EP_PARAMS),
            (InvariantForm.FULL_TD, FULL_SINE_PARAMS),
            (InvariantForm.FULL_TD, HamiltonianParams(1.0, 1.0, 1.2, drive=ConstantDrive())),
            # hbar = 10/3 spans the same xi t / hbar as t <= 3 at hbar = 1
            (InvariantForm.SPONTANEOUSLY_BROKEN, dataclasses.replace(BROKEN_PARAMS, hbar=10.0 / 3.0)),
            (InvariantForm.FULL_TD, dataclasses.replace(FULL_CONST_PARAMS, hbar=10.0 / 3.0)),
            *SCALED_PAIRS,
        ],
    )
    def test_det_is_minus_one(self, form, p):
        # entry scale stays below ~1e3 for these parameters, so the 1e-9
        # bound is meaningful in double precision over the whole window
        assert_unit_signature(form, p, np.linspace(0.0, 10.0, 41))

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_template_identity(self, form, p):
        # [[a, b], [c, -a]] with a^2 + b c = 1 has eigenvalues +-1
        for t in np.linspace(0.0, 3.0, 7):
            m = closed_form_invariant(form, p, t)
            assert m[0, 0] + m[1, 1] == 0.0, (form, p, t)
            assert abs(m[0, 0] ** 2 + m[0, 1] * m[1, 0] - 1.0) < 1e-9, (form, p, t)

    def test_det_is_minus_one_over_parameter_grid(self):
        for lam in (0.5, 1.0, 2.0):
            for kappa in (0.5, 1.0, 2.0):
                if abs(lam) == abs(kappa):
                    continue
                p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
                assert_unit_signature(InvariantForm.FULL_TD, p, (0.0, 0.7, 1.5, 3.0))

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

    @pytest.mark.parametrize("path", ["float", "array"])
    @pytest.mark.parametrize("drive", [SineDrive(), SineDrive(frequency=2.0, t_ref=0.3)], ids=["sine", "sine-fast"])
    @pytest.mark.parametrize("form,p", FORM_PARAMS[:3], ids=["pt", "broken", "ep"])
    def test_fixed_regime_forms_refuse_a_non_constant_drive(self, form, p, drive, path):
        # they solve the invariant equation for tau = 1 only: under another
        # drive they are not invariants (evaluated anyway, the PT form's
        # lr_residual over t in [0, 5] reads 5.6 under SineDrive() against
        # 2.6e-10 under the constant drive), so they raise on every call and
        # bind nothing
        q = dataclasses.replace(p, drive=drive)
        t = 0.7 if path == "float" else np.linspace(0.0, 3.0, 5)
        for _ in range(2):
            with pytest.raises(RegimeMismatchError, match="requires the constant drive"):
                closed_form_invariant(form, q, t)
            with pytest.raises(RegimeMismatchError, match="requires the constant drive"):
                closed_form_metric(form, q, t)
        assert q._bound == (None, None)

    @pytest.mark.parametrize("form,p", FORM_PARAMS[:3], ids=["pt", "broken", "ep"])
    def test_fixed_regime_forms_take_the_constant_drive_at_any_anchor(self, form, p):
        # the anchor moves only the drive integral, which the fixed-regime forms do not read
        q = dataclasses.replace(p, drive=ConstantDrive(t_ref=0.7))
        for t in (0.7, np.linspace(0.0, 3.0, 5)):
            assert closed_form_invariant(form, q, t).tobytes() == closed_form_invariant(form, p, t).tobytes()

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatchError):
            closed_form_invariant(InvariantForm.PT_SYMMETRIC, BROKEN_PARAMS, 0.0)
        with pytest.raises(RegimeMismatchError):
            closed_form_invariant(InvariantForm.SPONTANEOUSLY_BROKEN, PT_PARAMS, 0.0)
        with pytest.raises(RegimeMismatchError):
            closed_form_invariant(InvariantForm.EXCEPTIONAL_POINT, PT_PARAMS, 0.0)


ARRAY_TIMES = np.concatenate((np.linspace(-3.0, 10.0, 1301), [0.0, 1e-300, 30.0]))
# each drive shape with the scale that lambda and kappa carry for it
ARRAY_DRIVES = {
    "constant": (ConstantDrive(), 1.0),
    "constant-offset": (ConstantDrive(t_ref=0.3), 0.7),
    "sine": (SineDrive(), 1.0),
    "sine-fast": (SineDrive(frequency=2.0), 1.3),
    "sine-negative": (SineDrive(frequency=3.0, t_ref=0.4), -0.9),
}
# PT, broken, coalescent and next-to-coalescent pairs with every sign
ARRAY_PAIRS = [(2.0, 0.7), (0.7, 1.9), (1.0, 1.0), (-1.3, 0.5), (0.5, -1.3), (-0.7, -0.7), (0.7 * (1 + 1e-12), 0.7)]
FIXED_ARRAY_CASES = [
    (InvariantForm.PT_SYMMETRIC, (2.0, 0.7)),
    (InvariantForm.PT_SYMMETRIC, (-2.0, -0.7)),
    (InvariantForm.PT_SYMMETRIC, (1.0 + 1e-9, 1.0)),
    (InvariantForm.PT_SYMMETRIC, (1e-3, 0.0)),
    (InvariantForm.SPONTANEOUSLY_BROKEN, (0.7, 1.9)),
    (InvariantForm.SPONTANEOUSLY_BROKEN, (-0.7, 1.9)),
    (InvariantForm.SPONTANEOUSLY_BROKEN, (1.0, -(1.0 + 1e-9))),
    (InvariantForm.SPONTANEOUSLY_BROKEN, (0.0, 0.3)),
    (InvariantForm.EXCEPTIONAL_POINT, (1.0, 1.0)),
    (InvariantForm.EXCEPTIONAL_POINT, (-2.5, 2.5)),
]


def per_sample(fn, times):
    return np.array([fn(t) for t in times])


class TestTimeArrays:
    """A time array gives, element by element, the closed forms of its entries.

    A float evaluation of closed_form_metric builds its matrix from its
    rows (test_coperator.py::TestMetricRows pins those bits to the direct
    construction); the stacks below are held to the float matrices at the
    same bounds: equal bits for FULL_TD, 8 ulp of |d| for the fixed-regime
    forms.
    """

    @pytest.mark.parametrize("drive", ARRAY_DRIVES)
    def test_integral_array_same_bits(self, drive):
        d, _ = ARRAY_DRIVES[drive]
        times = ARRAY_TIMES
        got = d.integral_array(times)
        assert got.shape == times.shape
        assert got.tobytes() == per_sample(d.integral, times).tobytes()

    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    @pytest.mark.parametrize("drive", ARRAY_DRIVES)
    def test_full_td_same_bits(self, drive, hbar):
        times = ARRAY_TIMES
        shape, scale = ARRAY_DRIVES[drive]
        for lam, kappa in ARRAY_PAIRS:
            p = HamiltonianParams(1.0, scale * lam, scale * kappa, hbar=hbar, drive=shape)
            invariant = closed_form_invariant(InvariantForm.FULL_TD, p, times)
            assert invariant.shape == (times.size, 2, 2)
            expected = per_sample(lambda t: closed_form_invariant(InvariantForm.FULL_TD, p, t), times)
            assert invariant.tobytes() == expected.tobytes()
            metric = closed_form_metric(InvariantForm.FULL_TD, p, times).matrix
            expected = per_sample(lambda t: closed_form_metric(InvariantForm.FULL_TD, p, t).matrix, times)
            assert metric.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hbar", [1.0, 1.3, 0.37])
    @pytest.mark.parametrize("form,pair", FIXED_ARRAY_CASES)
    def test_fixed_regime_forms_within_a_few_ulp(self, form, pair, hbar):
        # numpy's cosh and sinh differ from math's by up to 1 ulp, and the
        # sums that form the entries carry that ulp of their largest term;
        # |d| >= 1 bounds every entry (d^2 = 1 + x^2 + y^2) and, outside
        # cancellation, the terms: measured up to 6 ulp of |d| at a relative
        # 1e-9 from coalescence, 3 elsewhere
        p = HamiltonianParams(1.0, *pair, hbar=hbar)
        invariant = closed_form_invariant(form, p, ARRAY_TIMES)
        expected = per_sample(lambda t: closed_form_invariant(form, p, t), ARRAY_TIMES)
        scale = np.spacing(np.abs(expected[:, 0, 0].real))[:, None, None]
        assert np.all(np.abs(invariant - expected) <= 8 * scale)
        metric = closed_form_metric(form, p, ARRAY_TIMES).matrix
        expected = per_sample(lambda t: closed_form_metric(form, p, t).matrix, ARRAY_TIMES)
        assert np.all(np.abs(metric - expected) <= 8 * scale)

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_regime_checked_once_per_call(self, form, p, monkeypatch):
        # the regime is classified once, when the parameter set is built, and
        # never while the closed forms are evaluated
        calls = []
        classify = model.classify_regime
        monkeypatch.setattr(model, "classify_regime", lambda q: calls.append(q) or classify(q))
        for t in (np.linspace(0.0, 3.0, 500), 0.7):
            closed_form_invariant(form, p, t)
            closed_form_metric(form, p, t)
        assert calls == []
        q = dataclasses.replace(p)
        assert calls == [q] and q.regime is p.regime
        closed_form_invariant(form, q, np.linspace(0.0, 3.0, 500))
        closed_form_metric(form, q, 0.7)
        assert len(calls) == 1

    def test_regime_mismatch_on_arrays(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(RegimeMismatchError):
            closed_form_invariant(InvariantForm.PT_SYMMETRIC, BROKEN_PARAMS, times)
        with pytest.raises(RegimeMismatchError):
            closed_form_metric(InvariantForm.EXCEPTIONAL_POINT, PT_PARAMS, times)


class TestLrResidual:
    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_closed_forms_satisfy_invariant_equation(self, form, p):
        def inv_at(t):
            return closed_form_invariant(form, p, t)

        for t in np.linspace(0.0, 5.0, 11):
            assert lr_residual(lambda s: inv_at(s).tolist(), p, t) < 1e-8

    def test_commuting_case_is_exact(self):
        p = HamiltonianParams(1.0, 0.0, 0.0)
        const = np.array([[1.0, 0.5], [0.5j, -1.0]])
        assert lr_residual(lambda t: const.tolist(), p, 0.9) < 1e-15

    def test_detects_corrupted_invariant(self):
        p = PT_PARAMS

        def corrupted(t):
            m = closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, t).copy()
            m[0, 1] += 0.1
            return m.tolist()

        assert lr_residual(corrupted, p, 1.0) > 0.01

    def test_step_halving_reduces_residual_quadratically(self, monkeypatch):
        p = PT_PARAMS

        def inv_at(t):
            return closed_form_invariant(InvariantForm.PT_SYMMETRIC, p, t).tolist()

        monkeypatch.setattr(invariants, "FD_STEP", 2e-3)
        coarse = lr_residual(inv_at, p, 1.3)
        monkeypatch.setattr(invariants, "FD_STEP", 1e-3)
        fine = lr_residual(inv_at, p, 1.3)
        assert 3.0 < coarse / fine < 5.0


def signature_normalized(m):
    """C-operator of m: each eigenvalue replaced by the sign of its real part."""
    sys_m = biortho_system(m)
    signature = tuple(1 if pair.eigenvalue.real > 0 else -1 for pair in sys_m.pairs)
    return c_from_system(sys_m, signature).matrix


class TestSignatureNormalize:
    """The signature-weighted projector sum maps a spectrum {+a, -a} to {+1, -1}."""

    def test_scaled_sigma_z(self):
        assert np.allclose(signature_normalized(3.0 * PAULI_Z), PAULI_Z)

    @pytest.mark.parametrize("form,p", FORM_PARAMS)
    def test_closed_forms_already_normalized(self, form, p):
        m = closed_form_invariant(form, p, 1.1)
        assert frobenius_norm(signature_normalized(m) - m) < 1e-12

    def test_rejects_identity(self):
        # the identity has no opposite pair: its projector sum is I itself,
        # whose metric sigma_z is indefinite and has no Dyson map
        c = c_from_system(biortho_system(np.eye(2, dtype=complex)), (1, 1))
        assert np.allclose(c.matrix, np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(metric_from_c(c).matrix)

    def test_random_opposite_pair_family(self):
        for _ in range(20):
            a = RNG.standard_normal() + 1j * RNG.standard_normal()
            g = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            m = g @ np.diag([a, -a]) @ np.linalg.inv(g)
            normd = signature_normalized(m)
            vals = sorted(np.linalg.eigvals(normd), key=lambda z: -z.real)
            assert vals[0] == pytest.approx(1.0, abs=1e-9)
            assert vals[1] == pytest.approx(-1.0, abs=1e-9)
