"""C-operator construction, constraint residuals, metrics and Dyson maps."""

import math

import numpy as np
import pytest

from quasic.biortho import biortho_system
from quasic.coperator import (
    COperator,
    MetricForm,
    c_from_system,
    closed_form_metric,
    dyson_from_eigenvectors,
    involution_residual,
    metric_form_for_regime,
    metric_from_c,
    pt_commutation_residual,
    quasi_hermiticity_residual,
)
from quasic.errors import (
    NotHermitianError,
    NotPositiveDefiniteError,
    RegimeMismatchError,
)
from quasic.invariants import FD_STEP, InvariantForm, _real_entries, closed_form_invariant, lr_residual
from quasic.linalg import (
    DEFAULT_TOL,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    adjoint,
    commutator,
    frobenius_norm,
    hermitian_eigenvalues_2x2,
    psd_sqrt,
)
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    Regime,
    SineDrive,
    classify_regime,
    hamiltonian_at,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)
SQRT3 = math.sqrt(3.0)

STATIC_PT = HamiltonianParams(1.0, 2.0, 1.0)
FULL_SINE = HamiltonianParams(1.0, 2.0, 1.0, drive=SineDrive())


def metric_cases(*cases):
    # MetricForm is InvariantForm; the ids name the metric column MetricForm
    return [
        pytest.param(m, i, p, id=f"MetricForm.{m.name}-InvariantForm.{i.name}-p{n}")
        for n, (m, i, p) in enumerate(cases)
    ]


METRIC_CASES = metric_cases(
    (MetricForm.PT_SYMMETRIC, InvariantForm.PT_SYMMETRIC, HamiltonianParams(1.0, 2.0, 1.0)),
    (MetricForm.SPONTANEOUSLY_BROKEN, InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 0.5, 1.0)),
    (MetricForm.EXCEPTIONAL_POINT, InvariantForm.EXCEPTIONAL_POINT, HamiltonianParams(1.0, 1.0, 1.0)),
    (MetricForm.FULL_TD, InvariantForm.FULL_TD, FULL_SINE),
    (MetricForm.FULL_TD, InvariantForm.FULL_TD, HamiltonianParams(1.0, 0.5, 1.0, drive=ConstantDrive())),
)


class TestCFromSystem:
    def test_published_static_form(self):
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        expected = np.array([[2.0, 1j], [1j, -2.0]]) / SQRT3
        assert np.abs(c.matrix - expected).max() < 1e-10

    def test_trivial_signatures(self):
        sys_h = biortho_system(hamiltonian_at(STATIC_PT, 0.0))
        assert np.allclose(c_from_system(sys_h, (1, 1)).matrix, IDENTITY, atol=1e-12)
        assert np.allclose(c_from_system(sys_h, (-1, -1)).matrix, -IDENTITY, atol=1e-12)

    def test_signature_flip_negates(self):
        sys_h = biortho_system(hamiltonian_at(STATIC_PT, 0.0))
        plus = c_from_system(sys_h, (1, -1)).matrix
        minus = c_from_system(sys_h, (-1, 1)).matrix
        assert np.allclose(plus, -minus)

    @pytest.mark.parametrize("_, inv_form, p", METRIC_CASES)
    def test_equals_invariant(self, _, inv_form, p):
        for t in (0.0, 0.9, 2.7):
            inv = closed_form_invariant(inv_form, p, t)
            c = c_from_system(biortho_system(inv), (1, -1))
            assert frobenius_norm(c.matrix - inv) < 1e-10

    def test_rejects_bad_signature(self):
        sys_h = biortho_system(hamiltonian_at(STATIC_PT, 0.0))
        with pytest.raises(ValueError):
            c_from_system(sys_h, (1, 0))

    def test_pseudo_hermiticity(self):
        # sigma_z C^dag sigma_z = C, i.e. rho = sigma_z C is Hermitian
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        assert frobenius_norm(PAULI_Z @ adjoint(c.matrix) @ PAULI_Z - c.matrix) < 1e-10


def static_residuals(c, h):
    """The three constraints of the time-independent theory: C^2 = I, the antilinear commutation and [H, C] = 0."""
    return {
        "c_squared_identity": involution_residual(c),
        "pt_commutation": pt_commutation_residual(c.matrix),
        "h_commutation": frobenius_norm(commutator(h, c.matrix)),
    }


class TestStaticSuite:
    def test_published_case_passes(self):
        h = hamiltonian_at(STATIC_PT, 0.0)
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        for value in static_residuals(c, h).values():
            assert value <= DEFAULT_TOL
            assert value <= 1e-10

    def test_sigma_y_fails_commutation(self):
        h = hamiltonian_at(STATIC_PT, 0.0)
        bogus = COperator(matrix=np.array([[0, -1j], [1j, 0]], dtype=complex))
        assert not static_residuals(bogus, h)["h_commutation"] <= DEFAULT_TOL

    def test_identity_passes_trivially(self):
        h = hamiltonian_at(STATIC_PT, 0.0)
        assert all(value <= DEFAULT_TOL for value in static_residuals(COperator(matrix=IDENTITY.copy()), h).values())


class TestTdSuite:
    """The time-dependent constraints: C^2 = I, the antilinear commutation and conservation."""

    def test_full_td_invariant_involution_and_conservation(self):
        p = FULL_SINE

        def c_at(t):
            return closed_form_invariant(InvariantForm.FULL_TD, p, t)

        for t in (0.0, 1.1, 3.6, 5.0):
            assert involution_residual(COperator(matrix=c_at(t))) <= 1e-10
            assert lr_residual(lambda s: c_at(s).tolist(), p, t) <= 1e-8

    def test_antilinear_commutation_is_a_time_reflection(self):
        # sigma_z conj(.) sigma_z negates the real off-diagonal part of the
        # template, so the same-time commutation residual equals
        # 2*sqrt(2)*|x| and vanishes only where the drive integral anchors
        p = FULL_SINE

        def c_at(t):
            return closed_form_invariant(InvariantForm.FULL_TD, p, t)

        anchor = math.pi / 2
        assert involution_residual(COperator(matrix=c_at(anchor))) <= 1e-10
        assert pt_commutation_residual(c_at(anchor)) <= 1e-10
        assert lr_residual(lambda s: c_at(s).tolist(), p, anchor) <= 1e-8
        away = pt_commutation_residual(c_at(1.1))
        x = float(np.real(c_at(1.1)[0, 1]))
        assert away == pytest.approx(2.0 * SQRT2 * abs(x), rel=1e-10)
        assert away > 1e-10

    def test_family_static_c_stays_conserved_under_drive(self):
        # the drive rescales the same traceless direction, so the static
        # C-operator commutes with H(t) for every tau
        p = FULL_SINE
        static_c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1)).matrix
        assert lr_residual(lambda t: static_c.tolist(), p, 1.0) <= 1e-8

    def test_parity_operator_not_conserved_under_drive(self):
        p = FULL_SINE
        assert involution_residual(COperator(matrix=PAULI_Z)) <= 1e-10
        assert pt_commutation_residual(PAULI_Z) <= 1e-10
        conservation = lr_residual(lambda t: PAULI_Z.tolist(), p, 1.0)
        assert conservation > 1e-8
        # residual equals ||tau(t) * sigma_y||
        expected = abs(math.sin(1.0)) * SQRT2
        assert conservation == pytest.approx(expected, rel=1e-6)

    def test_plus_minus_identity_trivial(self):
        p = FULL_SINE
        for sign in (1.0, -1.0):
            c = sign * IDENTITY
            assert involution_residual(COperator(matrix=c)) <= 1e-10
            assert pt_commutation_residual(c) <= 1e-10
            assert lr_residual(lambda t: c.tolist(), p, 0.7) <= 1e-8


class TestMetric:
    def test_static_metric_matrix_and_eigenvalues(self):
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        rho = metric_from_c(c)
        expected = np.array([[2.0, 1j], [-1j, 2.0]]) / SQRT3
        assert np.abs(rho.matrix - expected).max() < 1e-10
        hi, lo = hermitian_eigenvalues_2x2(rho.matrix, tol=1e-8)
        assert hi == pytest.approx(3.0 / SQRT3, abs=1e-12)
        assert lo == pytest.approx(1.0 / SQRT3, abs=1e-12)
        assert np.linalg.det(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_full_td_metric_is_identity_at_anchor(self):
        inv = closed_form_invariant(InvariantForm.FULL_TD, FULL_SINE, math.pi / 2)
        c = c_from_system(biortho_system(inv + 0j), (1, -1))
        # at the anchor the invariant is sigma_z itself
        rho = metric_from_c(COperator(matrix=inv))
        assert np.allclose(rho.matrix, IDENTITY, atol=1e-12)
        assert np.allclose(c.matrix, PAULI_Z, atol=1e-12)

    def test_all_plus_signature_gives_indefinite_parity(self):
        sys_h = biortho_system(hamiltonian_at(STATIC_PT, 0.0))
        rho = metric_from_c(c_from_system(sys_h, (1, 1)))
        assert np.allclose(rho.matrix, PAULI_Z, atol=1e-12)
        hi, lo = hermitian_eigenvalues_2x2(rho.matrix, tol=1e-8)
        assert lo < 0 < hi

    def test_non_hermitian_product_rejected(self):
        bogus = COperator(matrix=PAULI_X.copy())
        with pytest.raises(NotHermitianError):
            metric_from_c(bogus)


class TestQuasiHermiticity:
    def test_full_td_metric_satisfies_relation(self):
        p = FULL_SINE

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).rows

        for t in (0.0, 0.8, 2.9, 5.0):
            assert quasi_hermiticity_residual(rho_at, p, t) < 1e-8

    def test_static_relation(self):
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        rho = metric_from_c(c).matrix
        h = hamiltonian_at(STATIC_PT, 0.0)
        assert frobenius_norm(adjoint(h) @ rho - rho @ h) < 1e-10
        # constant provider: the time-derivative term drops out
        assert quasi_hermiticity_residual(lambda t: rho.tolist(), STATIC_PT, 0.5) < 1e-10

    def test_identity_metric_with_non_hermitian_h(self):
        p = STATIC_PT
        h = hamiltonian_at(p, 0.0)
        resid = quasi_hermiticity_residual(lambda t: IDENTITY.tolist(), p, 0.0)
        assert resid == pytest.approx(frobenius_norm(adjoint(h) - h), abs=1e-12)
        assert resid > 0.1


def numpy_residuals(matrix_at, p, t):
    """The numpy matrix expressions the entry-wise kernel replaced, and the scale of their terms.

    Returns (lr, quasi, scale): the conservation defect of C = sigma_z rho,
    the quasi-Hermiticity defect of rho = matrix_at(t), and the largest
    Frobenius norm of the terms the two defects subtract.
    """

    def c_at(s):
        return PAULI_Z @ matrix_at(s)

    h = hamiltonian_at(p, t)
    dc = (c_at(t + FD_STEP) - c_at(t - FD_STEP)) / (2.0 * FD_STEP)
    drho = (matrix_at(t + FD_STEP) - matrix_at(t - FD_STEP)) / (2.0 * FD_STEP)
    c, rho = c_at(t), matrix_at(t)
    lr = frobenius_norm(1j * p.hbar * dc - (h @ c - c @ h))
    quasi = frobenius_norm(1j * p.hbar * drho - (adjoint(h) @ rho - rho @ h))
    scale = max(frobenius_norm(x) for x in (1j * p.hbar * dc, h @ c, c @ h, adjoint(h) @ rho, rho @ h))
    return lr, quasi, scale


# each drive shape with the scale that lambda and kappa carry for it
SCALED_DRIVES = ((ConstantDrive(), 1.0), (SineDrive(frequency=1.3), 0.8))

RESIDUAL_CASES = [
    pytest.param(form, a * lam, a * kappa, drive, id=f"{form.name}-{lam:g},{kappa:g}-{type(drive).__name__}")
    for form, lam, kappa in (
        (MetricForm.PT_SYMMETRIC, 2.3, 0.7),
        (MetricForm.SPONTANEOUSLY_BROKEN, 0.7, 2.3),
        (MetricForm.EXCEPTIONAL_POINT, 1.3, 1.3),
        (MetricForm.FULL_TD, 2.3, 0.7),
        (MetricForm.FULL_TD, -0.7, 2.3),
        (MetricForm.FULL_TD, 1.3, -1.3),
        (MetricForm.FULL_TD, 1.3, 1.3 * (1.0 + 1e-9)),
    )
    for drive, a in SCALED_DRIVES
    if form is MetricForm.FULL_TD or isinstance(drive, ConstantDrive)
]


class TestResidualKernel:
    """lr_residual and quasi_hermiticity_residual against the numpy forms they replaced."""

    @pytest.mark.parametrize("form, lam, kappa, drive", RESIDUAL_CASES)
    def test_matches_the_numpy_matrix_expression(self, form, lam, kappa, drive):
        p = HamiltonianParams(-0.6, lam, kappa, hbar=1.7, drive=drive)

        def rho_at(t):
            return closed_form_metric(form, p, t).matrix

        def c_at(t):
            return PAULI_Z @ rho_at(t)

        for t in np.linspace(0.0, 6.0, 61).tolist():
            lr, quasi, scale = numpy_residuals(rho_at, p, t)
            got_lr = lr_residual(lambda s: c_at(s).tolist(), p, t)
            got_quasi = quasi_hermiticity_residual(lambda s: rho_at(s).tolist(), p, t)
            assert abs(got_lr - lr) <= 4 * EPS * scale
            assert abs(got_quasi - quasi) <= 4 * EPS * scale
            # the products of the one differ from the other's by sign alone
            assert got_quasi == got_lr

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan), 1e300])
    def test_silent_on_non_finite_entries(self, entry):
        # RuntimeWarnings are errors in this suite, and Python complex arithmetic
        # raises none, on non-finite entries or on products that overflow (1e300)
        p = FULL_SINE
        m = np.array([[1.0, entry], [0.5j, -1.0]], dtype=complex).tolist()
        assert not math.isfinite(lr_residual(lambda t: m, p, 0.4))
        assert not math.isfinite(quasi_hermiticity_residual(lambda t: m, p, 0.4))


ROWS_CASES = [
    pytest.param(form, a * lam, a * kappa, drive, id=f"{form.name}-{lam:g},{kappa:g}-{type(drive).__name__}")
    for form, (lam, kappa) in (
        (MetricForm.PT_SYMMETRIC, (2.3, 0.7)),
        (MetricForm.SPONTANEOUSLY_BROKEN, (0.7, 2.3)),
        (MetricForm.EXCEPTIONAL_POINT, (1.3, 1.3)),
        (MetricForm.FULL_TD, (2.3, 0.7)),
        (MetricForm.FULL_TD, (0.7, 2.3)),
        (MetricForm.FULL_TD, (1.3, 1.3)),
    )
    for lam_sign in (1.0, -1.0)
    for kappa_sign in (1.0, -1.0)
    for lam, kappa in [(lam_sign * lam, kappa_sign * kappa)]
    for drive, a in SCALED_DRIVES
    if form is MetricForm.FULL_TD or isinstance(drive, ConstantDrive)
]


def row_negated(m):
    """sigma_z m as numpy forms it on the command line's arrays: the second row negated."""
    c = m.copy()
    c[1] = -c[1]
    return c


class TestMetricRows:
    """A float evaluation carries its rows of Python complex, and builds ``matrix`` from them with the same bits."""

    @pytest.mark.parametrize("form, lam, kappa, drive", ROWS_CASES)
    def test_rows_and_matrix_are_the_direct_construction_bits(self, form, lam, kappa, drive):
        p = HamiltonianParams(-0.6, lam, kappa, hbar=1.7, drive=drive)
        # 1e308 overflows the phase: non-finite entries keep their bits too
        for t in (*np.linspace(-3.0, 7.0, 41).tolist(), p.drive.t_ref, 0.0, -0.0, 1e308):
            with np.errstate(all="ignore"):
                rho = closed_form_metric(form, p, t)
                d, x, y = _real_entries(form, p)(t)
            iy = 1j * y
            direct = np.array([[-d, x + iy], [x - iy, -d]], dtype=complex)
            assert all(type(a) is complex for row in rho.rows for a in row)
            m = rho.matrix
            assert m is rho.matrix
            assert m.tobytes() == direct.tobytes()
            # numpy stores a Python complex exactly, so equal bytes are equal bits, signed zeros included
            assert np.array(rho.rows, dtype=complex).tobytes() == np.array(m.tolist(), dtype=complex).tobytes()
            top, (a10, a11) = rho.rows
            negated = np.array((top, (-a10, -a11)), dtype=complex)
            assert negated.tobytes() == row_negated(m).tobytes()

    def test_only_float_evaluations_carry_rows(self):
        assert closed_form_metric(MetricForm.FULL_TD, FULL_SINE, np.linspace(0.0, 1.0, 3)).rows is None
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        rho = metric_from_c(c)
        assert rho.rows is None and rho.matrix is rho.matrix


class TestClosedFormMetric:
    def test_pt_metric_at_time_zero(self):
        rho = closed_form_metric(MetricForm.PT_SYMMETRIC, STATIC_PT, 0.0)
        diag = 2.0 * SQRT2 / SQRT3
        off = (SQRT3 + 1j * SQRT2) / SQRT3
        expected = np.array([[diag, off], [np.conj(off), diag]])
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_form_for_regime_mapping(self):
        assert metric_form_for_regime(Regime.PT_SYMMETRIC) is MetricForm.PT_SYMMETRIC
        assert metric_form_for_regime(Regime.EXCEPTIONAL_POINT) is MetricForm.EXCEPTIONAL_POINT

    def test_full_td_identity_at_anchor(self):
        rho = closed_form_metric(MetricForm.FULL_TD, FULL_SINE, math.pi / 2)
        assert np.allclose(rho.matrix, IDENTITY, atol=1e-14)

    @pytest.mark.parametrize("metric_form, inv_form, p", METRIC_CASES)
    def test_matches_metric_from_invariant_system(self, metric_form, inv_form, p):
        # the central equivalence: C(t) built from the invariant eigensystem
        # with (+1, -1) weights reproduces sigma_z * closed-form metric
        for t in (0.0, 0.7, 1.9, 4.2):
            inv = closed_form_invariant(inv_form, p, t)
            c = c_from_system(biortho_system(inv), (1, -1))
            rho = metric_from_c(c)
            ref = closed_form_metric(metric_form, p, t)
            assert frobenius_norm(rho.matrix - ref.matrix) < 1e-8

    @pytest.mark.parametrize("metric_form, inv_form, p", METRIC_CASES)
    def test_det_one_and_positive(self, metric_form, inv_form, p):
        for t in np.linspace(0.0, 10.0, 41):
            rho = closed_form_metric(metric_form, p, t)
            scale = max(1.0, frobenius_norm(rho.matrix))
            assert abs(np.linalg.det(rho.matrix).real - 1.0) < max(1e-9, 1e-13 * scale**2)
            hi, lo = hermitian_eigenvalues_2x2(rho.matrix, tol=1e-8)
            assert lo > 0

    def test_section_metrics_positive_over_parameter_grid(self):
        for lam in (0.5, 1.0, 2.0):
            for kappa in (0.5, 1.0, 2.0):
                p = HamiltonianParams(1.0, lam, kappa)
                form = metric_form_for_regime(classify_regime(p))
                for t in np.linspace(0.0, 5.0, 11):
                    hi, lo = hermitian_eigenvalues_2x2(closed_form_metric(form, p, t).matrix, tol=1e-8)
                    assert lo > 0

    def test_ep_limit_matches_full_td_nearby(self):
        kappa = 1.0
        for eps in (1e-4, -1e-4):
            p_near = HamiltonianParams(1.0, kappa * (1 + eps), kappa, drive=SineDrive())
            p_ep = HamiltonianParams(1.0, kappa, kappa, drive=SineDrive())
            for t in (0.0, 1.3, 3.1, 5.0):
                near = closed_form_metric(MetricForm.FULL_TD, p_near, t).matrix
                limit = closed_form_metric(MetricForm.FULL_TD, p_ep, t).matrix
                assert frobenius_norm(near - limit) < 1e-3

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_ep_limit_operator_is_conserved(self, lam):
        p = HamiltonianParams(1.0, lam, 1.0, drive=SineDrive())

        def c_at(t):
            return PAULI_Z @ closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        for t in (0.0, 1.0, 2.9):
            assert lr_residual(lambda s: c_at(s).tolist(), p, t) < 1e-8
            m = c_at(t)
            assert frobenius_norm(m @ m - IDENTITY) < 1e-12

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatchError):
            closed_form_metric(MetricForm.PT_SYMMETRIC, HamiltonianParams(1.0, 0.5, 1.0), 0.0)

    @pytest.mark.parametrize("form, inv_form, p", METRIC_CASES)
    def test_equals_parity_times_invariant_exactly(self, form, inv_form, p):
        # the metric negates the invariant's second row instead of multiplying
        # by sigma_z; the entries are equal (==), only the sign of an exact
        # zero (the off-diagonal at the drive anchor) may differ from the matmul
        for t in (*np.linspace(-3.0, 7.0, 101), p.drive.t_ref, 0.0):
            rho = closed_form_metric(form, p, t).matrix
            assert np.array_equal(rho, PAULI_Z @ closed_form_invariant(inv_form, p, t))

    def test_fixed_regime_forms_check_the_regime(self):
        points = {
            Regime.PT_SYMMETRIC: HamiltonianParams(1.0, 2.0, 1.0),
            Regime.SPONTANEOUSLY_BROKEN: HamiltonianParams(1.0, 0.5, 1.0),
            Regime.EXCEPTIONAL_POINT: HamiltonianParams(1.0, 1.0, 1.0),
        }
        for form_regime in points:
            form = metric_form_for_regime(form_regime)
            for regime, p in points.items():
                if regime is form_regime:
                    closed_form_metric(form, p, 0.3)
                else:
                    with pytest.raises(RegimeMismatchError):
                        closed_form_metric(form, p, 0.3)


class TestDyson:
    def test_identity_metric(self):
        eta = psd_sqrt(IDENTITY.copy())
        assert np.allclose(eta, IDENTITY)

    def test_sqrt_map_hermitizes_hamiltonian(self):
        c = c_from_system(biortho_system(hamiltonian_at(STATIC_PT, 0.0)), (1, -1))
        rho = metric_from_c(c)
        eta = psd_sqrt(rho.matrix)
        assert np.allclose(adjoint(eta) @ eta, rho.matrix, atol=1e-12)
        h = hamiltonian_at(STATIC_PT, 0.0)
        mapped = eta @ h @ np.linalg.inv(eta)
        assert frobenius_norm(mapped - adjoint(mapped)) < 1e-10
        hi, lo = hermitian_eigenvalues_2x2(0.5 * (mapped + adjoint(mapped)))
        assert hi == pytest.approx(-0.5 + SQRT3 / 2, abs=1e-10)
        assert lo == pytest.approx(-0.5 - SQRT3 / 2, abs=1e-10)

    def test_sqrt_of_time_dependent_metric_resquares(self):
        rho = closed_form_metric(MetricForm.PT_SYMMETRIC, STATIC_PT, 0.0).matrix
        s = psd_sqrt(rho)
        assert frobenius_norm(s @ s - rho) < 1e-12

    def test_sqrt_map_requires_positive_metric(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(PAULI_Z.copy())

    def test_eigenvector_rows_diagonalize(self):
        h = hamiltonian_at(STATIC_PT, 0.0)
        eta = dyson_from_eigenvectors(biortho_system(h))
        mapped = eta @ h @ np.linalg.inv(eta)
        assert abs(mapped[0, 1]) + abs(mapped[1, 0]) < 1e-12
        assert mapped[0, 0] == pytest.approx(-0.5 + SQRT3 / 2, abs=1e-12)
        assert mapped[1, 1] == pytest.approx(-0.5 - SQRT3 / 2, abs=1e-12)
