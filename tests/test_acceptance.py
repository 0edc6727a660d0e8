"""Acceptance suite: every shipped claim, one test per criterion.

Tolerances are fixed here, not tuned at call sites.  Each test prints one
PASS line (visible with ``pytest -s`` or on failure) so the suite doubles
as a checklist.
"""

import math

import numpy as np

from quasic.biortho import BiorthoPair, BiorthoSystem, biortho_system
from quasic.coperator import (
    MetricForm,
    c_from_system,
    closed_form_metric,
    involution_residual,
    pt_commutation_residual,
)
from quasic.evolution import (
    c_from_evolution,
    phase_alpha,
    phase_factor,
    tdse_integrate,
)
from quasic.invariants import (
    InvariantForm,
    closed_form_invariant,
    lr_residual,
    time_ordered_propagate,
)
from quasic.invariants import _real_entries
from quasic.linalg import IDENTITY, commutator, frobenius_norm, hermitian_eigenvalues_2x2
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    SineDrive,
    hamiltonian_at,
)

SQRT3 = math.sqrt(3.0)

STATIC_PT = HamiltonianParams(1.0, 2.0, 1.0)
DRIVEN_PT = HamiltonianParams(1.0, 2.0, 1.0, drive=SineDrive())

# propagation-vs-closed-form cases: (form, params, anchor time)
FORM_CASES = [
    (InvariantForm.PT_SYMMETRIC, HamiltonianParams(1.0, 2.0, 1.0), 0.0),
    (InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 0.5, 1.0), 0.0),
    (InvariantForm.EXCEPTIONAL_POINT, HamiltonianParams(1.0, 1.0, 1.0), 0.0),
    (InvariantForm.FULL_TD, DRIVEN_PT, math.pi / 2),
    (InvariantForm.FULL_TD, HamiltonianParams(1.0, 0.5, 1.0, drive=ConstantDrive()), 0.0),
]

PARAM_GRID = (0.5, 1.0, 2.0)


def bisect(f, a, b, iters=80):
    fa = f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if fa * f(mid) <= 0:
            b = mid
        else:
            a = mid
            fa = f(a)
    return 0.5 * (a + b)


def test_criterion_01_static_closed_form_c():
    lam, kappa = 2.0, 1.0
    sys_h = biortho_system(hamiltonian_at(STATIC_PT, 0.0))
    c = c_from_system(sys_h, (1, -1))
    expected = np.array([[lam, 1j * kappa], [1j * kappa, -lam]]) / math.sqrt(lam**2 - kappa**2)
    assert np.abs(c.matrix - expected).max() <= 1e-10
    print("ACCEPTANCE 1 PASS: static C-operator matches the closed form entrywise <= 1e-10")


def test_criterion_02_static_constraint_triple():
    h = hamiltonian_at(STATIC_PT, 0.0)
    c = c_from_system(biortho_system(h), (1, -1))
    residuals = (involution_residual(c), pt_commutation_residual(c.matrix), frobenius_norm(commutator(h, c.matrix)))
    assert all(r <= 1e-10 for r in residuals), residuals
    print("ACCEPTANCE 2 PASS: involution, antilinear commutation and [H, C] all <= 1e-10")


def test_criterion_03_propagation_matches_closed_forms():
    total_steps = 10_000
    for form, p, t0 in FORM_CASES:
        state = closed_form_invariant(form, p, t0)
        sup = 0.0
        sample_ts = np.linspace(t0, 5.0, 11)
        for a, b in zip(sample_ts, sample_ts[1:]):
            seg = max(1, round(total_steps * (b - a) / (5.0 - t0)))
            state = time_ordered_propagate(p, state, a, b, seg)
            sup = max(sup, frobenius_norm(state - closed_form_invariant(form, p, b)))
        assert sup <= 1e-6, (form, sup)
    # order-2 confirmation on the genuinely time-ordered case
    p = DRIVEN_PT
    t0 = p.drive.t_ref
    init = closed_form_invariant(InvariantForm.FULL_TD, p, t0)
    errs = []
    for steps in (total_steps, 2 * total_steps):
        out = time_ordered_propagate(p, init, t0, 5.0, steps)
        errs.append(frobenius_norm(out - closed_form_invariant(InvariantForm.FULL_TD, p, 5.0)))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0, ratio
    print(f"ACCEPTANCE 3 PASS: propagation sup-error <= 1e-6 and halving dt gives ratio {ratio:.2f}")


def test_criterion_04_lewis_riesenfeld_residual():
    for form, p, _ in FORM_CASES:

        def inv_at(t, form=form, p=p):
            return closed_form_invariant(form, p, t).tolist()

        worst = max(lr_residual(inv_at, p, t) for t in np.linspace(0.0, 5.0, 50))
        assert worst <= 1e-8, (form, worst)
    print("ACCEPTANCE 4 PASS: conservation-law residual <= 1e-8 at 50 times for every closed form")


def test_criterion_05_determinant_conservation():
    det_cases = [
        (InvariantForm.PT_SYMMETRIC, HamiltonianParams(1.0, 2.0, 1.0)),
        (InvariantForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 1.0, 1.2)),
        (InvariantForm.EXCEPTIONAL_POINT, HamiltonianParams(1.0, 1.0, 1.0)),
        (InvariantForm.FULL_TD, DRIVEN_PT),
        (InvariantForm.FULL_TD, HamiltonianParams(1.0, 1.0, 1.2, drive=ConstantDrive())),
    ]
    for form, p in det_cases:
        for t in np.linspace(0.0, 10.0, 101):
            assert abs(np.linalg.det(closed_form_invariant(form, p, t)) + 1.0) <= 1e-9
    metric_cases = [
        (MetricForm.PT_SYMMETRIC, HamiltonianParams(1.0, 2.0, 1.0)),
        (MetricForm.SPONTANEOUSLY_BROKEN, HamiltonianParams(1.0, 1.0, 1.2)),
        (MetricForm.EXCEPTIONAL_POINT, HamiltonianParams(1.0, 1.0, 1.0)),
    ]
    for form, p in metric_cases:
        for t in np.linspace(0.0, 10.0, 101):
            assert abs(np.linalg.det(closed_form_metric(form, p, t).matrix).real - 1.0) <= 1e-9
    print("ACCEPTANCE 5 PASS: det I = -1 and det rho = 1 within 1e-9 over [0, 10]")


def test_criterion_06_eigenvalue_signature_identity():
    checked = 0
    for lam in PARAM_GRID:
        for kappa in PARAM_GRID:
            regime = HamiltonianParams(1.0, lam, kappa).regime
            forms = [(regime, ConstantDrive())]
            if regime is not InvariantForm.EXCEPTIONAL_POINT:
                forms.append((InvariantForm.FULL_TD, ConstantDrive()))
                forms.append((InvariantForm.FULL_TD, SineDrive()))
            for form, drive in forms:
                p = HamiltonianParams(1.0, lam, kappa, drive=drive)
                for t in (0.0, 0.7, 1.5, 3.0):
                    d, x, y = _real_entries(form, p)(t)
                    assert abs(d * d - x * x - y * y - 1.0) <= 1e-9, (form, lam, kappa, t)
                    checked += 1
    assert checked == 84  # 3 coalescent pairs x 4 times + 6 pairs x 3 forms x 4 times
    print(f"ACCEPTANCE 6 PASS: d^2 - x^2 - y^2 = 1 within 1e-9 at {checked} grid points")


def test_criterion_07_positive_definite_metric():
    for lam in PARAM_GRID:
        for kappa in PARAM_GRID:
            for drive in (ConstantDrive(), SineDrive()):
                p = HamiltonianParams(1.0, lam, kappa, drive=drive)
                for t in np.linspace(0.0, 10.0, 101):
                    rho = closed_form_metric(MetricForm.FULL_TD, p, t)
                    hi, lo = hermitian_eigenvalues_2x2(rho.matrix, tol=1e-8)
                    if hi <= 1e6:
                        assert lo > 0.0, (lam, kappa, drive, t, lo)
                    else:
                        # beyond this scale the smaller eigenvalue (~1/hi,
                        # since det rho = 1 by the template identity of
                        # criterion 6) lies below the entrywise rounding
                        # floor; equal determinant signs make the trace
                        # sign decide, and the diagonal is cancellation-free
                        assert float(np.real(rho.matrix[0, 0])) > 0.0
    print("ACCEPTANCE 7 PASS: drive-dependent metric positive definite over the parameter grid")


def test_criterion_08_smooth_exceptional_limit():
    kappa = 1.0
    p_ep = HamiltonianParams(1.0, kappa, kappa, drive=SineDrive())
    for eps in (1e-4, -1e-4):
        p_near = HamiltonianParams(1.0, kappa * (1.0 + eps), kappa, drive=SineDrive())
        for t in np.linspace(0.0, 5.0, 11):
            near = closed_form_metric(MetricForm.FULL_TD, p_near, t).matrix
            limit = closed_form_metric(MetricForm.FULL_TD, p_ep, t).matrix
            assert frobenius_norm(near - limit) <= 1e-3
    print("ACCEPTANCE 8 PASS: metric approaches the coalescence limit smoothly from both sides")


def _degeneracy_gap(p, t):
    hi, lo = hermitian_eigenvalues_2x2(closed_form_metric(MetricForm.FULL_TD, p, t).matrix, tol=1e-8)
    return hi - lo


def _mu_abs(p, t):
    """|mu| = |sqrt(kappa^2 - lam^2)| |drive integral| / hbar, the hyperbolic argument of the drive-dependent forms."""
    return math.sqrt(abs((p.kappa - p.lam) * (p.kappa + p.lam))) * abs(p.drive.integral(t)) / p.hbar


def _predicted_degeneracy_times(p, window):
    """Times where |mu| is a multiple of 2*pi."""
    grid = np.linspace(window[0], window[1], 4001)
    mu_abs = np.array([_mu_abs(p, t) for t in grid])
    out = []
    n_max = int(mu_abs.max() / (2.0 * math.pi))
    for n in range(n_max + 1):
        if n == 0:
            vals = np.array([p.drive.integral(t) for t in grid])
        else:
            vals = mu_abs - 2.0 * math.pi * n
        signs = np.sign(vals)
        for k in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            f = (lambda t: p.drive.integral(t)) if n == 0 else (
                lambda t: _mu_abs(p, t) - 2.0 * math.pi * n
            )
            out.append(bisect(f, grid[k], grid[k + 1]))
        out.extend(grid[np.nonzero(vals == 0.0)[0]])
    return sorted(out)


def test_criterion_09_figure_degeneracy_times():
    p = DRIVEN_PT
    # universal degeneracies at pi/2 + n*pi where the drive integral anchors
    for n in range(3):
        t = math.pi / 2 + n * math.pi
        hi, lo = hermitian_eigenvalues_2x2(closed_form_metric(MetricForm.FULL_TD, p, t).matrix, tol=1e-8)
        assert abs(hi - 1.0) <= 1e-8 and abs(lo - 1.0) <= 1e-8

    # real-spectrum regime: degeneracies exactly where |mu| is in 2*pi*Z
    window = (0.0, 3.0 * math.pi)
    predicted = _predicted_degeneracy_times(p, window)
    analytic = [math.pi / 2 + n * math.pi for n in range(3)]
    assert len(predicted) == len(analytic)
    for found, ref in zip(predicted, analytic):
        assert abs(found - ref) <= 1e-6
        assert _degeneracy_gap(p, found) <= 1e-8
    # and nowhere else: away from predicted times the gap stays open
    for t in np.linspace(*window, 1500):
        if min(abs(t - r) for r in predicted) > 0.05:
            assert _degeneracy_gap(p, t) > 1e-4

    # a wider-band parameter point where |mu| reaches 2*pi, exercising the
    # non-anchored degeneracies
    p_wide = HamiltonianParams(1.0, 7.0, 1.0, drive=SineDrive())
    predicted_wide = _predicted_degeneracy_times(p_wide, (0.0, 2.0 * math.pi))
    assert len(predicted_wide) > 2  # more roots than the anchor times alone
    for found in predicted_wide:
        assert _degeneracy_gap(p_wide, found) <= 1e-8
    print("ACCEPTANCE 9 PASS: metric degeneracies occur exactly where |mu| is a multiple of 2*pi")


def test_criterion_10_dynamics_consistency():
    p = DRIVEN_PT
    pairs = biortho_system(closed_form_invariant(InvariantForm.FULL_TD, p, 0.0)).pairs
    evolved = [tdse_integrate(p, pr.right, pr.left, 0.0, 3.0, 30_000) for pr in pairs]
    worst_match = worst_involution = 0.0
    for k in range(0, 30_001, 1_000):
        t = evolved[0].grid[k]
        c = c_from_evolution(evolved[0], evolved[1], (1, -1), t)
        target = closed_form_invariant(InvariantForm.FULL_TD, p, t)
        worst_match = max(worst_match, frobenius_norm(c.matrix - target))
        worst_involution = max(
            worst_involution, frobenius_norm(c.matrix @ c.matrix - IDENTITY)
        )
    assert worst_match <= 1e-5, worst_match
    assert worst_involution <= 1e-6, worst_involution
    print(
        "ACCEPTANCE 10 PASS: evolved C matches the invariant "
        f"({worst_match:.2e}) and stays involutory ({worst_involution:.2e})"
    )


def test_criterion_11_phase_reconstruction():
    p = DRIVEN_PT  # hbar = 1

    def state_at(t):
        return biortho_system(closed_form_invariant(InvariantForm.FULL_TD, p, t)).pairs[0].right

    def rho_at(t):
        return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

    steps = 8_000
    trace = phase_alpha(state_at, p, rho_at, 0.0, 3.0, steps)
    assert trace.imag_residue <= 1e-6
    reconstructed = trace.states * phase_factor(trace, p.hbar)[:, None]
    oracle = tdse_integrate(p, reconstructed[0], reconstructed[0], 0.0, 3.0, steps)
    residual = np.abs(reconstructed - oracle.right_states).max()
    assert residual <= 1e-6, residual
    print(f"ACCEPTANCE 11 PASS: phase-reconstructed eigenstate solves the dynamics ({residual:.2e})")


def test_criterion_12_gauge_invariance():
    rng = np.random.default_rng(2718)
    systems = [
        biortho_system(hamiltonian_at(STATIC_PT, 0.0)),
        biortho_system(closed_form_invariant(InvariantForm.FULL_TD, DRIVEN_PT, 1.3)),
    ]
    for sys_base in systems:
        base = c_from_system(sys_base, (1, -1)).matrix
        for _ in range(200):
            scales = rng.uniform(0.1, 10.0, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
            pairs = tuple(
                BiorthoPair(
                    eigenvalue=pr.eigenvalue,
                    right=c * pr.right,
                    left=pr.left / np.conj(c),
                )
                for c, pr in zip(scales, sys_base.pairs)
            )
            rescaled = BiorthoSystem(pairs=pairs)
            delta = frobenius_norm(c_from_system(rescaled, (1, -1)).matrix - base)
            assert delta <= 1e-12
    print("ACCEPTANCE 12 PASS: 200 biorthonormal rescalings leave C unchanged to 1e-12")
