"""Paired TDSE integration, evolved C-operators, and the phase integral."""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from quasic import evolution
from quasic.biortho import biortho_system
from quasic.coperator import MetricForm, c_from_system, closed_form_metric
from quasic.errors import BranchFlipError, OffGridError
from quasic.evolution import (
    EvolvedState,
    aligned_eigenstate_trace,
    c_from_evolution,
    phase_alpha,
    phase_factor,
    tdse_integrate,
)
from quasic.invariants import InvariantForm, closed_form_invariant
from quasic.linalg import IDENTITY, PAULI_X, PAULI_Z, _expm1_pauli, _mat2_stack, frobenius_norm, mat_exp
from quasic.model import (
    ConstantDrive,
    HamiltonianParams,
    SineDrive,
    _hamiltonian_entries,
    hamiltonian_at,
)

STATIC = HamiltonianParams(1.0, 2.0, 1.0)
DRIVEN = HamiltonianParams(1.0, 2.0, 1.0, drive=SineDrive())


def invariant_pairs_at(p, t):
    form = InvariantForm.FULL_TD
    return biortho_system(closed_form_invariant(form, p, t)).pairs


def test_zero_hamiltonian_keeps_states():
    p = HamiltonianParams(0.0, 0.0, 0.0)
    psi0 = np.array([0.3 + 0.1j, -0.7j])
    phi0 = np.array([1.0, 0.5])
    ev = tdse_integrate(p, psi0, phi0, 0.0, 2.0, 100)
    assert np.allclose(ev.right_states[-1], psi0)
    assert np.allclose(ev.left_states[-1], phi0)


def test_matches_matrix_exponential_oracle():
    h = hamiltonian_at(STATIC, 0.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    phi0 = np.array([0.0, 1.0], dtype=complex)
    ev = tdse_integrate(STATIC, psi0, phi0, 0.0, 3.0, 10_000)
    for t_index in (2_500, 10_000):
        t = ev.grid[t_index]
        u = mat_exp(-1j * h * t)
        assert np.linalg.norm(ev.right_states[t_index] - u @ psi0) < 1e-10
        u_left = mat_exp(-1j * h.conj().T * t)
        assert np.linalg.norm(ev.left_states[t_index] - u_left @ phi0) < 1e-10


def test_rk4_order():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    phi0 = np.array([0.0, 1.0], dtype=complex)
    h = hamiltonian_at(STATIC, 0.0)
    exact = mat_exp(-1j * h * 2.0) @ psi0
    errs = []
    for steps in (40, 80, 160, 320):
        ev = tdse_integrate(STATIC, psi0, phi0, 0.0, 2.0, steps)
        errs.append(np.linalg.norm(ev.right_states[-1] - exact))
    for a, b in zip(errs, errs[1:]):
        assert 8.0 < a / b < 32.0


def exact_driven_states(p, psi0, phi0, grid):
    """Right and left states of the exact propagator on the grid from grid[0].

    Every H(t) of the family is -1/2 (omega I + tau(t) K), and the H(t)
    commute, so U(t) = e^{i omega (t - t0) / 2 hbar} exp(c K) with K = lam
    sigma_z + i kappa sigma_x and c = i (S(t) - S(t0)) / 2 hbar, S the
    drive's antiderivative.  Left states evolve under H^dag = sigma_z H
    sigma_z, so under sigma_z U sigma_z.
    """
    t0 = float(grid[0])
    c = 1j * (np.array([p.drive.integral(float(t)) for t in grid]) - p.drive.integral(t0)) / (2.0 * p.hbar)
    phase = np.exp(1j * p.omega * (grid - t0) / (2.0 * p.hbar))
    u = phase[:, None, None] * (IDENTITY + _expm1_pauli(1j * p.kappa * c, 0.0, p.lam * c))
    sz = np.diag([1.0, -1.0])
    return u @ psi0, sz @ u @ sz @ phi0


# PT-symmetric and broken, with a sine drive
EXACT_PAIRS = [(2.0, 0.7), (0.7, 2.0)]


@pytest.mark.parametrize("omega, hbar", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("lam, kappa", EXACT_PAIRS)
def test_driven_rk4_matches_exact_propagator(lam, kappa, omega, hbar):
    p = HamiltonianParams(omega, lam, kappa, hbar=hbar, drive=SineDrive())
    psi0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    phi0 = np.array([0.4 - 0.5j, 0.9 + 0.1j])
    for steps in (3_000, 10_000):
        dt = 3.0 / steps
        ev = tdse_integrate(p, psi0, phi0, 0.0, 3.0, steps)
        rights, lefts = exact_driven_states(p, psi0, phi0, ev.grid)
        # global RK4 error C dt^4 plus a roundoff floor: measured C <= 0.05
        # over these four cases (4.7e-14 at 3,000 steps), and <= 1.1e-15 at
        # 10,000 steps, where roundoff dominates
        bound = 0.25 * dt**4 + 20 * np.finfo(float).eps
        assert relative_error(ev.right_states, rights) <= bound, steps
        assert relative_error(ev.left_states, lefts) <= bound, steps


@pytest.mark.parametrize("lam, kappa", EXACT_PAIRS)
def test_driven_rk4_order(lam, kappa):
    p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
    psi0 = np.array([1.0, 0.0], dtype=complex)
    phi0 = np.array([0.0, 1.0], dtype=complex)
    errs = []
    for steps in (40, 80, 160, 320):
        ev = tdse_integrate(p, psi0, phi0, 0.0, 3.0, steps)
        rights, lefts = exact_driven_states(p, psi0, phi0, ev.grid)
        errs.append(max(np.abs(ev.right_states - rights).max(), np.abs(ev.left_states - lefts).max()))
    for a, b in zip(errs, errs[1:]):
        assert 8.0 < a / b < 32.0


def exact_c(p, pairs, signature, grid):
    """sum_n s_n |R_n(t)><L_n(t)| on the grid, each pair carried from grid[0] by the exact propagator."""
    c = np.zeros((len(grid), 2, 2), dtype=complex)
    for s, pair in zip(signature, pairs):
        rights, lefts = exact_driven_states(p, pair.right, pair.left, grid)
        c += s * np.einsum("ki,kj->kij", rights, lefts.conj())
    return c


@pytest.mark.parametrize("steps", [1_000, 30_000])
@pytest.mark.parametrize("lam, kappa", [(2.0, 1.0), *EXACT_PAIRS])
def test_criterion_10_evolved_c_matches_the_exact_solution(lam, kappa, steps):
    # criterion 10 compares the evolved C(t) with the closed-form invariant
    # at 1e-5; against the exact propagator the RK4 error itself is bounded:
    # C is bilinear in the evolved states, whose global error is C dt^4 plus
    # a roundoff floor, and the states' bound holds for it.  Measured relative
    # to max ||C||: 0.021-0.025 dt^4 at 1,000 steps (1.7e-12 - 2.0e-12), and
    # roundoff, 6.4e-16 - 1.0e-15, at criterion 10's 30,000
    p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
    pairs = invariant_pairs_at(p, 0.0)
    evolved = [tdse_integrate(p, pr.right, pr.left, 0.0, 3.0, steps) for pr in pairs]
    nodes = np.linspace(0, steps, 31).round().astype(int)
    grid = evolved[0].grid[nodes]
    exact = exact_c(p, pairs, (1, -1), grid)
    errs = [frobenius_norm(c_from_evolution(*evolved, (1, -1), t).matrix - exact[k]) for k, t in enumerate(grid)]
    dt = 3.0 / steps
    assert max(errs) / max(frobenius_norm(c) for c in exact) <= 0.25 * dt**4 + 20 * np.finfo(float).eps


def reconstruction_error(p, t1, steps):
    """Largest |psi - exact| of the phase-reconstructed state, criterion 11's pipeline, on [0, t1]."""

    def state_at(t):
        return invariant_pairs_at(p, t)[0].right

    def rho_at(t):
        return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

    trace = phase_alpha(state_at, p, rho_at, 0.0, t1, steps)
    reconstructed = trace.states * phase_factor(trace)[:, None]
    exact, _ = exact_driven_states(p, reconstructed[0], reconstructed[0], trace.grid)
    return np.abs(reconstructed - exact).max()


@pytest.mark.parametrize("omega, hbar", [(1.0, 1.0), (0.7, 1.3)])
@pytest.mark.parametrize("lam, kappa", [(2.0, 1.0), *EXACT_PAIRS])
def test_criterion_11_reconstruction_matches_the_exact_solution(lam, kappa, omega, hbar):
    # criterion 11 compares the reconstruction with RK4 at 1e-6; against the
    # exact propagator its error is that of the phase quadrature, the
    # trapezoid rule over second-order differences: C dt^2, with C measured
    # at 0.05-0.26 over these cases (1.4e-8 on criterion 11's own pair and
    # 8,000 steps)
    p = HamiltonianParams(omega, lam, kappa, hbar=hbar, drive=SineDrive())
    steps = 8_000
    assert reconstruction_error(p, 3.0, steps) <= 0.5 * (3.0 / steps) ** 2


@pytest.mark.parametrize("lam, kappa", [(2.0, 1.0), *EXACT_PAIRS])
def test_criterion_11_reconstruction_is_second_order(lam, kappa):
    # halving dt quarters the error, as criterion 3 pins for the propagator
    # (measured 4.000 on these pairs); a trapezoid with unequal weights is
    # first order and a scaled one does not converge
    p = HamiltonianParams(1.0, lam, kappa, drive=SineDrive())
    ratio = reconstruction_error(p, 3.0, 4_000) / reconstruction_error(p, 3.0, 8_000)
    assert 3.0 <= ratio <= 5.0, ratio


def test_pairing_conserved():
    pairs = invariant_pairs_at(DRIVEN, 0.0)
    for pair in pairs:
        ev = tdse_integrate(DRIVEN, pair.right, pair.left, 0.0, 3.0, 5_000)
        overlaps = np.einsum("ij,ij->i", np.conj(ev.left_states), ev.right_states)
        assert np.abs(overlaps - overlaps[0]).max() < 1e-8
        assert overlaps[0] == pytest.approx(1.0, abs=1e-10)


def test_c_from_evolution_at_start_matches_system():
    pairs = invariant_pairs_at(DRIVEN, 0.0)
    evs = [tdse_integrate(DRIVEN, pr.right, pr.left, 0.0, 1.0, 10) for pr in pairs]
    c0 = c_from_evolution(evs[0], evs[1], (1, -1), 0.0)
    sys0 = biortho_system(closed_form_invariant(InvariantForm.FULL_TD, DRIVEN, 0.0))
    ref = c_from_system(sys0, (1, -1))
    assert frobenius_norm(c0.matrix - ref.matrix) < 1e-12


@pytest.mark.parametrize("signature", [(1, -1), (-1, 1), (1, 1), (-1, -1)])
@pytest.mark.parametrize("lam, kappa", [(2.0, 1.0), (0.8, 1.7), (1.3, 0.0)])
def test_c_from_evolution_at_start_has_the_system_bits(lam, kappa, signature):
    # node 0 holds the start states exactly, and both sums run through one body, so even the signs
    # of zero entries agree; kappa = 0 gives eigenvectors with zero components
    sys0 = biortho_system(hamiltonian_at(HamiltonianParams(1.0, lam, kappa), 0.0))
    evs = [tdse_integrate(DRIVEN, pr.right, pr.left, 0.0, 1.0, 10) for pr in sys0.pairs]
    got = c_from_evolution(evs[0], evs[1], signature, 0.0).matrix
    assert got.tobytes() == c_from_system(sys0, signature).matrix.tobytes()


@pytest.mark.parametrize("hbar", [1.0, 2.0, 0.5])
def test_evolved_c_matches_invariant(hbar):
    p = HamiltonianParams(1.0, 2.0, 1.0, hbar=hbar, drive=SineDrive())
    pairs = invariant_pairs_at(p, 0.0)
    evs = [tdse_integrate(p, pr.right, pr.left, 0.0, 2.0, 6_000) for pr in pairs]
    c2 = c_from_evolution(evs[0], evs[1], (1, -1), 2.0)
    target = closed_form_invariant(InvariantForm.FULL_TD, p, 2.0)
    assert frobenius_norm(c2.matrix - target) < 1e-5
    assert frobenius_norm(c2.matrix @ c2.matrix - IDENTITY) < 1e-6


def test_phase_injection_cancels():
    pairs = invariant_pairs_at(DRIVEN, 0.0)
    base = [tdse_integrate(DRIVEN, pr.right, pr.left, 0.0, 1.0, 500) for pr in pairs]
    theta = 0.77
    shifted = [
        tdse_integrate(
            DRIVEN, np.exp(1j * theta) * pr.right, np.exp(1j * theta) * pr.left, 0.0, 1.0, 500
        )
        for pr in pairs
    ]
    c_base = c_from_evolution(base[0], base[1], (1, -1), 1.0)
    c_shift = c_from_evolution(shifted[0], shifted[1], (1, -1), 1.0)
    assert frobenius_norm(c_base.matrix - c_shift.matrix) < 1e-13


def test_off_grid_rejected():
    pairs = invariant_pairs_at(DRIVEN, 0.0)
    ev = tdse_integrate(DRIVEN, pairs[0].right, pairs[0].left, 0.0, 1.0, 100)
    with pytest.raises(OffGridError):
        ev.index_of(0.005)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_off_grid(t):
    pairs = invariant_pairs_at(DRIVEN, 0.0)
    ev = tdse_integrate(DRIVEN, pairs[0].right, pairs[0].left, 0.0, 1.0, 100)
    with pytest.raises(OffGridError):
        ev.index_of(t)
    with pytest.raises(OffGridError):
        c_from_evolution(ev, ev, (1, -1), t)


def rk4_per_step(p, psi0, phi0, t0, t1, steps):
    """The per-step RK4 loop that the prefix scan replaced, kept as its oracle.

    The textbook stage recursion, one step at a time on Python complex
    scalars, with H's entries at each stage time from the drive's scalar
    tau.  H is symmetric (h10 = h01), so H^dag, which the left states
    evolve under, is H with every entry conjugated.
    """
    dt = (t1 - t0) / steps
    grid = t0 + dt * np.arange(steps + 1)
    c, half, sixth = -1j / p.hbar, 0.5 * dt, dt / 6.0

    def step(v0, v1, ha, hm, hb):
        (a00, a01, a11), (m00, m01, m11), (b00, b01, b11) = ha, hm, hb
        k10, k11 = c * (a00 * v0 + a01 * v1), c * (a01 * v0 + a11 * v1)
        u0, u1 = v0 + half * k10, v1 + half * k11
        k20, k21 = c * (m00 * u0 + m01 * u1), c * (m01 * u0 + m11 * u1)
        u0, u1 = v0 + half * k20, v1 + half * k21
        k30, k31 = c * (m00 * u0 + m01 * u1), c * (m01 * u0 + m11 * u1)
        u0, u1 = v0 + dt * k30, v1 + dt * k31
        k40, k41 = c * (b00 * u0 + b01 * u1), c * (b01 * u0 + b11 * u1)
        return v0 + sixth * (k10 + 2.0 * k20 + 2.0 * k30 + k40), v1 + sixth * (k11 + 2.0 * k21 + 2.0 * k31 + k41)

    rights, lefts = [np.asarray(psi0, dtype=complex).tolist()], [np.asarray(phi0, dtype=complex).tolist()]
    for t in grid[:-1].tolist():
        hs = [_hamiltonian_entries(p, p.drive.tau(s)) for s in (t, t + half, t + dt)]
        rights.append(step(*rights[-1], *hs))
        lefts.append(step(*lefts[-1], *[[e.conjugate() for e in h] for h in hs]))
    return grid, np.array(rights), np.array(lefts)


def relative_error(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


# each drive shape with the scale that lambda and kappa carry for it
DRIVES = {
    "sine": (SineDrive(frequency=2.0), 1.3),
    "constant": (ConstantDrive(), 0.8),
    # negative, faster and anchored away from zero: a third shape of tau
    "sine-negative": (SineDrive(frequency=3.0, t_ref=0.4), -0.9),
}
PAIRS = {"pt": (2.0, 1.0), "broken": (0.8, 1.7)}
EDGE_PAIRS = {
    "ep": (1.1, 1.1),
    "near-ep": (1.1, 1.1 * (1.0 + 1e-9)),
    "negative-lambda": (-2.0, 1.0),
    "negative-kappa": (0.8, -1.7),
}
SPANS = {"forward": (0.0, 1.5), "backward": (1.5, 0.0)}
# around the scan's powers of two, where the number of its doubling passes changes
STEP_COUNTS = (1, 2, 3, 15, 16, 17, 65, 2047, 2048, 2049, 8193)


def driven(omega, pair, drive, **kwargs):
    """H at (lambda, kappa) = pair under the drive shape DRIVES[drive], the pair scaled by its scale."""
    shape, scale = DRIVES[drive]
    lam, kappa = pair
    return HamiltonianParams(omega, scale * lam, scale * kappa, drive=shape, **kwargs)


def assert_matches_per_step(p, t0, t1, steps):
    psi0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    phi0 = np.array([0.4 - 0.5j, 0.9 + 0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev = tdse_integrate(p, psi0, phi0, t0, t1, steps)
    grid, rights, lefts = rk4_per_step(p, psi0, phi0, t0, t1, steps)
    assert np.array_equal(ev.grid, grid)
    assert relative_error(ev.right_states, rights) <= 1e-12
    assert relative_error(ev.left_states, lefts) <= 1e-12


class TestPrefixScanRK4:
    """The prefix scan is the per-step RK4 recursion, up to roundoff."""

    # factors I + x I + y K with random coordinates and K^2 = q I, multiplied
    # out as 2x2 matrices in time order; q = 0 makes K nilpotent
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 100])
    def test_prefix_scan_in_time_order(self, n):
        rng = np.random.default_rng(n)
        for lam, kappa in ((1.3, 0.4), (0.4, 1.3), (0.9, 0.9), (-0.7, 0.7)):
            q = (lam - kappa) * (lam + kappa)
            k = np.array([[lam, 1j * kappa], [1j * kappa, -lam]])
            # axis 0 holds (x, y), axis 1 two independent batches, axis 2 time
            deltas = 0.3 * (rng.standard_normal((2, 2, n)) + 1j * rng.standard_normal((2, 2, n)))
            keep = deltas.copy()
            got_x, got_y = evolution._prefix_scan(deltas, q)
            assert np.array_equal(deltas, keep)
            x, y = deltas
            for batch in range(2):
                expected = np.eye(2, dtype=complex)
                for j in range(n):
                    expected = (np.eye(2) + x[batch, j] * np.eye(2) + y[batch, j] * k) @ expected
                    got = np.eye(2) + got_x[batch, j] * np.eye(2) + got_y[batch, j] * k
                    assert relative_error(got, expected) <= 1e-12

    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("drive", DRIVES)
    def test_step_counts(self, drive, pair, span):
        p = driven(0.7, PAIRS[pair], drive, hbar=1.3)
        for steps in STEP_COUNTS:
            assert_matches_per_step(p, *SPANS[span], steps)

    # q = (lam - kappa)(lam + kappa) = 0 makes K nilpotent; next to it q is
    # ~1e-9 of lam^2; the signs of lam and kappa enter K, not q
    @pytest.mark.parametrize("pair", EDGE_PAIRS)
    @pytest.mark.parametrize("drive", DRIVES)
    def test_edge_pairs(self, drive, pair):
        p = driven(0.7, EDGE_PAIRS[pair], drive, hbar=1.3)
        for span in SPANS.values():
            for steps in STEP_COUNTS:
                assert_matches_per_step(p, *span, steps)

    def test_steps_below_one_rejected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            tdse_integrate(STATIC, e1, e1, 0.0, 1.0, 0)


@pytest.mark.parametrize("lam, kappa", [(2.0, 1.0), (-0.8, 1.7), (1.1, 1.1), (0.0, -0.6)])
def test_k_action_is_the_matrix_product(lam, kappa):
    # over (side, step) arrays of each component, as the RK4 propagation and phase_alpha apply it
    p = HamiltonianParams(0.7, lam, kappa)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((2, 5, 2)) + 1j * rng.standard_normal((2, 5, 2))
    k = p.lam * PAULI_Z + 1j * p.kappa * PAULI_X
    want = np.einsum("ij,...j->...i", k, v)
    got = np.stack(evolution._k_action(p, v[..., 0], v[..., 1]), axis=-1)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def reference_two_sided_tdse(p, psi0, phi0, t0, t1, steps):
    """The two-sided scan that the parity shortcut replaced, kept as its oracle.

    Right states evolve under A = alpha I + beta K and left states under
    A_L = -i H^dag / hbar = alpha I + beta K^dag.  K^dag^2 = K^2 = q I, so each
    side builds and scans its own coordinates in its own algebra and applies
    them with its own K: psi0 with K, and phi0 with K^dag directly, without
    sigma_z.
    """
    dt = (t1 - t0) / steps
    grid = t0 + dt * np.arange(steps + 1)
    coeff = 0.5j / p.hbar
    q = (p.lam - p.kappa) * (p.lam + p.kappa)
    stage_times = np.array([[0.0], [0.5], [1.0]]) * dt
    alpha = coeff * p.omega
    sides = []
    # K^dag = lam sigma_z - i kappa sigma_x; -i H^dag / hbar = coeff (omega I + tau K^dag)
    for v0, kappa in ((psi0, p.kappa), (phi0, -p.kappa)):
        b_a, b_m, b_b = coeff * p.drive.tau_array(grid[:-1] + stage_times)
        x1, y1 = alpha, b_a
        x2 = alpha + 0.5 * dt * (alpha * x1 + q * (b_m * y1))
        y2 = b_m + 0.5 * dt * (alpha * y1 + b_m * x1)
        x3 = alpha + 0.5 * dt * (alpha * x2 + q * (b_m * y2))
        y3 = b_m + 0.5 * dt * (alpha * y2 + b_m * x2)
        x4 = alpha + dt * (alpha * x3 + q * (b_b * y3))
        y4 = b_b + dt * (alpha * y3 + b_b * x3)
        x, y = evolution._prefix_scan(
            np.stack((dt / 6.0 * (x1 + 2.0 * x2 + 2.0 * x3 + x4), dt / 6.0 * (y1 + 2.0 * y2 + 2.0 * y3 + y4))), q
        )
        v = np.asarray(v0, dtype=complex)
        kv = np.array([p.lam * v[0] + 1j * kappa * v[1], 1j * kappa * v[0] - p.lam * v[1]])
        sides.append(np.concatenate([v[None], v + (x[:, None] * v + y[:, None] * kv)]))
    return grid, sides[0], sides[1]


# STEP_COUNTS in two groups: up to 65 steps, and from 2047 on
SHORT_AND_LONG = (STEP_COUNTS[:7], STEP_COUNTS[7:])


class TestParityShortcut:
    """Left states as sigma_z U sigma_z phi0 are those of the propagator in span{I, K^dag}, to the bit."""

    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("drive", DRIVES)
    @pytest.mark.parametrize("counts", SHORT_AND_LONG, ids=["short", "long"])
    def test_same_bits_as_two_sided_scan(self, counts, drive, pair, span, hbar):
        p = driven(0.7, PAIRS[pair], drive, hbar=hbar)
        psi0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        phi0 = np.array([0.4 - 0.5j, 0.9 + 0.1j])
        for steps in counts:
            ev = tdse_integrate(p, psi0, phi0, *SPANS[span], steps)
            grid, rights, lefts = reference_two_sided_tdse(p, psi0, phi0, *SPANS[span], steps)
            assert np.array_equal(ev.grid, grid)
            assert np.array_equal(ev.right_states, rights)
            assert np.array_equal(ev.left_states, lefts)

    def test_initial_states_left_untouched(self):
        # the left column is flipped in place on the states array, never on the input
        psi0 = np.array([0.6 + 0.2j, -0.3 + 0.7j])
        keep = psi0.copy()
        ev = tdse_integrate(DRIVEN, psi0, psi0, 0.0, 1.0, 10)
        assert np.array_equal(psi0, keep)
        assert np.array_equal(ev.right_states[0], keep)
        assert np.array_equal(ev.left_states[0], keep)


def cold_tdse(p, psi0, phi0, t0, t1, steps):
    """tdse_integrate with the propagator memo emptied first."""
    evolution._rk4_prefixes.cache_clear()
    return tdse_integrate(p, psi0, phi0, t0, t1, steps)


def lookups():
    """(hits, misses) of the propagator memo so far."""
    info = evolution._rk4_prefixes.cache_info()
    return info.hits, info.misses


def assert_same_bits(ev, ref):
    for name in ("grid", "right_states", "left_states"):
        got, want = getattr(ev, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


PSI_A, PHI_A = np.array([0.6 + 0.2j, -0.3 + 0.7j]), np.array([0.4 - 0.5j, 0.9 + 0.1j])
PSI_B, PHI_B = np.array([-0.1 + 0.8j, 0.5 - 0.2j]), np.array([0.7 + 0.3j, -0.2 - 0.6j])
UNIT_0, UNIT_1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def zero_twins(field, sign):
    """Calls (p, t0, t1) equal as values, as (firsts, seconds), one per drive shape.

    ``field`` is zero in both, with the sign ``sign`` in the first call and
    the other sign in the second; "equal-p" changes nothing but the objects.
    """
    # a zero t1 ends a backward span; "all" makes the span (0, 0) too; "span"
    # runs from one signed zero to the other, (0, -0) against (-0, 0), under
    # omega = -0.0, where the signs of zero state entries follow the sign of dt
    values = {"omega": 0.7, "lam": 1.3, "kappa": 0.9, "t_ref": 0.4, "t0": 1.5 if field == "t1" else 0.0, "t1": 1.5}
    calls = []
    for zero in (sign * 0.0, -sign * 0.0):
        v = {**values, **{name: zero for name in values if field in (name, "all")}}
        if field == "span":
            v.update(omega=-0.0, t0=zero, t1=-zero)
        for shape in (ConstantDrive(t_ref=v["t_ref"]), SineDrive(frequency=2.0, t_ref=v["t_ref"])):
            p = HamiltonianParams(v["omega"], v["lam"], v["kappa"], hbar=1.3, drive=shape)
            calls.append((p, v["t0"], v["t1"]))
    return calls[:2], calls[2:]


class TestPropagatorCache:
    """A repeated propagator is scanned once; every result keeps a cold call's bits."""

    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("drive", DRIVES)
    @pytest.mark.parametrize("counts", SHORT_AND_LONG, ids=["short", "long"])
    def test_hit_has_cold_bits(self, counts, drive, pair, span, hbar):
        p = driven(0.7, PAIRS[pair], drive, hbar=hbar)
        for steps in counts:
            tdse_integrate(p, PSI_A, PHI_A, *SPANS[span], steps)
            hits, misses = lookups()
            hit = tdse_integrate(p, PSI_B, PHI_B, *SPANS[span], steps)
            assert lookups() == (hits + 1, misses)
            assert_same_bits(hit, cold_tdse(p, PSI_B, PHI_B, *SPANS[span], steps))

    def test_hit_builds_nothing(self, monkeypatch):
        tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, 100)

        def forbidden(*args):
            raise AssertionError("a hit rebuilt the propagator")

        monkeypatch.setattr(SineDrive, "tau_array", forbidden)
        monkeypatch.setattr(evolution, "_prefix_scan", forbidden)
        hit = tdse_integrate(DRIVEN, PSI_B, PHI_B, 0.0, 1.5, 100)
        assert lookups() == (1, 1)
        monkeypatch.undo()
        assert_same_bits(hit, cold_tdse(DRIVEN, PSI_B, PHI_B, 0.0, 1.5, 100))

    # the key is the value: an equal parameter set built anew, and twins whose
    # zeros have the other sign, hit, and the hit has the bits of a cold call,
    # also for unit states, whose zero entries keep the sign of their products
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus-first", "minus-first"])
    @pytest.mark.parametrize("field", ["equal-p", "omega", "lam", "kappa", "t_ref", "t0", "t1", "all", "span"])
    def test_equal_key_hits(self, field, sign):
        for first, second in zip(*zero_twins(field, sign)):
            p, t0, t1 = second
            if field == "equal-p":
                assert first == second and first[0] is not p
            for steps in (1, 7, 3000):
                for psi0, phi0 in ((PSI_B, PHI_B), (UNIT_0, UNIT_0), (UNIT_0, UNIT_1), (UNIT_1, UNIT_0)):
                    evolution._rk4_prefixes.cache_clear()
                    tdse_integrate(first[0], PSI_A, PHI_A, *first[1:], steps)
                    hit = tdse_integrate(p, psi0, phi0, t0, t1, steps)
                    assert lookups() == (1, 1)
                    assert_same_bits(hit, cold_tdse(p, psi0, phi0, t0, t1, steps))

    @pytest.mark.parametrize("change", ["hbar", "t0", "t1", "steps"])
    def test_changed_key_misses(self, change):
        p = driven(0.7, (0.8, 1.7), "sine", hbar=1.3)
        first = (0.0, 1.5, 65)
        second = {"t0": (0.25, 1.5, 65), "t1": (0.0, 1.25, 65), "steps": (0.0, 1.5, 64)}.get(change, first)
        tdse_integrate(p, PSI_A, PHI_A, *first)
        if change == "hbar":
            p = HamiltonianParams(p.omega, p.lam, p.kappa, hbar=1.25, drive=p.drive)
        miss = tdse_integrate(p, PSI_B, PHI_B, *second)
        assert lookups() == (0, 2)
        assert_same_bits(miss, cold_tdse(p, PSI_B, PHI_B, *second))

    def test_hit_still_rejects_bad_initial_states(self):
        tdse_integrate(STATIC, PSI_A, PHI_A, 0.0, 1.0, 4)
        for bad in ([np.nan, 0.0], [1.0, 0.0, 0.0], 1.0):
            with pytest.raises(ValueError, match="psi0 must be a finite state of shape"):
                tdse_integrate(STATIC, bad, PHI_A, 0.0, 1.0, 4)
            with pytest.raises(ValueError, match="phi0 must be a finite state of shape"):
                tdse_integrate(STATIC, PSI_A, bad, 0.0, 1.0, 4)

    def test_written_results_do_not_reach_the_next_call(self):
        ev = tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, 40)
        for array in (ev.grid, ev.right_states, ev.left_states):
            array[...] = 7.0
        again = tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, 40)
        assert lookups() == (1, 1)
        assert_same_bits(again, cold_tdse(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, 40))

    def test_cached_stacks_are_read_only(self):
        stacks = evolution._rk4_prefixes(DRIVEN, 0.0, 1.5, 40)
        with pytest.raises(ValueError, match="read-only"):
            stacks[0, 0] = 0.0

    def test_one_entry_retained(self):
        first = HamiltonianParams(1.0, 2.5, 1.0, drive=SineDrive())
        released = weakref.ref(first)
        stacks = evolution._rk4_prefixes(first, 0.0, 1.5, 300)
        # two contiguous rows of complex coordinates, 32 B per step
        assert stacks.shape == (2, 300) and stacks.nbytes == 32 * 300 and stacks.flags.c_contiguous
        del first, stacks
        gc.collect()
        assert released() is not None
        tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, 40)
        gc.collect()
        assert released() is None
        assert evolution._rk4_prefixes.cache_info().currsize == 1
        tdse_integrate(DRIVEN, PSI_B, PHI_B, 0.0, 1.5, 40)
        assert lookups() == (1, 2)

    def test_hit_peak_is_the_results_the_memo_and_one_buffer(self):
        # the +- pair of one C(t): y K v is formed one (side, component) column at a time in one
        # (steps,) buffer, where a (steps, 2) buffer held twice that and a (2, steps, 2) temporary four times
        steps = 100_000
        tracemalloc.start()
        try:
            first = tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, steps)
            tracemalloc.reset_peak()
            second = tdse_integrate(DRIVEN, PSI_B, PHI_B, 0.0, 1.5, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lookups() == (1, 1)
        results = sum(a.nbytes for ev in (first, second) for a in (ev.grid, ev.right_states, ev.left_states))
        memo = evolution._rk4_prefixes(DRIVEN, 0.0, 1.5, steps).nbytes
        buffer = 16 * steps
        # numpy's own small allocations stay far below one buffer
        assert peak <= results + memo + buffer + 2**20

    def test_cold_peak_is_at_most_140_bytes_per_step(self):
        # the RK4 stages are summed into the coordinates as each is formed, and the drive is evaluated
        # one row at a time, so a cold call holds one or two drive rows, the coordinates and one stage;
        # the three drive rows as one (3, steps) array peaked at 160 B, and stacking all stages at 208 B
        steps = 100_000
        tracemalloc.start()
        try:
            tdse_integrate(DRIVEN, PSI_A, PHI_A, 0.0, 1.5, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lookups() == (0, 1)
        assert peak <= 140 * steps


def index_of_by_argmin(ev, t):
    """The whole-grid argmin lookup that the arithmetic one replaced, kept as its oracle."""
    k = int(np.argmin(np.abs(ev.grid - t)))
    if not (math.isfinite(t) and abs(ev.grid[k] - t) <= 1e-9 * max(1.0, abs(t))):
        raise OffGridError(f"t={t} is not a grid node")
    return k


def lookup(index_of, ev, t):
    try:
        return index_of(ev, t)
    except OffGridError:
        return "off-grid"


class TestIndexOf:
    """The arithmetic node lookup agrees with the argmin over the whole grid."""

    @pytest.mark.parametrize("nodes", [2, 11, 10_001])
    # on the dense span the tolerance band holds many nodes, so ties and rounding decide
    @pytest.mark.parametrize(
        "span",
        [(-2.5, 0.7), (0.7, -2.5), (1.2, 1.2), (1e6, 1e6 + 1e-3)],
        ids=["forward", "backward", "degenerate", "dense"],
    )
    def test_agrees_with_argmin(self, span, nodes):
        ev = tdse_integrate(STATIC, PSI_A, PHI_A, *span, nodes - 1)
        grid = ev.grid
        tol = 1e-9 * np.maximum(1.0, np.abs(grid))
        between = np.concatenate([0.5 * (grid[1:] + grid[:-1]), [grid[0] - 1.0, grid[-1] + 1.0, -1e300, 1e300]])
        probes = np.concatenate([grid - tol, grid, grid + tol, between])
        # the ends of the tolerance band, from inside and from outside
        ends = np.concatenate([grid[[0, 1, -2, -1]] + f * tol[[0, 1, -2, -1]] for f in (-1.01, -0.99, 0.99, 1.01)])
        for t in np.unique(np.concatenate([probes, ends])).tolist():
            assert lookup(EvolvedState.index_of, ev, t) == lookup(index_of_by_argmin, ev, t), t
        for k in (0, nodes // 2, nodes - 1):
            assert ev.index_of(float(grid[k])) == (0 if span[0] == span[1] else k)

    @pytest.mark.parametrize("span", [(-2.5, 0.7), (0.7, -2.5), (1.2, 1.2)], ids=["forward", "backward", "degenerate"])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises(self, span, t):
        ev = tdse_integrate(STATIC, PSI_A, PHI_A, *span, 10)
        with pytest.raises(OffGridError):
            ev.index_of(t)


@pytest.mark.parametrize("which", ["psi0", "phi0"])
@pytest.mark.parametrize(
    "bad",
    [1.0, [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], [np.nan, 0.0], [1.0, np.inf], [0.0, complex(np.nan, 1.0)]],
    ids=["scalar", "length-1", "length-3", "row", "nan", "inf", "complex-nan"],
)
def test_bad_initial_state_rejected(which, bad):
    e1 = np.array([1.0, 0.0], dtype=complex)
    states = {"psi0": e1, "phi0": e1, which: bad}
    with pytest.raises(ValueError, match=f"{which} must be a finite state of shape"):
        tdse_integrate(STATIC, states["psi0"], states["phi0"], 0.0, 1.0, 4)


NON_FINITE_SPANS = {
    "nan-t0": (np.nan, 1.0),
    "nan-t1": (0.0, np.nan),
    "inf-t0": (np.inf, 1.0),
    "inf-t1": (0.0, np.inf),
    "-inf-t0": (-np.inf, 1.0),
    "-inf-t1": (0.0, -np.inf),
}


@pytest.mark.parametrize("span", NON_FINITE_SPANS)
@pytest.mark.parametrize("drive", ["constant", "sine"])
def test_non_finite_times_rejected(drive, span, monkeypatch):
    # every drive is defined at every finite time, so only the time check stands in the way
    p = driven(1.0, (2.0, 1.0), drive)
    t0, t1 = NON_FINITE_SPANS[span]
    with pytest.raises(ValueError, match="t0 and t1 must be finite"):
        cold_tdse(p, PSI_A, PHI_A, t0, t1, 10)
    # the check runs before the lookup: the memo sees no call and keeps its entry
    tdse_integrate(p, PSI_A, PHI_A, 0.0, 1.0, 10)
    before = evolution._rk4_prefixes.cache_info()
    with pytest.raises(ValueError, match="t0 and t1 must be finite"):
        tdse_integrate(p, PSI_A, PHI_A, t0, t1, 10)
    assert evolution._rk4_prefixes.cache_info() == before
    # and a lookup that always hits changes nothing
    stacks = evolution._rk4_prefixes(p, 0.0, 1.0, 10)
    monkeypatch.setattr(evolution, "_rk4_prefixes", lambda *args: stacks)
    with pytest.raises(ValueError, match="t0 and t1 must be finite"):
        tdse_integrate(p, PSI_A, PHI_A, t0, t1, 10)


class TestPhase:
    def test_commuting_case_linear_phase(self):
        # H = -omega/2 * I: constant eigenstates, alpha = omega*t/(2*hbar)
        for hbar in (1.0, 2.0):
            p = HamiltonianParams(1.0, 0.0, 0.0, hbar=hbar)
            e1 = np.array([1.0, 0.0], dtype=complex)
            trace = phase_alpha(lambda t: e1, p, lambda t: IDENTITY.copy(), 0.0, 2.0, 400)
            expected = p.omega * trace.grid / (2.0 * hbar)
            assert np.abs(trace.alpha - expected).max() < 1e-10
            assert trace.imag_residue < 1e-12
            # reconstruction reproduces the exact evolution
            exact = np.exp(1j * p.omega * trace.grid / (2.0 * hbar))
            assert np.abs(phase_factor(trace, hbar) - exact).max() < 1e-9

    def test_reconstruction_satisfies_tdse(self):
        p = DRIVEN

        def state_at(t):
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        steps = 3_000
        trace = phase_alpha(state_at, p, rho_at, 0.0, 1.5, steps)
        assert trace.imag_residue < 1e-6
        rec = trace.states * phase_factor(trace, p.hbar)[:, None]
        ev = tdse_integrate(p, rec[0], rec[0], 0.0, 1.5, steps)
        err = np.abs(rec - ev.right_states).max()
        assert err < 1e-5

    def test_alpha_real_in_pt_regime(self):
        p = DRIVEN

        def state_at(t):
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        trace = phase_alpha(state_at, p, rho_at, 0.0, 3.0, 1_500)
        assert trace.imag_residue < 1e-6
        assert np.all(np.isreal(trace.alpha))

    def test_branch_flip_detected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)

        def jumpy(t):
            return np.where((t < 0.5)[:, None], e1, e2)

        with pytest.raises(BranchFlipError):
            aligned_eigenstate_trace(jumpy, lambda t: IDENTITY.copy(), np.linspace(0, 1, 11))


def phase_alpha_per_sample(state_at, p, rho_at, t0, t1, steps):
    """The per-sample alpha_dot loop that the array pass replaced, kept as its oracle."""
    grid = np.linspace(t0, t1, steps + 1)
    states = aligned_eigenstate_trace(state_at, rho_at, grid)
    dt = grid[1] - grid[0]
    dstates = np.empty_like(states)
    dstates[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    dstates[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
    dstates[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    alpha_dot = np.empty(len(grid), dtype=complex)
    for k, t in enumerate(grid):
        v = states[k]
        rho = rho_at(t)
        h = hamiltonian_at(p, t)
        num = np.vdot(v, rho @ (1j * dstates[k] - (h @ v) / p.hbar))
        den = np.vdot(v, rho @ v)
        alpha_dot[k] = num / den
    real = alpha_dot.real
    alpha = np.concatenate([[0.0], np.cumsum(0.5 * dt * (real[1:] + real[:-1]))])
    return alpha, float(np.max(np.abs(alpha_dot.imag)))


def phase_alpha_einsum(state_at, p, rho_at, t0, t1, steps):
    """alpha_dot by einsum over the stack of H's matrices, the array form the entry-wise pass replaced."""
    grid = np.linspace(t0, t1, steps + 1)
    states = aligned_eigenstate_trace(state_at, rho_at, grid)
    rhos = np.broadcast_to(np.asarray(rho_at(grid), dtype=complex), (len(grid), 2, 2))
    dt = grid[1] - grid[0]
    dstates = np.empty_like(states)
    dstates[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    dstates[0] = (-3.0 * states[0] + 4.0 * states[1] - states[2]) / (2.0 * dt)
    dstates[-1] = (3.0 * states[-1] - 4.0 * states[-2] + states[-3]) / (2.0 * dt)
    h00, h01, h11 = _hamiltonian_entries(p, p.drive.tau_array(grid))
    h_v = np.einsum("kij,kj->ki", _mat2_stack(h00, h01, h01, h11), states)
    bras = states.conj()
    num = np.einsum("ki,kij,kj->k", bras, rhos, 1j * dstates - h_v / p.hbar)
    den = np.einsum("ki,kij,kj->k", bras, rhos, states)
    alpha_dot = num / den
    real = alpha_dot.real
    alpha = np.concatenate([[0.0], np.cumsum(0.5 * dt * (real[1:] + real[:-1]))])
    return alpha, float(np.max(np.abs(alpha_dot.imag)))


def aligned_trace_numpy_reads(state_at, rho_at, grid):
    """The per-sample alignment loop that the array pass replaced, kept as its oracle."""
    out = np.empty((len(grid), 2), dtype=complex)
    for k, t in enumerate(grid):
        v = np.asarray(state_at(t), dtype=complex)
        norm_sq = np.real(np.vdot(v, rho_at(t) @ v))
        v = v / np.sqrt(norm_sq)
        if k > 0:
            ov = np.vdot(out[k - 1], v)
            v = v * (np.conj(ov) / abs(ov))
        out[k] = v
    return out


class TestPhaseArrayPass:
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    def test_aligned_trace_same_bits(self, pair, hbar):
        p = HamiltonianParams(1.0, *PAIRS[pair], hbar=hbar, drive=SineDrive())

        def state_at(t):
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        grid = np.linspace(0.0, 1.2, 401)
        got = aligned_eigenstate_trace(state_at, rho_at, grid)
        assert np.abs(got - aligned_trace_numpy_reads(state_at, rho_at, grid)).max() <= 1e-12

    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_per_sample_loop(self, pair):
        p = HamiltonianParams(1.0, *PAIRS[pair], hbar=1.3, drive=SineDrive())

        def state_at(t):
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        trace = phase_alpha(state_at, p, rho_at, 0.0, 1.2, 400)
        alpha, imag_residue = phase_alpha_per_sample(state_at, p, rho_at, 0.0, 1.2, 400)
        assert relative_error(trace.alpha, alpha) <= 1e-12
        assert trace.imag_residue == pytest.approx(imag_residue, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    def test_matches_the_einsum_pass(self, pair, hbar):
        p = HamiltonianParams(0.8, *PAIRS[pair], hbar=hbar, drive=SineDrive())

        def state_at(t):
            return invariant_pairs_at(p, t)[1].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        trace = phase_alpha(state_at, p, rho_at, 0.0, 3.0, 3000)
        alpha, imag_residue = phase_alpha_einsum(state_at, p, rho_at, 0.0, 3.0, 3000)
        assert relative_error(trace.alpha, alpha) <= 1e-12
        assert trace.imag_residue == pytest.approx(imag_residue, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_trace_carries_the_aligned_states(self, pair):
        p = HamiltonianParams(1.0, *PAIRS[pair], hbar=1.3, drive=SineDrive())

        def state_at(t):
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        trace = phase_alpha(state_at, p, rho_at, 0.0, 1.2, 400)
        again = aligned_eigenstate_trace(state_at, rho_at, trace.grid)
        assert trace.states.tobytes() == again.tobytes()

    def test_steps_below_two_rejected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            phase_alpha(lambda t: e1, STATIC, lambda t: IDENTITY.copy(), 0.0, 1.0, 1)

    @pytest.mark.parametrize("t0, t1", [(0.7, 0.7), (-0.0, 0.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_degenerate_span_rejected_before_the_providers(self, t0, t1):
        # with t0 == t1 the grid spacing is 0 and alpha_dot is 0/0
        called = []

        def provider(t):
            called.append(t)
            return IDENTITY.copy()

        with pytest.raises(ValueError, match="t0 and t1 must be finite and distinct"):
            phase_alpha(provider, STATIC, provider, t0, t1, 10)
        assert called == []

    def test_non_finite_alpha_dot_rejected(self):
        # a drive that is NaN past t = 0.75 passes the alignment (the
        # providers are finite) and makes H, and so alpha_dot, NaN on part of
        # the grid; the constant and sine drives are finite there, so a stub
        # plants it
        class NanTailDrive:
            def tau_array(self, t):
                return np.where(np.asarray(t) > 0.75, np.nan, 1.0)

        p = HamiltonianParams(1.0, 2.0, 1.0, drive=NanTailDrive())
        e1 = np.array([1.0, 0.0], dtype=complex)
        # the first grid time past 0.75
        first = np.linspace(0.0, 1.0, 41)[31]
        with pytest.raises(ArithmeticError, match=f"alpha_dot is not finite at t={first}$"):
            phase_alpha(lambda t: e1, p, lambda t: IDENTITY.copy(), 0.0, 1.0, 40)
        # the finite part of the same drive passes; the imaginary residue of the
        # constant state is np.gradient's one-sided derivative at the ends, whose
        # coefficients -1.5/dt, 2/dt and -0.5/dt cancel only to rounding
        trace = phase_alpha(lambda t: e1, p, lambda t: IDENTITY.copy(), 0.0, 0.75, 40)
        dt = trace.grid[1] - trace.grid[0]
        assert np.isfinite(trace.alpha).all() and trace.imag_residue <= 4.0 * np.finfo(float).eps / dt

    def test_non_positive_metric_norm_rejected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="non-positive metric norm"):
            aligned_eigenstate_trace(lambda t: e1, lambda t: -IDENTITY, np.linspace(0, 1, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        grid = np.linspace(0.0, 1.0, 11)
        e1 = np.array([1.0, 0.0], dtype=complex)

        def state_at(t):
            return np.where((t == grid[4])[:, None], np.array([bad, 1.0]), e1)

        def rho_at(t):
            rho = np.broadcast_to(IDENTITY, (len(t), 2, 2)).copy()
            rho[7] = bad
            return rho

        for states, metrics in ((state_at, lambda t: IDENTITY), (lambda t: e1, rho_at)):
            t_bad = grid[4] if states is state_at else grid[7]
            with pytest.raises(ValueError, match=f"non-positive metric norm .* at t={t_bad}$"):
                aligned_eigenstate_trace(states, metrics, grid)
            with pytest.raises(ValueError, match=f"at t={t_bad}$"):
                phase_alpha(states, STATIC, metrics, 0.0, 1.0, 10)

    def test_branch_flip_names_its_sample_time(self):
        grid = np.linspace(0.0, 1.0, 11)

        def rotating(t):
            return np.stack((np.cos(t), np.sin(t)), axis=-1).astype(complex)

        aligned_eigenstate_trace(rotating, lambda t: IDENTITY, grid)
        # the state turns by 1.6 rad between the samples at 0.5 and 0.6
        with pytest.raises(BranchFlipError, match=f"at t={grid[6]}$"):
            aligned_eigenstate_trace(lambda t: rotating(np.where(t > 0.55, t + 1.5, t)), lambda t: IDENTITY, grid)

    def test_providers_called_once_with_the_grid(self):
        p = HamiltonianParams(1.0, 2.0, 0.7, drive=SineDrive())
        seen = []

        def state_at(t):
            seen.append(("state", t))
            return invariant_pairs_at(p, t)[0].right

        def rho_at(t):
            seen.append(("rho", t))
            return closed_form_metric(MetricForm.FULL_TD, p, t).matrix

        trace = phase_alpha(state_at, p, rho_at, 0.0, 1.0, 50)
        assert [name for name, _ in seen] == ["state", "rho"]
        assert all(t is trace.grid for _, t in seen)

    def test_imaginary_alpha_dot_rejected(self):
        # <v|H v> = -(omega + i kappa)/2 for v = (1, 1)/sqrt(2) and rho = I
        p = HamiltonianParams(1.0, 0.0, 1.0)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        with pytest.raises(ArithmeticError, match="imaginary part"):
            phase_alpha(lambda t: v, p, lambda t: IDENTITY.copy(), 0.0, 1.0, 10)
