"""Paired Schroedinger evolution, evolved C-operators and the phase integral.

Right states evolve under H(t), left states under H(t)^dag:

    i*hbar d|psi>/dt = H(t) |psi>,      i*hbar d|phi>/dt = H(t)^dag |phi>.

The pairing conserves <phi|psi> exactly, which is what keeps an evolved
C-operator involutory.  Every H of the family satisfies H^dag = sigma_z H
sigma_z, the parity intertwining relation H^dag P = P H, so the left
propagator is sigma_z U sigma_z for the right propagator U: a classical
fixed-step RK4 propagates psi and sigma_z phi with one propagator for H,
and sigma_z maps the second back to phi.  RK4 is deliberately a different
code path from the matrix exponentials used elsewhere, so the two can
cross-validate each other.

Time is an array axis, and the propagator lives in the family's algebra.
Every H of the family is -1/2 (omega I + tau(t) K) with one fixed K = lam
sigma_z + i kappa sigma_x and K^2 = (lam - kappa)(lam + kappa) I, so every
RK4 step matrix, and every product of them, is x I + y K for two complex
coordinates (x, y).  ``tdse_integrate`` builds the coordinates of every
step from the drive alone and gets every grid state from one inclusive
prefix scan of them over the whole grid in that commutative algebra
(Hillis & Steele, CACM 29(12), 1986; Blelloch, CMU-CS-90-190, 1990), with
each step carried as its deviation from the identity.  The eigenpairs of
an evolved C(t) = sum_n s_n |psi_n(t)><phi_n(t)| share H(t) and the grid,
so the last propagator is memoized by value for the next call (see
``tdse_integrate``).  A cold call peaks at 136 B per step, and the second
call of such a pair at 1e5 steps at 19.2 MB, 17.6 MB of it the results and
the memo entry.  The evolved C(t) is ``biortho._projector_sum`` of the
evolved pairs at one grid node, the body that ``c_from_system`` uses.

Every array pass runs along the step or sample axis, one state component
at a time: over a trailing axis of length 2, numpy's inner loop runs two
elements at a time.  Applying the propagator to the start states took
0.64 ms per 10,000-step call as a broadcast over (side, step, component),
and takes 0.19 ms as four column passes (best of 50, one pinned CPU of a
2-CPU VM, numpy 2.4).

Phase reconstruction takes its eigenstates and metrics from two callbacks,
``state_at`` and ``rho_at``, and calls each once, with the whole time grid
as an array of shape (N,).  ``state_at(grid)`` returns the (N, 2) states
and ``rho_at(grid)`` the (N, 2, 2) metrics; a provider that returns one
(2,) state or one 2x2 metric for all times is broadcast.  The closed forms
(``closed_form_invariant``, ``closed_form_metric``) and ``biortho_system``
accept the grid and return such stacks, so a provider written for one time
t, such as ``biortho_system(closed_form_invariant(form, p, t)).pairs[0].right``,
serves the whole grid unchanged.  The alignment that fixes the gauge of the
samples and ``phase_alpha``'s alpha_dot are (N,) passes over the grid, one
component at a time.
The two metric forms they take, the metric norm <v|rho v> and alpha_dot
(over states of unit metric norm, so it has no denominator), are written
out entry by entry over (N,) arrays (``_metric_form``): at N = 3001 numpy's three-operand einsum takes 0.14 ms
and the entry-wise form 0.04 ms (best of 300, 2-CPU VM, numpy 2.4).  H v
comes from the drive alone, as -1/2 (omega v + tau K v), without building
the (N, 2, 2) Hamiltonian stack; K v is ``_k_action``, which the RK4
propagation applies too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .biortho import _projector_sum
from .coperator import COperator, Signature, validate_signature
from .errors import BranchFlipError, OffGridError
from .model import HamiltonianParams

@dataclass(frozen=True, eq=False)
class EvolvedState:
    """One right/left pair sampled on a uniform time grid."""

    grid: np.ndarray
    right_states: np.ndarray
    left_states: np.ndarray

    def index_of(self, t: float) -> int:
        """Index of the grid node at t; OffGridError unless t is one (NaN and inf are not).

        The grid is uniform, so the nearest node is estimated from its end
        points, and the nearest of that node and its two neighbours (the
        first on a tie, as an argmin over the whole grid takes) absorbs the
        rounding of the estimate.  A constant grid (t0 == t1) gives node 0.
        """
        # an infinite t would pass with an infinite tolerance
        if not math.isfinite(t):
            raise OffGridError(f"t={t} is not a grid node")
        grid = self.grid
        last = len(grid) - 1
        first, span = float(grid[0]), float(grid[-1] - grid[0])
        # a NaN estimate (from a NaN grid) is not > 0 and falls to node 0
        x = min((t - first) / span * last, last) if span else 0.0
        k = int(round(x)) if x > 0 else 0
        lo = max(k - 1, 0)
        window = grid[lo : k + 2].tolist()
        j = min(range(len(window)), key=lambda i: abs(window[i] - t))
        # written so that NaN fails
        if not abs(window[j] - t) <= 1e-9 * max(1.0, abs(t)):
            raise OffGridError(f"t={t} is not a grid node")
        return lo + j


def _prefix_scan(deltas: np.ndarray, q: float) -> np.ndarray:
    """Inclusive time-ordered prefix products in span{I, K}, as deviations from I, along the last axis.

    deltas[:, ..., j] holds the coordinates (x, y) of d_j = x I + y K, with
    K^2 = q I, and out[:, ..., j] those of (I + d_j) ... (I + d_0) - I.
    Hillis-Steele doubling: after the pass with shift s, entry j holds the
    product of the factors j-2s+1 .. j, so ceil(log2 n) passes suffice.
    Factors are carried as deviations, (I + l)(I + e) = I + e + l + l e, so
    rounding stays relative to each step's small generator and not to 1.
    A pass writes to the other of two buffers; l e = l_x e + l_y (q e_y, e_x).
    """
    src, dst, work = deltas.copy(), np.empty_like(deltas), np.empty_like(deltas)
    shift = 1
    while shift < deltas.shape[-1]:
        late, early, out, tmp = src[..., shift:], src[..., :-shift], dst[..., shift:], work[..., shift:]
        np.multiply(late[0], early, out=out)
        np.multiply(late[1], early[::-1], out=tmp)
        tmp[0] *= q
        out += tmp
        # (e + l) + l e, in this order: e + (l + l e) rounds differently
        np.add(early, late, out=tmp)
        out += tmp
        dst[..., :shift] = src[..., :shift]
        src, dst = dst, src
        shift *= 2
    return src


def _k_action(p: HamiltonianParams, v0: np.ndarray, v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The components of K v from the components v0, v1 of v, with K = lam sigma_z + i kappa sigma_x."""
    ik = 1j * p.kappa
    return p.lam * v0 + ik * v1, ik * v0 - p.lam * v1


@functools.lru_cache(maxsize=1)
def _rk4_prefixes(p: HamiltonianParams, t0: float, t1: float, steps: int) -> np.ndarray:
    """Prefix products of the RK4 propagator for H, as one read-only (2, steps) array.

    Column k holds the coordinates (x, y) of M_k ... M_0 - I = x I + y K for
    step k of the grid t0 + (t1 - t0)/steps * k, with K = lam sigma_z + i
    kappa sigma_x.  The last result is memoized by value, so an equal call
    returns the same array without evaluating the drive.
    """
    dt = (t1 - t0) / steps
    half, sixth = 0.5 * dt, dt / 6.0
    # A = -i H / hbar = alpha I + beta(t) K, and K^2 = q I, factored to ~1 ulp relative next to coalescence
    coeff = 0.5j / p.hbar
    alpha = coeff * p.omega
    q = (p.lam - p.kappa) * (p.lam + p.kappa)
    grid = t0 + dt * np.arange(steps)

    def beta(offset: float) -> np.ndarray:
        # one drive row at a time, at t + offset dt, so each is freed once its stages are formed
        return coeff * p.drive.tau_array(grid + offset * dt)

    # K_j = x_j I + y_j K from beta at t, t + dt/2 and t + dt: K1 = (alpha, beta(0)), and each
    # A (I + h K_j), h = dt/2 or dt, is written out in the algebra, every product in one operand order.
    # Each stage is summed into deltas = dt/6 (K1 + 2 K2 + 2 K3 + K4), left to right, then replaced
    x, y = deltas = np.empty((2, steps), dtype=complex)
    x[:], y[:] = xs, ys = alpha, beta(0.0)
    b = beta(0.5)
    for h, last in ((half, False), (half, False), (dt, True)):
        if last:
            b = beta(1.0)
        xs, ys = alpha + h * (alpha * xs + b * ys * q), b + h * (alpha * ys + b * xs)
        x += xs if last else 2.0 * xs
        y += ys if last else 2.0 * ys
    np.multiply(sixth, deltas, out=deltas)
    # free the last stage, the last drive row and the grid before the scan
    del grid, b, xs, ys
    stacks = _prefix_scan(deltas, q)
    stacks.setflags(write=False)
    return stacks


def tdse_integrate(
    p: HamiltonianParams,
    psi0: np.ndarray,
    phi0: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> EvolvedState:
    """RK4 integration of the paired equations; global error O(dt^4).

    For the linear equation v' = A(t) v, one classical RK4 step from t to
    t + dt is the matrix M = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with

        K1 = A(t),  K2 = A_m (I + dt/2 K1),  K3 = A_m (I + dt/2 K2),
        K4 = A(t + dt) (I + dt K3),           A_m = A(t + dt/2),

    where A = -i H / hbar.  Applying M to v is exactly the textbook stage
    recursion, so this is the same scheme as a per-step loop, up to roundoff.

    Every H of the family is -1/2 (omega I + tau(t) K) with one fixed K =
    lam sigma_z + i kappa sigma_x, and K^2 = q I with q = (lam - kappa)(lam
    + kappa).  So A(t) = alpha I + beta(t) K with alpha = i omega / (2 hbar)
    and beta = i tau / (2 hbar), and every stage, every M and every product
    of them lies in the commutative algebra span{I, K}, where

        (x1 I + y1 K)(x2 I + y2 K) = (x1 x2 + q y1 y2) I + (x1 y2 + y1 x2) K.

    Each M - I and each prefix product is carried as its two coordinates
    (x, y), not as a 2x2 matrix; the drive is the only input that varies
    with t.  At the exceptional point q = 0 and K is nilpotent; nothing
    divides by q, so the same arithmetic holds there.

    Left states evolve under A_L = -i H^dag / hbar, and the shortcut rests on
    H^dag = sigma_z H sigma_z holding exactly for every H of the family
    (``tests/test_model.py`` checks it entry for entry): sigma_z K sigma_z =
    K^dag, so the RK4 matrix of A_L is x I + y K^dag = sigma_z M sigma_z
    with the same coordinates.  The propagator for H is applied to psi0 and
    sigma_z phi0, and flipping the sign of the second component of the
    latter gives the left states.  Sign flips are exact: both state arrays
    equal those of the same coordinates applied with K to psi0 and with
    K^dag to phi0.

    The drive is evaluated one row at a time, at t, t + dt/2 and t + dt
    of one step grid t (as computed: the last t + dt may round past t1,
    where both drives are defined), every step's coordinates of M - I are
    built from those rows with alpha one complex scalar, and one prefix
    scan of them (see ``_prefix_scan``) gives the coordinates of M_k ...
    M_0 for every step k, as one contiguous (2, steps) array.  Applied to
    the start states v they give every state as v + (x v + y K v), one
    (side, component) column at a time, each pass along the steps: x v
    into the column, y K v into one (steps,) buffer and added, then v
    added.  A scan pass is six array operations into preallocated (2,
    steps) buffers.  numpy's complex multiply rounds through fused
    multiply-adds, so a b and b a can differ in the last bit: every product
    keeps one operand order.

    Memory: a cold call peaks at 136 B per step while it builds the
    coordinates (the step grid, one or two drive rows, the coordinates each
    RK4 stage is summed into as it is formed, and one stage; the scan's
    buffers then hold 128 B).  Applying them holds, beyond the returned
    grid and states (72 B per step) and the memo entry (32 B per step), the
    one buffer (16 B per step).  For the +- pair of one C(t) at 1e5 steps,
    the tracemalloc peak of the second call is 19.2 MB: 17.6 MB of the two
    results and the memo entry, 1.6 MB of buffer and a few kB of numpy's
    own.  The three drive rows as one (3, steps) array peaked at 160 B per
    step cold, and a (steps, 2) buffer at 21.1 MB on the second call.

    The eigenpairs of one C(t) evolve under the same H(t) on the same grid,
    so they share the scanned coordinates.  ``_rk4_prefixes`` memoizes the
    last propagator it built (``functools.lru_cache(maxsize=1)``), keyed by
    value on p, t0, t1 and steps.  A call equal in all four skips the drive
    evaluation, the RK4 build and the scan, and applies the kept array to
    its own initial states, with the bits of a cold call: t0 and t1 are
    taken as float(t) + 0.0, so a zero of either sign is +0.0 before the
    lookup.  The argument checks run before the lookup, so a repeated call
    still rejects bad input.  The kept entry holds 32 B per step, half the
    returned state arrays, and stays alive while the next miss builds its
    own.  On the dynamics job the +- eigenpairs repeat their propagator,
    20,000 of its 46,000 steps.

    RK4 is a fourth-order polynomial in dt A, not a product of exponentials,
    so it stays independent of the midpoint exponential product in
    ``invariants`` and the two still cross-validate.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # + 0.0 makes a zero +0.0, so a memo hit has the bits of a cold call
    t0, t1 = float(t0) + 0.0, float(t1) + 0.0
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    psi0, phi0 = np.asarray(psi0, dtype=complex), np.asarray(phi0, dtype=complex)
    for name, v in (("psi0", psi0), ("phi0", phi0)):
        if v.shape != (2,) or not np.isfinite(v).all():
            raise ValueError(f"{name} must be a finite state of shape (2,)")
    x, y = _rk4_prefixes(p, t0, t1, steps)
    grid = t0 + (t1 - t0) / steps * np.arange(steps + 1)
    # axis 0: psi under H, and sigma_z phi under H, which sigma_z maps to phi under H^dag
    states = np.empty((2, steps + 1, 2), dtype=complex)
    v = states[:, 0]
    v[0] = psi0
    v[1] = phi0[0], -phi0[1]
    # v + (x v + y K v), one (side, component) column at a time along the steps; y K v into one buffer
    buffer = np.empty(steps, dtype=complex)
    for c, kv in enumerate(_k_action(p, v[:, 0], v[:, 1])):
        for side in range(2):
            col = states[side, 1:, c]
            np.multiply(x, v[side, c], out=col)
            col += np.multiply(y, kv[side], out=buffer)
            col += v[side, c]
    np.negative(states[1, :, 1], out=states[1, :, 1])
    return EvolvedState(grid=grid, right_states=states[0], left_states=states[1])


def c_from_evolution(
    plus: EvolvedState,
    minus: EvolvedState,
    signature: Signature,
    t: float,
) -> COperator:
    """Signature-weighted sum of evolved |right><left| pairs at a grid time.

    The initial pairs must be biorthonormalized at the starting time; the
    evolution preserves the pairing, so no renormalization is applied here
    (any drift is diagnostic and shows up in the involution residual).
    """
    signature = validate_signature(signature)
    i = plus.index_of(t)
    j = minus.index_of(t)
    pairs = ((plus.right_states[i], plus.left_states[i]), (minus.right_states[j], minus.left_states[j]))
    return COperator(matrix=_projector_sum(pairs, signature))


@dataclass(frozen=True, eq=False)
class PhaseTrace:
    grid: np.ndarray
    alpha: np.ndarray
    #: largest |Im(alpha_dot)| encountered; the integrated alpha is real
    imag_residue: float
    #: the aligned eigenstates on the grid, as aligned_eigenstate_trace returns them
    states: np.ndarray


def phase_factor(trace: PhaseTrace, hbar: float = 1.0) -> np.ndarray:
    """Reconstruction factors e^{i alpha} on the grid.

    ``hbar`` has no effect: alpha already carries the 1/hbar of alpha_dot.
    """
    return np.exp(1j * trace.alpha)


def _metric_form(
    bras: tuple[np.ndarray, np.ndarray], rhos: np.ndarray, kets: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """<u_k| rho_k |v_k> for each k, from the (N,) components of conj(u) and of v, and the (N, 2, 2) rho.

    Written out entry by entry, bra_0 (rho_00 v_0 + rho_01 v_1) + bra_1
    (rho_10 v_0 + rho_11 v_1), over (N,) arrays.  Silent on non-finite
    entries, which the callers test for and report with their sample time.
    """
    v0, v1 = kets
    with np.errstate(invalid="ignore", over="ignore"):
        row0 = rhos[:, 0, 0] * v0 + rhos[:, 0, 1] * v1
        row1 = rhos[:, 1, 0] * v0 + rhos[:, 1, 1] * v1
        return bras[0] * row0 + bras[1] * row1


def _aligned_trace(
    state_at: Callable[[np.ndarray], np.ndarray],
    rho_at: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """aligned_eigenstate_trace, plus the metric samples rho(t) it evaluated.

    One call of each provider on the whole grid; the rest are (N,) passes.
    Sample k is v_k / sqrt(<v_k|rho_k v_k>) times the running product of
    conj(o_j) / |o_j| over j <= k, where o_j = <v_{j-1}|v_j> of the
    normalized samples: rotating each sample so that its overlap with the
    rotated previous one is positive real is a cumulative product of unit
    overlap phases, the discrete parallel transport of Berry-phase numerics
    (Resta, J. Phys.: Condens. Matter 12, R107 (2000)).  The tests are
    written so that NaN fails them.
    """
    n = len(grid)
    states = np.broadcast_to(np.asarray(state_at(grid), dtype=complex), (n, 2))
    rhos = np.broadcast_to(np.asarray(rho_at(grid), dtype=complex), (n, 2, 2))
    s0, s1 = states[:, 0], states[:, 1]
    norm_sq = _metric_form((s0.conj(), s1.conj()), rhos, (s0, s1)).real
    bad = ~((norm_sq > 0) & (norm_sq < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"state has non-positive metric norm {norm_sq[k]:.3g} at t={grid[k]}")
    norm = np.sqrt(norm_sq)
    s0, s1 = s0 / norm, s1 / norm
    ov = s0[:-1].conj() * s0[1:] + s1[:-1].conj() * s1[1:]
    modulus = np.abs(ov)
    norms = np.hypot(np.abs(s0), np.abs(s1))
    rel = modulus / (norms[:-1] * norms[1:])
    flips = ~(rel >= 0.5)
    if flips.any():
        k = int(np.argmax(flips))
        raise BranchFlipError(f"overlap modulus {rel[k]:.3f} below 0.5 at t={grid[k + 1]}")
    phase = np.ones(n, dtype=complex)
    np.cumprod(ov.conj() / modulus, out=phase[1:])
    aligned = np.empty((n, 2), dtype=complex)
    np.multiply(s0, phase, out=aligned[:, 0])
    np.multiply(s1, phase, out=aligned[:, 1])
    return aligned, rhos


def aligned_eigenstate_trace(
    state_at: Callable[[np.ndarray], np.ndarray],
    rho_at: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
) -> np.ndarray:
    """Sample an eigenstate provider into a smooth, metric-normalized trace.

    The providers are called once each, on the whole grid: ``state_at``
    returns the (N, 2) states and ``rho_at`` the (N, 2, 2) metrics, or one
    state or metric for every sample, which is broadcast.  Each sample is
    scaled to unit metric norm <v|rho v> = 1 and its phase is rotated so the
    overlap with the previous sample is positive real.  A metric norm that
    is not positive and finite raises ValueError, and a relative overlap
    modulus below 0.5 (or NaN) means the provider jumped branches and raises
    BranchFlipError; both name the sample time.
    """
    return _aligned_trace(state_at, rho_at, grid)[0]


def phase_alpha(
    state_at: Callable[[np.ndarray], np.ndarray],
    p: HamiltonianParams,
    rho_at: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    steps: int,
) -> PhaseTrace:
    """Accumulated phase relating an invariant eigenstate to the dynamics.

    alpha_dot(t) = <v| rho (i d/dt - H/hbar) |v> / <v| rho |v> is evaluated
    on the aligned trace, whose states the alignment has scaled to metric
    norm <v| rho |v> = 1, so alpha_dot is the numerator alone.  It is
    evaluated with second-order finite differences (``np.gradient``, one-sided
    at the two ends) and integrated by the trapezoid rule, with alpha(t0) = 0.  The imaginary part of
    alpha_dot must stay negligible (it is reported); alpha itself is real.
    ``state_at`` and ``rho_at`` follow aligned_eigenstate_trace's contract:
    each is called once, with the grid np.linspace(t0, t1, steps + 1), and
    returns (N, 2) states and (N, 2, 2) metrics (or one of each, broadcast).
    The metric samples come from the alignment pass, H v from one evaluation
    of the drive on the grid, and alpha_dot from one array pass.  The trace
    carries the aligned states, so a reconstruction needs no second pass.
    t0 == t1 (a grid of one repeated time, with no derivative) raises
    ValueError before either provider is called, and so does a t0 or t1
    that is not finite.  A non-finite alpha_dot raises ArithmeticError that
    names its first sample time.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    # written so that NaN fails
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 != t1):
        raise ValueError(f"t0 and t1 must be finite and distinct, got {t0} and {t1}")
    grid = np.linspace(t0, t1, steps + 1)
    states, rhos = _aligned_trace(state_at, rho_at, grid)
    dt = grid[1] - grid[0]
    dstates = np.gradient(states, dt, axis=0, edge_order=2)

    # H v = -1/2 (omega v + tau K v) with K = lam sigma_z + i kappa sigma_x
    tau = p.drive.tau_array(grid)
    v0, v1 = states[:, 0], states[:, 1]
    kv0, kv1 = _k_action(p, v0, v1)
    # i dv/dt - H v / hbar, one component at a time
    ket0 = 1j * dstates[:, 0] + (0.5 / p.hbar) * (p.omega * v0 + tau * kv0)
    ket1 = 1j * dstates[:, 1] + (0.5 / p.hbar) * (p.omega * v1 + tau * kv1)
    alpha_dot = _metric_form((v0.conj(), v1.conj()), rhos, (ket0, ket1))
    bad = ~np.isfinite(alpha_dot)
    if bad.any():
        raise ArithmeticError(f"alpha_dot is not finite at t={grid[int(np.argmax(bad))]}")
    imag_residue = float(np.max(np.abs(alpha_dot.imag)))
    # written so that NaN fails
    if not imag_residue <= 1e-3 * max(1.0, float(np.max(np.abs(alpha_dot.real)))):
        raise ArithmeticError(f"alpha_dot has non-negligible imaginary part {imag_residue:.3g}")

    real = alpha_dot.real
    alpha = np.concatenate([[0.0], np.cumsum(0.5 * dt * (real[1:] + real[:-1]))])
    return PhaseTrace(grid=grid, alpha=alpha, imag_residue=imag_residue, states=states)
