"""Lewis-Riesenfeld invariants for the two-level family.

An invariant I(t) solves i*hbar dI/dt = [H(t), I(t)].  Expanding both H and
I in Pauli matrices reduces this to a linear ODE for the coefficient
3-vector,

    d iota_vec / dt = (2/hbar) M(t) iota_vec,   M_ij = -eps_ijk h_k,

with the scalar component constant (``coefficient_matrix`` builds M).  The
same flow is conjugation, I(t) = U(t) I(t0) U(t)^-1, by the time-ordered
exponential U of -i H_0 / hbar, where H_0 is the traceless part of H; U lies
in SL(2,C).

The production integrator is the midpoint exponential product, the
second-order Magnus scheme (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)).  Step k samples H at t_k = t0 + (k + 1/2) dt and
contributes the closed-form 2x2 factor U_k = exp(-i dt H_0(t_k) / hbar).
Conjugating by exp(X) is exponentiating ad X (Ad exp = exp ad), and
ad(-i dt H_0 / hbar) acts on the coefficient vector as (2/hbar) dt M(t_k),
so conjugation by U_k is exactly the 3x3 step exp((2/hbar) M(t_k) dt): the
same discrete scheme as a product of coefficient-space exponentials, exactly
group-preserving (the determinant of the realized invariant is conserved to
roundoff).  Time is an array axis: the factors of PROPAGATION_BLOCK steps are
built in one pass and multiplied by pairwise batched products, the reduction
half of a parallel prefix (Blelloch, CMU-CS-90-190, 1990).  Factors are
carried as their deviation from the identity, so a step's small generator
keeps its full relative precision.  Fixed-size blocks bound the working
arrays, so peak memory does not grow with the step count, while each
block's dozen batched products cost far less than one Python iteration per
step.

Four closed-form solutions serve as cross-validation oracles.  All four
have the form

    I(t) = [[-d, x + iy], [-x + iy, d]]

with real entries and d^2 - x^2 - y^2 = 1, so det I = -1 and the
eigenvalues are +-1.  closed_form_invariant evaluates the entries in real
arithmetic; for the drive-dependent form they are entire in
xi = kappa^2 - lam^2 and hold through the exceptional point.  It takes a
float t or a time array, for which it returns the (N, 2, 2) stack in one
array pass.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DriveRangeError, RegimeMismatchError
from .linalg import IDENTITY, _expm1_pauli, _mat2, _mat2_stack, _matmul2, frobenius_norm
from .model import HamiltonianParams, PauliCoefficients, Regime, classify_regime, hamiltonian_at

_SQRT2 = math.sqrt(2.0)

#: Steps whose factors are built and multiplied as one array (see
#: time_ordered_propagate for the memory measurement behind the size).
PROPAGATION_BLOCK = 4096


class InvariantForm(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    SPONTANEOUSLY_BROKEN = "spontaneously-broken"
    EXCEPTIONAL_POINT = "exceptional-point"
    FULL_TD = "full-td"


def scaled_drive_integral(p: HamiltonianParams, t: float) -> complex:
    """sqrt(kappa^2 - lam^2) times the anchored drive integral over hbar.

    This is the hyperbolic argument of the drive-dependent closed forms; it
    is imaginary in the real-spectrum regime, real in the broken regime, and
    the anchored integral makes it vanish at t = t_ref.  The invariant
    equation i hbar dI/dt = [H, I] makes the integral enter divided by hbar.
    """
    return complex(np.sqrt(complex(_xi(p))) * (p.drive.integral(t) / p.hbar))


def _require_regime(form: InvariantForm, p: HamiltonianParams, required: Regime) -> None:
    if classify_regime(p) is not required:
        raise RegimeMismatchError(f"{form.value} form requires the {required.value} regime")


def _sinhc(q: float) -> float:
    """S(q) = sinh(sqrt q) / sqrt q, continued as sin(sqrt -q) / sqrt -q for q < 0; S(0) = 1.

    S is entire in q, and neither branch cancels.  sinh and sin are numpy
    ufuncs: they overflow to inf with a RuntimeWarning where math.sinh
    raises OverflowError, so an overflowing sample reaches the
    non-finite-sample report instead of aborting the run.  A NaN q gives 1,
    as neither branch is taken.
    """
    if q > 0.0:
        r = math.sqrt(q)
        return float(np.sinh(r)) / r
    if q < 0.0:
        r = math.sqrt(-q)
        return float(np.sin(r)) / r
    return 1.0


def _sinhc_array(q: np.ndarray) -> np.ndarray:
    """_sinhc at every entry of an array, with its bits.

    np.sqrt and math.sqrt both round correctly, and an element of an array
    gets the same bits from np.sinh and np.sin as a numpy scalar does.
    Each branch is evaluated on its own entries only, so the unused branch
    cannot overflow.
    """
    out = np.ones_like(q)
    pos, neg = q > 0.0, q < 0.0
    r = np.sqrt(q[pos])
    out[pos] = np.sinh(r) / r
    r = np.sqrt(-q[neg])
    out[neg] = np.sin(r) / r
    return out


def _xi(p: HamiltonianParams) -> float:
    """kappa^2 - lam^2 as (kappa - lam)(kappa + lam), to ~1 ulp relative even next to coalescence."""
    return (p.kappa - p.lam) * (p.kappa + p.lam)


def _drive_entries(p: HamiltonianParams, m, sinhc) -> tuple:
    """(d, x, y) of the drive-dependent invariant, given m, the anchored drive integral over hbar.

    m is a float or an array of them, and sinhc the matching _sinhc or
    _sinhc_array.  With xi = kappa^2 - lam^2, mu = sqrt(xi) m and
    cosh(mu) - 1 = 2 sinh(mu/2)^2, the published entries divided by xi are

        d = -1 - kappa^2 (m^2/2) S(xi m^2/4)^2
        x = kappa m S(xi m^2)
        y = kappa lam (m^2/2) S(xi m^2/4)^2

    in real arithmetic, with no division by xi: at xi = 0 they are the
    coalescence limit, and next to it they keep full precision.  Products
    are written out, because a float ** 2 raises OverflowError where a
    product gives inf.
    """
    kap, lam = p.kappa, p.lam
    # _xi(p), written out: a call costs more than the product on the per-sample path
    xi = (kap - lam) * (kap + lam)
    mm = m * m
    s = sinhc(0.25 * xi * mm)
    half = 0.5 * mm * s * s
    return -1.0 - kap * kap * half, kap * m * sinhc(xi * mm), kap * lam * half


def _real_entries(form: InvariantForm, p: HamiltonianParams, t: float | np.ndarray, stack: bool = False) -> tuple:
    """(d, x, y) of the closed-form invariant [[-d, x + iy], [-x + iy, d]] at time t.

    t is a float, or with ``stack`` a time array, for which d, x and y are
    arrays of its shape.  The public callers test isinstance(t, np.ndarray)
    once and pass the result: on the per-sample path of the command line
    every further test costs time.  Real float arithmetic throughout.  The
    drive-dependent form evaluates its entire closed form, which holds
    through the exceptional point; on an array it is the same formula
    through the drive's integral_array and _sinhc_array, with the scalar
    path's bits for the constant and sine drives.

    The fixed-regime forms give their published parts (xi, delta, real,
    imag), and d = delta/xi, x = real/xi, y = imag/xi.  They test their
    regime by identity once per call, for a float or a whole array: a lookup in an enum-keyed dict runs
    Enum.__hash__ in Python, and this is on the path of every sample.  They
    solve i hbar dI/dt = [H, I] for a constant H, so time enters as t / hbar,
    taken as a Python float: callers pass numpy scalars from time grids,
    whose arithmetic costs several times more.  A float goes through
    math.sin and its kin, an array through the numpy ufuncs, whose cosh and
    sinh differ from math's by up to 1 ulp.  The sums carry that ulp of
    their largest term, so an array entry is the scalar one to within a few
    ulp of |d| >= 1 (measured: 3, and 6 at a relative 1e-9 from
    coalescence, where the terms exceed |d|).

    The parts are published for lam, kappa > 0.  The family's symmetries
    carry them to the other signs: sigma_x H(lam, kappa) sigma_x
    = H(-lam, kappa), whose invariant -sigma_x I sigma_x has imag negated,
    and sigma_z H(lam, kappa) sigma_z = H(lam, -kappa), whose invariant
    sigma_z I sigma_z has real and imag negated.  So the parts are evaluated
    at (|lam|, |kappa|) and the signs flipped before the division.

    Outside classify_regime's exceptional-point band
    ||lam| - |kappa|| > 1e-12, so the PT and broken forms divide by
    xi > 1e-12, a normal double.  Within a relative 1e-8 or so of
    lam = +-kappa the entries grow like 1/xi and det I = -1 is left to
    cancellation between them, so the forms lose digits; the drive-dependent
    form is the one that holds there.
    """
    if form is InvariantForm.FULL_TD:
        if stack:
            return _drive_entries(p, p.drive.integral_array(t) / p.hbar, _sinhc_array)
        # a float, not a numpy scalar, so that the drive's arithmetic runs on Python floats (same bits)
        return _drive_entries(p, p.drive.integral(float(t)) / p.hbar, _sinhc)
    lam, kap = abs(p.lam), abs(p.kappa)
    if stack:
        fn, s = np, np.asarray(t, dtype=float) / p.hbar
    else:
        fn, s = math, float(t) / p.hbar
    if form is InvariantForm.PT_SYMMETRIC:
        _require_regime(form, p, Regime.PT_SYMMETRIC)
        xi = math.sqrt(lam**2 - kap**2)
        sin = fn.sin(xi * s)
        delta = -_SQRT2 * lam - kap * sin
        real = xi * fn.cos(xi * s)
        imag = _SQRT2 * kap + lam * sin
    elif form is InvariantForm.SPONTANEOUSLY_BROKEN:
        _require_regime(form, p, Regime.SPONTANEOUSLY_BROKEN)
        xi = math.sqrt(kap**2 - lam**2)
        cosh = fn.cosh(xi * s)
        delta = lam - _SQRT2 * kap * cosh
        real = _SQRT2 * xi * fn.sinh(xi * s)
        imag = _SQRT2 * lam * cosh - kap
    else:
        _require_regime(form, p, Regime.EXCEPTIONAL_POINT)
        xi = 1.0
        delta = -(kap**2) * s**2 / _SQRT2 - kap * s - _SQRT2
        real = 1.0 + _SQRT2 * kap * s
        imag = kap**2 * s**2 / _SQRT2 + kap * s
    if p.kappa < 0:
        real, imag = -real, -imag
    if p.lam < 0:
        imag = -imag
    return delta / xi, real / xi, imag / xi


def closed_form_invariant(form: InvariantForm, p: HamiltonianParams, t: float | np.ndarray) -> np.ndarray:
    """Matrix [[-d, x + iy], [-x + iy, d]] of the selected closed-form invariant.

    t is a float, giving a 2x2 matrix, or a time array of shape (N,), giving
    the (N, 2, 2) stack of the matrices at its entries.  The three
    drive-independent forms assume tau == 1 and a parameter point inside
    their regime (RegimeMismatchError otherwise); the drive-dependent form
    FULL_TD accepts any parameters and drive.
    """
    if isinstance(t, np.ndarray):
        d, x, y = _real_entries(form, p, t, stack=True)
        iy = 1j * y
        return _mat2_stack(-d, x + iy, -x + iy, d)
    d, x, y = _real_entries(form, p, t)
    iy = 1j * y
    return _mat2(-d, x + iy, -x + iy, d)


def coefficient_matrix(h: PauliCoefficients) -> np.ndarray:
    """The antisymmetric generator M_ij = -eps_ijk h_k of the coefficient ODE."""
    return np.array(
        [
            [0.0, -h.c3, h.c2],
            [h.c3, 0.0, -h.c1],
            [-h.c2, h.c1, 0.0],
        ],
        dtype=complex,
    )


def _ordered_product(deltas: np.ndarray) -> np.ndarray:
    """P - I for P = (I + deltas[n-1]) ... (I + deltas[0]), by pairwise batched products.

    Factors are carried as their deviation from the identity, using
    (I + b)(I + a) = I + (a + b + b a), so that rounding is relative to the
    deviation and not to 1.  Each pass combines neighbours (2j+1, 2j) in one
    batched product and carries an odd last factor over unchanged, so time
    order is kept and a stack of n factors needs ceil(log2 n) passes.
    """
    while len(deltas) > 1:
        early, late = deltas[0:-1:2], deltas[1::2]
        paired = early + late + _matmul2(late, early)
        if len(deltas) % 2:
            paired = np.concatenate((paired, deltas[-1:]))
        deltas = paired
    return deltas[0]


def time_ordered_propagate(
    p: HamiltonianParams,
    init: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> np.ndarray:
    """Propagate the 2x2 invariant I(t0) to I(t1) by a midpoint exponential product.

    Step k uses the midpoint t_k = t0 + (k + 1/2) dt and the SL(2,C) factor
    U_k = exp(-i dt H_0(t_k) / hbar), where H_0 is the traceless part of H;
    conjugation by U_k is the coefficient step exp((2/hbar) M(t_k) dt) of
    the module docstring, so this is the same second-order scheme.

    For each block of PROPAGATION_BLOCK steps the drive is evaluated once on
    the midpoint array, the deviations U_k - I come from one array pass of
    the Cayley-Hamilton closed form, and pairwise batched products reduce
    them; the block products are reduced the same way into
    P = U_{N-1} ... U_0.  Multiplying the rounded factors U_k instead would
    round each step relative to 1 rather than to its generator: on 4000
    steps of a constant broken-regime H, where the scheme is exact, that
    leaves up to ~1e-12 of error against ~1e-15 for the deviations.  The result is
    I(t1) = P I(t0) P^-1 with P^-1 = adj(P), exact because det U_k = 1.
    Dividing by the computed det(P) would lose accuracy: in the broken
    regime the entries of P grow hyperbolically and the cancellation in
    det(P) costs more digits than the product itself.

    Blocks of 4096 steps keep the working arrays to a few hundred kB.
    Building all 20,000 factors of a typical sweep at once raised peak
    memory by ~4 MB (over 10%) and saved little time.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    if not p.drive.covers(min(t0, t1), max(t0, t1)):
        raise DriveRangeError(f"drive does not cover [{t0}, {t1}]")
    dt = (t1 - t0) / steps
    # -i dt H_0(t) / hbar = tau(t) (a1 sigma_x + a3 sigma_z)
    a1 = -0.5 * dt * p.kappa / p.hbar
    a3 = 0.5j * dt * p.lam / p.hbar
    blocks = []
    for start in range(0, steps, PROPAGATION_BLOCK):
        k = np.arange(start, min(start + PROPAGATION_BLOCK, steps))
        tau = p.drive.tau_array(t0 + (k + 0.5) * dt)
        blocks.append(_ordered_product(_expm1_pauli(a1 * tau, 0.0, a3 * tau)))
    prod = IDENTITY + _ordered_product(np.array(blocks))
    adjugate = np.array([[prod[1, 1], -prod[0, 1]], [-prod[1, 0], prod[0, 0]]])
    return prod @ np.asarray(init, dtype=complex) @ adjugate


def lr_residual(
    invariant_at: Callable[[float], np.ndarray],
    p: HamiltonianParams,
    t: float,
    fd_step: float = 1e-5,
) -> float:
    """Central-difference defect of the invariant equation at time t.

    || i*hbar (I(t+h) - I(t-h)) / 2h  -  [H(t), I(t)] ||
    """
    di = (invariant_at(t + fd_step) - invariant_at(t - fd_step)) / (2.0 * fd_step)
    h = hamiltonian_at(p, t)
    m = invariant_at(t)
    return frobenius_norm(1j * p.hbar * di - (h @ m - m @ h))

