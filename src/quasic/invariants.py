"""Lewis-Riesenfeld invariants for the two-level family.

An invariant I(t) solves i*hbar dI/dt = [H(t), I(t)].  Expanding both H and
I in Pauli matrices reduces this to a linear ODE for the coefficient
3-vector,

    d iota_vec / dt = (2/hbar) M(t) iota_vec,   M_ij = -eps_ijk h_k,

with the scalar component constant (``coefficient_matrix`` builds M).  The
same flow is conjugation, I(t) = U(t) I(t0) U(t)^-1, by the time-ordered
exponential U of -i H_0 / hbar, where H_0 is the traceless part of H; U lies
in SL(2,C).

Every H of the family is -1/2 (omega I + tau(t) K) with one fixed
K = lam sigma_z + i kappa sigma_x, so the traceless parts H_0(t) =
-tau(t) K / 2 commute at all times and the Magnus series of U stops after
its first term (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)):
U(t) = exp(i K int_t0^t tau / (2 hbar)).  The production integrator is the
midpoint exponential product, the second-order Magnus scheme.  Step k
samples H at t_k = t0 + (k + 1/2) dt and contributes the factor
U_k = exp(-i dt H_0(t_k) / hbar).  Conjugating by exp(X) is exponentiating
ad X (Ad exp = exp ad), and ad(-i dt H_0 / hbar) acts on the coefficient
vector as (2/hbar) dt M(t_k), so conjugation by U_k is exactly the 3x3 step
exp((2/hbar) M(t_k) dt).  As the factors commute, their product is one
exponential of dt sum_k tau(t_k) times the fixed generator: the scheme is
the midpoint quadrature of the drive integral, one closed-form SL(2,C)
exponential and one group conjugation, and time_ordered_propagate evaluates
it in that form.  The determinant of the realized invariant is conserved to
roundoff.

The command line's propagation_consistency check compares that result with
the closed form at t1.  Since the factors commute, it cannot test their time
order; what it cross-checks is the midpoint quadrature of tau together with
the exponential and the conjugation, against the closed-form entries, which
are built from the drive's exact antiderivative drive.integral in real
arithmetic.  The two agree to the quadrature's O(dt^2) error.

Four closed-form solutions serve as cross-validation oracles.  All four
have the form

    I(t) = [[-d, x + iy], [-x + iy, d]]

with real entries and d^2 - x^2 - y^2 = 1, so det I = -1 and the
eigenvalues are +-1.  The three fixed-regime forms are invariants under
the constant drive tau = 1 only and refuse any other drive
(RegimeMismatchError).  closed_form_invariant evaluates the entries in real
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

from .errors import RegimeMismatchError
from .linalg import IDENTITY, Rows, _derivative_defect, _expm1_pauli, _mat2_stack, _norm4
from .model import ConstantDrive, HamiltonianParams, PauliCoefficients, Regime, _hamiltonian_entries

_SQRT2 = math.sqrt(2.0)

#: Steps whose drive samples are evaluated and summed as one array.
PROPAGATION_BLOCK = 4096

#: Half the span of the central differences in the derivative residuals.
FD_STEP = 1e-5


class InvariantForm(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    SPONTANEOUSLY_BROKEN = "spontaneously-broken"
    EXCEPTIONAL_POINT = "exceptional-point"
    FULL_TD = "full-td"


def _require_regime(form: InvariantForm, p: HamiltonianParams, required: Regime) -> None:
    if p.regime is not required:
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
    # factored, xi keeps ~1 ulp relative accuracy even next to coalescence
    xi = (kap - lam) * (kap + lam)
    mm = m * m
    s = sinhc(0.25 * xi * mm)
    half = 0.5 * mm * s * s
    return -1.0 - kap * kap * half, kap * m * sinhc(xi * mm), kap * lam * half


def _real_entries(form: InvariantForm, p: HamiltonianParams, fn=math) -> Callable:
    """The evaluator t -> (d, x, y) of the closed-form invariant [[-d, x + iy], [-x + iy, d]] on p.

    The time-independent work is done here, once: the drive and regime
    tests (RegimeMismatchError for a fixed-regime form under any drive but
    the constant one, or outside its regime), |lam|, |kappa|, xi, the signs
    and the functions.  With fn = math the evaluator takes a float t, as a
    Python float (numpy scalar arithmetic costs several times more);
    _bound_entries keeps it on p.  With fn = np it takes a time array and
    returns arrays of its shape through the numpy ufuncs, whose cosh and
    sinh differ from math's by up to 1 ulp: an array entry is the float one
    to within a few ulp of |d| >= 1 (measured: 3, and 6 at a relative 1e-9
    from coalescence, where the terms exceed |d|).

    The drive-dependent form evaluates its entire closed form, which holds
    through the exceptional point, through the module's _drive_entries at
    every evaluation; on an array through the drive's integral_array and
    _sinhc_array, with the float path's bits for the constant and sine
    drives.

    The fixed-regime forms give their published parts (xi, delta, real,
    imag), and d = delta/xi, x = real/xi, y = imag/xi.  They solve
    i hbar dI/dt = [H, I] for the H of the constant drive only, so time
    enters as t / hbar.  The parts are published for lam, kappa > 0.  The
    family's symmetries carry them to the other signs: sigma_x H(lam, kappa)
    sigma_x = H(-lam, kappa), whose invariant -sigma_x I sigma_x has imag
    negated, and sigma_z H(lam, kappa) sigma_z = H(lam, -kappa), whose
    invariant sigma_z I sigma_z has real and imag negated.  So the parts are
    evaluated at (|lam|, |kappa|) and real and imag divided by xi with those
    signs.

    Outside classify_regime's exceptional-point band
    ||lam| - |kappa|| > 1e-12, so the PT and broken forms divide by
    xi > 1e-12, a normal double.  Within a relative 1e-8 or so of
    lam = +-kappa the entries grow like 1/xi and det I = -1 is left to
    cancellation between them, so the forms lose digits; the drive-dependent
    form is the one that holds there.
    """
    hbar = p.hbar
    scalar = fn is math
    if form is InvariantForm.FULL_TD:
        if scalar:
            integral = p.drive.integral
            # a float, not a numpy scalar, so that the drive's arithmetic runs on Python floats (same bits)
            return lambda t: _drive_entries(p, integral(float(t)) / hbar, _sinhc)
        integral = p.drive.integral_array
        return lambda t: _drive_entries(p, integral(t) / hbar, _sinhc_array)
    if not isinstance(p.drive, ConstantDrive):
        raise RegimeMismatchError(f"{form.value} form requires the constant drive")
    _require_regime(form, p, Regime(form.value))
    as_float = float if scalar else (lambda t: np.asarray(t, dtype=float))
    lam, kap = abs(p.lam), abs(p.kappa)
    if form is InvariantForm.EXCEPTIONAL_POINT:
        xi = 1.0
    elif form is InvariantForm.PT_SYMMETRIC:
        xi = math.sqrt(lam * lam - kap * kap)
    else:
        xi = math.sqrt(kap * kap - lam * lam)
    # x and y divided by xi with their signs: -(a / xi) is a / -xi, to the bit
    x_div = -xi if p.kappa < 0 else xi
    y_div = -x_div if p.lam < 0 else x_div
    if form is InvariantForm.PT_SYMMETRIC:
        sin, cos = fn.sin, fn.cos
        d0, y0 = -_SQRT2 * lam, _SQRT2 * kap

        def entries(t):
            phase = xi * (as_float(t) / hbar)
            try:
                sn, cs = sin(phase), cos(phase)
            except ValueError:  # math.sin of an infinite phase: NaN, as np.sin gives
                sn = cs = math.nan
            return (d0 - kap * sn) / xi, xi * cs / x_div, (y0 + lam * sn) / y_div

    elif form is InvariantForm.SPONTANEOUSLY_BROKEN:
        cosh, sinh = fn.cosh, fn.sinh
        d1, x1, y1 = _SQRT2 * kap, _SQRT2 * xi, _SQRT2 * lam

        def entries(t):
            phase = xi * (as_float(t) / hbar)
            try:
                ch, sh = cosh(phase), sinh(phase)
            except OverflowError:  # math.cosh and math.sinh of a huge phase: inf, as np.cosh gives
                ch, sh = math.inf, math.copysign(math.inf, phase)
            return (lam - d1 * ch) / xi, x1 * sh / x_div, (y1 * ch - kap) / y_div

    else:
        kk, x1 = kap * kap, _SQRT2 * kap

        # xi = 1: d is delta itself
        def entries(t):
            s = as_float(t) / hbar
            ss = s * s
            return -kk * ss / _SQRT2 - kap * s - _SQRT2, (1.0 + x1 * s) / x_div, (kk * ss / _SQRT2 + kap * s) / y_div

    return entries


def _bound_entries(form: InvariantForm, p: HamiltonianParams) -> Callable:
    """_real_entries(form, p) for a float t, bound on first use and kept on p, like p.regime.

    p keeps the form it last bound, so a form that is already bound costs one
    identity test; a RegimeMismatchError is raised again on every call.
    """
    bound_form, entries = p._bound
    if bound_form is not form:
        entries = _real_entries(form, p)
        object.__setattr__(p, "_bound", (form, entries))
    return entries


def closed_form_invariant(form: InvariantForm, p: HamiltonianParams, t: float | np.ndarray) -> np.ndarray:
    """Matrix [[-d, x + iy], [-x + iy, d]] of the selected closed-form invariant.

    t is a float, giving a 2x2 matrix, or a time array of shape (N,), giving
    the (N, 2, 2) stack of the matrices at its entries.  The three
    fixed-regime forms require the constant drive and a parameter point
    inside their regime (RegimeMismatchError otherwise); the drive-dependent
    form FULL_TD accepts any parameters and drive.
    """
    if isinstance(t, np.ndarray):
        d, x, y = _real_entries(form, p, np)(t)
        iy = 1j * y
        return _mat2_stack(-d, x + iy, -x + iy, d)
    d, x, y = _bound_entries(form, p)(t)
    iy = 1j * y
    return _mat2_stack(-d, x + iy, -x + iy, d)


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


def time_ordered_propagate(
    p: HamiltonianParams,
    init: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> np.ndarray:
    """Propagate the 2x2 invariant I(t0) to I(t1) by the midpoint exponential product.

    Step k uses the midpoint t_k = t0 + (k + 1/2) dt and the SL(2,C) factor
    U_k = exp(-i dt H_0(t_k) / hbar), where H_0 is the traceless part of H;
    conjugation by U_k is the coefficient step exp((2/hbar) M(t_k) dt) of
    the module docstring, so this is the second-order Magnus scheme.  With
    -i dt H_0(t) / hbar = tau(t) (a1 sigma_x + a3 sigma_z) for fixed a1, a3,
    the factors commute, and their product P = U_{N-1} ... U_0 is the one
    exponential exp(S (a1 sigma_x + a3 sigma_z)) with S = sum_k tau(t_k).
    S is summed PROPAGATION_BLOCK midpoints at a time (np.sum sums a block
    pairwise, math.fsum adds the block sums exactly), so peak memory does not
    grow with the step count, and P comes from one Cayley-Hamilton
    exponential, with no per-step rounding to accumulate.  ``steps`` sets
    the quadrature and so the O(dt^2) error; it costs one drive sample per
    step and nothing more.

    The result is I(t1) = P I(t0) P^-1 with P^-1 = adj(P), exact because
    det P = 1.  Dividing by the computed det(P) would lose accuracy: in the
    broken regime the entries of P grow hyperbolically and the cancellation
    in det(P) costs more digits than P itself.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    dt = (t1 - t0) / steps
    tau_sum = math.fsum(
        np.sum(p.drive.tau_array(t0 + (np.arange(start, min(start + PROPAGATION_BLOCK, steps)) + 0.5) * dt))
        for start in range(0, steps, PROPAGATION_BLOCK)
    )
    # -i dt H_0(t) / hbar = tau(t) (a1 sigma_x + a3 sigma_z)
    a1 = -0.5 * dt * p.kappa / p.hbar
    a3 = 0.5j * dt * p.lam / p.hbar
    prod = IDENTITY + _expm1_pauli(a1 * tau_sum, 0.0, a3 * tau_sum)
    adjugate = np.array([[prod[1, 1], -prod[0, 1]], [-prod[1, 0], prod[0, 0]]])
    return prod @ np.asarray(init, dtype=complex) @ adjugate


def lr_residual(
    invariant_at: Callable[[float], Rows],
    p: HamiltonianParams,
    t: float,
) -> float:
    """Central-difference defect of the invariant equation at time t.

    || i*hbar (I(t+h) - I(t-h)) / 2h  -  [H(t), I(t)] ||, with h = FD_STEP

    ``invariant_at`` returns the 2x2 matrix as its two rows of Python
    scalars, ((a00, a01), (a10, a11)): the ``ndarray.tolist()`` form, or
    the ``rows`` of a closed-form metric.  The defect is formed from them by
    ``linalg._derivative_defect``, with H's entries from the drive value.
    """
    return _conservation_residual(invariant_at(t + FD_STEP), invariant_at(t - FD_STEP), invariant_at(t), p, t)


def _conservation_residual(plus: Rows, minus: Rows, mid: Rows, p: HamiltonianParams, t: float) -> float:
    """``lr_residual`` of the rows at t + FD_STEP, t - FD_STEP and t; the quasi residual shares it."""
    h00, h01, h11 = _hamiltonian_entries(p, p.drive.tau(t))
    c = 1j * (0.5 * p.hbar / FD_STEP)
    return _norm4(*_derivative_defect(plus, minus, mid, ((h00, h01), (h01, h11)), c))
