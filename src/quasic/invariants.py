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
share the template

    I(t) = (1/xi) [[-delta, gamma_plus], [gamma_minus, delta]]

whose determinant is -1 because delta^2 + gamma_plus*gamma_minus = xi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DriveRangeError,
    ExceptionalPointSingularError,
    NotTemplateError,
    RegimeMismatchError,
)
from .linalg import DEFAULT_TOL, IDENTITY, _expm1_pauli, eigen_2x2, frobenius_norm
from .model import (
    HamiltonianParams,
    PauliCoefficients,
    Regime,
    classify_regime,
    hamiltonian_at,
    pauli_compose,
    pauli_decompose,
)

_SQRT2 = math.sqrt(2.0)

#: Steps whose factors are built and multiplied as one array (see
#: time_ordered_propagate for the memory measurement behind the size).
PROPAGATION_BLOCK = 4096


class InvariantForm(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    SPONTANEOUSLY_BROKEN = "spontaneously-broken"
    EXCEPTIONAL_POINT = "exceptional-point"
    FULL_TD = "full-td"


_STATIC_FORMS = {
    InvariantForm.PT_SYMMETRIC: Regime.PT_SYMMETRIC,
    InvariantForm.SPONTANEOUSLY_BROKEN: Regime.SPONTANEOUSLY_BROKEN,
    InvariantForm.EXCEPTIONAL_POINT: Regime.EXCEPTIONAL_POINT,
}


@dataclass(frozen=True)
class TemplateCoefficients:
    """Entries of the traceless invariant template (possibly complex)."""

    xi: complex
    delta: complex
    gamma_plus: complex
    gamma_minus: complex

    def matrix(self) -> np.ndarray:
        return (
            np.array(
                [[-self.delta, self.gamma_plus], [self.gamma_minus, self.delta]],
                dtype=complex,
            )
            / self.xi
        )

    def signature_identity_residual(self) -> float:
        """|delta^2 + gamma_plus*gamma_minus - xi^2|; zero forces eigenvalues +-1."""
        return abs(self.delta**2 + self.gamma_plus * self.gamma_minus - self.xi**2)


def scaled_drive_integral(p: HamiltonianParams, t: float) -> complex:
    """sqrt(kappa^2 - lam^2) times the anchored drive integral.

    This is the hyperbolic argument of the drive-dependent closed forms; it
    is imaginary in the real-spectrum regime, real in the broken regime, and
    the anchored integral makes it vanish at t = t_ref.
    """
    xi = complex(p.kappa**2 - p.lam**2)
    return complex(np.sqrt(xi) * p.drive.integral(t))


def invariant_coefficients(
    form: InvariantForm, p: HamiltonianParams, t: float, tol: float = DEFAULT_TOL
) -> TemplateCoefficients:
    """Template coefficients of the selected closed-form invariant at time t.

    The three drive-independent forms assume tau == 1 and a parameter point
    inside their regime; the drive-dependent form accepts any non-coalescent
    parameters and complex intermediate values.
    """
    lam, kap = p.lam, p.kappa
    if form in _STATIC_FORMS:
        required = _STATIC_FORMS[form]
        regime = classify_regime(p)
        if regime is not required:
            raise RegimeMismatchError(f"{form.value} form requires the {required.value} regime")

    if form is InvariantForm.PT_SYMMETRIC:
        xi = math.sqrt(lam**2 - kap**2)
        if xi <= tol:
            raise ExceptionalPointSingularError("xi below tolerance")
        delta = -_SQRT2 * lam - kap * math.sin(xi * t)
        imag = _SQRT2 * kap + lam * math.sin(xi * t)
        real = xi * math.cos(xi * t)
        return TemplateCoefficients(xi, delta, real + 1j * imag, -real + 1j * imag)

    if form is InvariantForm.SPONTANEOUSLY_BROKEN:
        xi = math.sqrt(kap**2 - lam**2)
        if xi <= tol:
            raise ExceptionalPointSingularError("xi below tolerance")
        delta = lam - _SQRT2 * kap * math.cosh(xi * t)
        imag = _SQRT2 * lam * math.cosh(xi * t) - kap
        real = _SQRT2 * xi * math.sinh(xi * t)
        return TemplateCoefficients(xi, delta, real + 1j * imag, -real + 1j * imag)

    if form is InvariantForm.EXCEPTIONAL_POINT:
        delta = -(kap**2) * t**2 / _SQRT2 - kap * t - _SQRT2
        imag = kap**2 * t**2 / _SQRT2 + kap * t
        real = 1.0 + _SQRT2 * kap * t
        return TemplateCoefficients(1.0, delta, real + 1j * imag, -real + 1j * imag)

    # drive-dependent form: xi = kappa^2 - lam^2, hyperbolic in the scaled
    # drive integral, regime-universal through complex intermediates
    xi = complex(kap**2 - lam**2)
    if abs(xi) <= tol * max(1.0, kap**2, lam**2):
        raise ExceptionalPointSingularError(
            "drive-dependent form is singular at coalescence; use the smooth-limit metric"
        )
    mu = scaled_drive_integral(p, t)
    cosh = np.cosh(mu)
    delta = lam**2 - kap**2 * cosh
    real = kap * np.sqrt(xi) * np.sinh(mu)
    imag = kap * lam * (cosh - 1.0)
    return TemplateCoefficients(xi, delta, real + 1j * imag, -real + 1j * imag)


def closed_form_invariant(
    form: InvariantForm, p: HamiltonianParams, t: float, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Matrix of the selected closed-form invariant.

    The assembled entry combinations (-delta/xi real, off-diagonal split
    into a shared real and imaginary part) are analytically real; their
    numerical imaginary residue is checked against 1e-10 and then removed
    rather than silently dropped.
    """
    c = invariant_coefficients(form, p, t, tol=tol)
    d = complex(c.delta / c.xi)
    x = complex(0.5 * (c.gamma_plus - c.gamma_minus) / c.xi)
    y = complex(0.5 * (c.gamma_plus + c.gamma_minus) / (1j * c.xi))
    scale = max(1.0, abs(d), abs(x), abs(y))
    residue = max(abs(d.imag), abs(x.imag), abs(y.imag))
    if residue > 1e-10 * scale:
        raise ArithmeticError(f"analytically real entries lost realness (residue {residue:.3g})")
    return np.array(
        [[-d.real, x.real + 1j * y.real], [-x.real + 1j * y.real, d.real]], dtype=complex
    )


@dataclass(frozen=True)
class InvariantState:
    """Pauli coefficients (scalar part, 3-vector) of an invariant at a time."""

    iota0: complex
    iota: np.ndarray
    time: float

    def matrix(self) -> np.ndarray:
        v = np.asarray(self.iota, dtype=complex)
        return pauli_compose(PauliCoefficients(self.iota0, v[0], v[1], v[2]))


def preset_initial_state(form: InvariantForm, p: HamiltonianParams) -> InvariantState:
    """Initial coefficient vector whose propagation reproduces the closed form.

    The drive-independent forms are anchored at t = 0; the drive-dependent
    form starts where the anchored drive integral vanishes (t = t_ref), at
    which point the invariant is exactly sigma_z.
    """
    lam, kap = p.lam, p.kappa
    if form is InvariantForm.PT_SYMMETRIC:
        xi = math.sqrt(lam**2 - kap**2)
        vec = np.array([1j * _SQRT2 * kap / xi, 1j, _SQRT2 * lam / xi], dtype=complex)
        return InvariantState(0.0, vec, 0.0)
    if form is InvariantForm.SPONTANEOUSLY_BROKEN:
        xi = math.sqrt(kap**2 - lam**2)
        vec = np.array(
            [1j * (_SQRT2 * lam - kap) / xi, 0.0, (_SQRT2 * kap - lam) / xi], dtype=complex
        )
        return InvariantState(0.0, vec, 0.0)
    if form is InvariantForm.EXCEPTIONAL_POINT:
        return InvariantState(0.0, np.array([0.0, 1j, _SQRT2], dtype=complex), 0.0)
    return InvariantState(0.0, np.array([0.0, 0.0, 1.0], dtype=complex), p.drive.t_ref)


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
    batched matmul and carries an odd last factor over unchanged, so time
    order is kept and a stack of n factors needs ceil(log2 n) passes.
    """
    while len(deltas) > 1:
        early, late = deltas[0:-1:2], deltas[1::2]
        paired = early + late + late @ early
        if len(deltas) % 2:
            paired = np.concatenate((paired, deltas[-1:]))
        deltas = paired
    return deltas[0]


def time_ordered_propagate(
    p: HamiltonianParams,
    init: InvariantState,
    t0: float,
    t1: float,
    steps: int,
) -> InvariantState:
    """Propagate invariant coefficients from t0 to t1 by a midpoint exponential product.

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
    memory by ~4 MB (over 10%) and saved little time.  The scalar
    coefficient is constant and copied.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
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
    v = np.asarray(init.iota, dtype=complex)
    traceless = pauli_compose(PauliCoefficients(0.0, v[0], v[1], v[2]))
    adjugate = np.array([[prod[1, 1], -prod[0, 1]], [-prod[1, 0], prod[0, 0]]])
    out = pauli_decompose(prod @ traceless @ adjugate)
    return InvariantState(iota0=init.iota0, iota=np.array([out.c1, out.c2, out.c3]), time=t1)


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


def signature_normalize(i: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rescale a matrix with eigenvalues {+a, -a} so they become {+1, -1}.

    Idempotent on already-normalized input; raises NotTemplateError when the
    spectrum is not an opposite pair.
    """
    i = np.asarray(i, dtype=complex)
    dec = eigen_2x2(i, tol=tol)
    scale = max(1.0, frobenius_norm(i))
    if dec.defective:
        raise NotTemplateError("defective matrix")
    a, b = dec.first.value, dec.second.value
    if abs(a + b) > tol * scale or abs(a) <= tol * scale:
        raise NotTemplateError(f"eigenvalues {a}, {b} are not an opposite pair")
    return i / a
