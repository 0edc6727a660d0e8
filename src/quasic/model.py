"""Two-level model family, drives and regime classification.

The Hamiltonian family is

    H(t) = -1/2 (omega*I + lam*tau(t)*sigma_z + i*kappa*tau(t)*sigma_x)

with real omega, lam, kappa and a real scalar drive tau(t) that carries
only its shape: a drive scaled by a is the pair (a lam, a kappa).  The
constant drive tau == 1 recovers the time-independent member.  Every H in the family commutes with
the antilinear parity-conjugation symmetry sigma_z * K, which
``coperator.pt_commutation_residual`` checks in its linear form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import _mat2_stack

#: Relative band around |lam| = |kappa| that classify_regime calls the exceptional point.
REGIME_TOL = 1e-12


class InvariantForm(Enum):
    """The closed-form invariants: the fixed form of each regime (``classify_regime``), and FULL_TD for any drive."""

    PT_SYMMETRIC = "pt-symmetric"
    SPONTANEOUSLY_BROKEN = "spontaneously-broken"
    EXCEPTIONAL_POINT = "exceptional-point"
    FULL_TD = "full-td"


def _require_finite(obj, *names: str) -> None:
    """ValueError naming the first of obj's fields that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, kw_only=True)
class ConstantDrive:
    """tau(t) = 1; antiderivative anchored at t_ref, which must be finite."""

    t_ref: float = 0.0

    def __post_init__(self):
        _require_finite(self, "t_ref")

    def tau(self, t: float) -> float:
        return 1.0

    def tau_array(self, t: np.ndarray) -> np.ndarray:
        """tau at every entry of a time array."""
        return np.ones(np.shape(t))

    def integral(self, t: float) -> float:
        """Integral of tau from t_ref to t."""
        return t - self.t_ref

    def integral_array(self, t: np.ndarray) -> np.ndarray:
        """integral at every entry of a time array, with the same bits."""
        return np.asarray(t, dtype=float) - self.t_ref


@dataclass(frozen=True, kw_only=True)
class SineDrive:
    """tau(t) = sin(frequency * t).

    t_ref defaults to pi/2 at every frequency (the command line's default
    is pi/2 / frequency): for the unit frequency the anchored antiderivative
    then vanishes at t = pi/2 + n*pi, where the time-dependent metric
    collapses to the identity.  A zero or non-finite frequency and a
    non-finite t_ref raise ValueError.
    """

    frequency: float = 1.0
    t_ref: float = math.pi / 2
    #: cos(frequency * t_ref), the anchor term of the integral, computed once
    _cos_ref: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite(self, "frequency", "t_ref")
        if self.frequency == 0:
            raise ValueError("frequency must be non-zero: the integral divides by it")
        try:
            cos_ref = math.cos(self.frequency * self.t_ref)
        except ValueError:  # a finite product that overflows to an infinite phase: NaN, as np.cos gives
            cos_ref = math.nan
        object.__setattr__(self, "_cos_ref", cos_ref)

    def tau(self, t: float) -> float:
        try:
            return math.sin(self.frequency * t)
        except ValueError:  # math.sin of an infinite argument: NaN, as np.sin gives
            return math.nan

    def tau_array(self, t: np.ndarray) -> np.ndarray:
        """tau at every entry of a time array."""
        return np.sin(self.frequency * np.asarray(t, dtype=float))

    def integral(self, t: float) -> float:
        w = self.frequency
        try:
            return (self._cos_ref - math.cos(w * t)) / w
        except ValueError:  # math.cos of an infinite argument: NaN, as np.cos gives
            return math.nan

    def integral_array(self, t: np.ndarray) -> np.ndarray:
        """integral at every entry of a time array; np.cos gives math.cos's bits."""
        w = self.frequency
        return (self._cos_ref - np.cos(w * np.asarray(t, dtype=float))) / w


Drive = ConstantDrive | SineDrive


@dataclass(frozen=True)
class HamiltonianParams:
    omega: float
    lam: float
    kappa: float
    hbar: float = 1.0
    drive: Drive = ConstantDrive()
    #: classify_regime of lam and kappa, fixed for the parameter set and computed once
    regime: InvariantForm = field(init=False, repr=False, compare=False)
    #: (form, t -> (d, x, y)): the closed form last bound to this set by invariants._bound_entries
    _bound: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")
        _require_finite(self, "omega", "lam", "kappa", "hbar")
        object.__setattr__(self, "regime", classify_regime(self))

    def __getstate__(self):
        # the bound evaluator is a closure, which does not pickle: a copy binds its own
        return {**self.__dict__, "_bound": (None, None)}


def classify_regime(p: HamiltonianParams) -> InvariantForm:
    """|lam| > |kappa|: real spectrum; < : conjugate pair; = (within REGIME_TOL): coalescence."""
    la, ka = abs(p.lam), abs(p.kappa)
    if abs(la - ka) <= REGIME_TOL * max(la, ka, 1.0):
        return InvariantForm.EXCEPTIONAL_POINT
    return InvariantForm.PT_SYMMETRIC if la > ka else InvariantForm.SPONTANEOUSLY_BROKEN


@dataclass(frozen=True)
class PauliCoefficients:
    """Expansion c0*I + c1*sigma_x + c2*sigma_y + c3*sigma_z."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex


def _hamiltonian_entries(p: HamiltonianParams, tau):
    """(h00, h01, h11) of H at the drive value tau, a float or an array; h10 = h01.

    The one formula of H's entries: hamiltonian_at and the derivative
    residuals take them from here.  The diagonal is real and the
    off-diagonal imaginary.
    """
    return -0.5 * (p.omega + p.lam * tau), -0.5 * (1j * p.kappa * tau), -0.5 * (p.omega - p.lam * tau)


def hamiltonian_at(p: HamiltonianParams, t: float) -> np.ndarray:
    """H(t) as a 2x2 array."""
    h00, h01, h11 = _hamiltonian_entries(p, p.drive.tau(t))
    return _mat2_stack(h00, h01, h01, h11)


def hamiltonian_coefficients(p: HamiltonianParams, t: float) -> PauliCoefficients:
    """Pauli coefficients of H(t): (-omega/2, -i*kappa*tau/2, 0, -lam*tau/2)."""
    tau = p.drive.tau(t)
    return PauliCoefficients(
        c0=-0.5 * p.omega,
        c1=-0.5j * p.kappa * tau,
        c2=0.0,
        c3=-0.5 * p.lam * tau,
    )

