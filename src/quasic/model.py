"""Two-level model family, drives, Pauli decomposition and parity operators.

The Hamiltonian family is

    H(t) = -1/2 (omega*I + lam*tau(t)*sigma_z + i*kappa*tau(t)*sigma_x)

with real omega, lam, kappa and a real scalar drive tau(t).  tau == 1
recovers the time-independent member.  Every H in the family commutes with
the antilinear parity-conjugation symmetry sigma_z * K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DriveRangeError
from .linalg import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, frobenius_norm

REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ConstantDrive:
    """tau(t) = value; antiderivative anchored at t_ref."""

    value: float = 1.0
    t_ref: float = 0.0

    def tau(self, t: float) -> float:
        return self.value

    def tau_array(self, t: np.ndarray) -> np.ndarray:
        """tau at every entry of a time array."""
        return np.full(np.shape(t), float(self.value))

    def integral(self, t: float) -> float:
        """Integral of tau from t_ref to t."""
        return self.value * (t - self.t_ref)

    def covers(self, t0: float, t1: float) -> bool:
        return True


@dataclass(frozen=True)
class SineDrive:
    """tau(t) = amplitude * sin(frequency * t).

    t_ref defaults to pi/2 so the anchored antiderivative vanishes at
    t = pi/2 + n*pi for the unit-frequency drive, which is where the
    time-dependent metric collapses to the identity.
    """

    amplitude: float = 1.0
    frequency: float = 1.0
    t_ref: float = math.pi / 2

    def tau(self, t: float) -> float:
        return self.amplitude * math.sin(self.frequency * t)

    def tau_array(self, t: np.ndarray) -> np.ndarray:
        """tau at every entry of a time array."""
        return self.amplitude * np.sin(self.frequency * np.asarray(t, dtype=float))

    def integral(self, t: float) -> float:
        w = self.frequency
        return self.amplitude * (math.cos(w * self.t_ref) - math.cos(w * t)) / w

    def covers(self, t0: float, t1: float) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class TabulatedDrive:
    """Sampled drive; linear interpolation, trapezoid antiderivative.

    Samples must be strictly increasing in t.  Evaluation or integration
    outside the sampled range raises DriveRangeError.
    """

    times: np.ndarray
    values: np.ndarray
    t_ref: float | None = None
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("need matching 1-d arrays with at least two samples")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.t_ref is None:
            object.__setattr__(self, "t_ref", float(times[0]))
        if not self.covers(self.t_ref, self.t_ref):
            raise ValueError("t_ref outside the sampled range")
        seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "_cumulative", cum)

    def _check(self, t: float) -> None:
        if t < self.times[0] or t > self.times[-1]:
            raise DriveRangeError(
                f"t={t} outside tabulated range [{self.times[0]}, {self.times[-1]}]"
            )

    def tau(self, t: float) -> float:
        self._check(t)
        return float(np.interp(t, self.times, self.values))

    def tau_array(self, t: np.ndarray) -> np.ndarray:
        """tau at every entry of a time array; raises if any lies outside the samples."""
        t = np.asarray(t, dtype=float)
        if t.size:
            self._check(float(t.min()))
            self._check(float(t.max()))
        return np.interp(t, self.times, self.values)

    def _antiderivative(self, t: float) -> float:
        # exact integral of the linear interpolant from times[0] to t
        self._check(t)
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(k, self.times.size - 2)
        dt = t - self.times[k]
        v_t = self.values[k] + (self.values[k + 1] - self.values[k]) * dt / (
            self.times[k + 1] - self.times[k]
        )
        return float(self._cumulative[k] + 0.5 * (self.values[k] + v_t) * dt)

    def integral(self, t: float) -> float:
        return self._antiderivative(t) - self._antiderivative(self.t_ref)

    def covers(self, t0: float, t1: float) -> bool:
        return self.times[0] <= t0 and t1 <= self.times[-1]


Drive = ConstantDrive | SineDrive | TabulatedDrive


@dataclass(frozen=True)
class HamiltonianParams:
    omega: float
    lam: float
    kappa: float
    hbar: float = 1.0
    drive: Drive = ConstantDrive()

    def __post_init__(self):
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")
        for name in ("omega", "lam", "kappa", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class Regime(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    SPONTANEOUSLY_BROKEN = "spontaneously-broken"
    EXCEPTIONAL_POINT = "exceptional-point"


def classify_regime(p: HamiltonianParams, tol: float = REGIME_TOL) -> Regime:
    """|lam| > |kappa|: real spectrum; < : conjugate pair; = : coalescence."""
    la, ka = abs(p.lam), abs(p.kappa)
    if abs(la - ka) <= tol * max(la, ka, 1.0):
        return Regime.EXCEPTIONAL_POINT
    return Regime.PT_SYMMETRIC if la > ka else Regime.SPONTANEOUSLY_BROKEN


@dataclass(frozen=True)
class PauliCoefficients:
    """Expansion c0*I + c1*sigma_x + c2*sigma_y + c3*sigma_z."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex


def pauli_decompose(a: np.ndarray) -> PauliCoefficients:
    a = np.asarray(a, dtype=complex)
    return PauliCoefficients(
        c0=0.5 * (a[0, 0] + a[1, 1]),
        c1=0.5 * (a[0, 1] + a[1, 0]),
        c2=0.5j * (a[0, 1] - a[1, 0]),
        c3=0.5 * (a[0, 0] - a[1, 1]),
    )


def pauli_compose(c: PauliCoefficients) -> np.ndarray:
    return c.c0 * IDENTITY + c.c1 * PAULI_X + c.c2 * PAULI_Y + c.c3 * PAULI_Z


def hamiltonian_at(p: HamiltonianParams, t: float) -> np.ndarray:
    tau = p.drive.tau(t)
    return -0.5 * (p.omega * IDENTITY + p.lam * tau * PAULI_Z + 1j * p.kappa * tau * PAULI_X)


def hamiltonian_coefficients(p: HamiltonianParams, t: float) -> PauliCoefficients:
    """Pauli coefficients of H(t): (-omega/2, -i*kappa*tau/2, 0, -lam*tau/2)."""
    tau = p.drive.tau(t)
    return PauliCoefficients(
        c0=-0.5 * p.omega,
        c1=-0.5j * p.kappa * tau,
        c2=0.0,
        c3=-0.5 * p.lam * tau,
    )


def parity() -> np.ndarray:
    """The parity operator sigma_z: Hermitian, involutory, indefinite."""
    return PAULI_Z.copy()


@dataclass(frozen=True)
class AntilinearOp:
    """Linear part followed by componentwise complex conjugation."""

    linear_part: np.ndarray


def pt_operator() -> AntilinearOp:
    return AntilinearOp(linear_part=PAULI_Z.copy())


def apply_antilinear(op: AntilinearOp, v: np.ndarray) -> np.ndarray:
    return op.linear_part @ np.conj(v)


def pt_symmetry_residual(p: HamiltonianParams, t: float = 0.0) -> float:
    """Norm of sigma_z conj(H) sigma_z - H.

    Vanishing is the linear restatement of H commuting with the antilinear
    parity-conjugation operator; it holds for every member of the family.
    """
    h = hamiltonian_at(p, t)
    return frobenius_norm(PAULI_Z @ np.conj(h) @ PAULI_Z - h)
