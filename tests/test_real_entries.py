"""Closed-form invariant entries in real arithmetic against two oracles.

``reference_real_entries`` is the complex recombination that ``_real_entries``
used before the entries moved to real arithmetic, with the fixed-regime
template it read (``reference_fixed_template``), evaluated at (|lam|, |kappa|)
and carried to negative lam or kappa by the family's sign symmetries.  The
fixed-regime forms must agree with it to the bit.  The drive-dependent entries are compared with the
complex template evaluated in ``mpmath`` at 40 digits from the same double
drive integral.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasic.invariants import InvariantForm, _real_entries, _require_regime
from quasic.model import ConstantDrive, HamiltonianParams, Regime, SineDrive, classify_regime

_SQRT2 = math.sqrt(2.0)


def reference_fixed_template(form, p, t):
    """The template at (|lam|, |kappa|); reference_real_entries flips its signs."""
    lam, kap = abs(p.lam), abs(p.kappa)
    if form is InvariantForm.PT_SYMMETRIC:
        _require_regime(form, p, Regime.PT_SYMMETRIC)
        s = float(t) / p.hbar
        xi = math.sqrt(lam**2 - kap**2)
        delta = -_SQRT2 * lam - kap * math.sin(xi * s)
        imag = _SQRT2 * kap + lam * math.sin(xi * s)
        real = xi * math.cos(xi * s)
        return xi, delta, real + 1j * imag, -real + 1j * imag
    if form is InvariantForm.SPONTANEOUSLY_BROKEN:
        _require_regime(form, p, Regime.SPONTANEOUSLY_BROKEN)
        s = float(t) / p.hbar
        xi = math.sqrt(kap**2 - lam**2)
        delta = lam - _SQRT2 * kap * math.cosh(xi * s)
        imag = _SQRT2 * lam * math.cosh(xi * s) - kap
        real = _SQRT2 * xi * math.sinh(xi * s)
        return xi, delta, real + 1j * imag, -real + 1j * imag
    _require_regime(form, p, Regime.EXCEPTIONAL_POINT)
    s = float(t) / p.hbar
    delta = -(kap**2) * s**2 / _SQRT2 - kap * s - _SQRT2
    imag = kap**2 * s**2 / _SQRT2 + kap * s
    real = 1.0 + _SQRT2 * kap * s
    return 1.0, delta, real + 1j * imag, -real + 1j * imag


def reference_real_entries(form, p, t):
    xi, delta, gamma_plus, gamma_minus = reference_fixed_template(form, p, t)
    d = complex(delta / xi)
    x = complex(0.5 * (gamma_plus - gamma_minus) / xi)
    y = complex(0.5 * (gamma_plus + gamma_minus) / (1j * xi))
    scale = max(1.0, abs(d), abs(x), abs(y))
    residue = max(abs(d.imag), abs(x.imag), abs(y.imag))
    if residue > 1e-10 * scale:
        raise ArithmeticError(f"analytically real entries lost realness (residue {residue:.3g})")
    d, x, y = d.real, x.real, y.real
    # -sigma_x I sigma_x solves the equation for -lam, sigma_z I sigma_z for -kappa
    if p.lam < 0:
        y = -y
    if p.kappa < 0:
        x, y = -x, -y
    return d, x, y


_FIXED_FORMS = {
    Regime.PT_SYMMETRIC: InvariantForm.PT_SYMMETRIC,
    Regime.SPONTANEOUSLY_BROKEN: InvariantForm.SPONTANEOUSLY_BROKEN,
    Regime.EXCEPTIONAL_POINT: InvariantForm.EXCEPTIONAL_POINT,
}
_VALUES = (-2.5, -1.3, -0.7, -0.05, 0.0, 0.05, 0.7, 1.3, 2.5)
_TIMES = np.concatenate((np.linspace(-3.0, 10.0, 53), [np.float64(1e-300), 30.0]))
_HBARS = (1.0, 0.5, 2.0, 3.7)


@pytest.mark.parametrize("hbar", _HBARS)
def test_fixed_regime_entries_same_bits(hbar):
    checked = {form: 0 for form in _FIXED_FORMS.values()}
    for lam in _VALUES:
        for kappa in _VALUES:
            pairs = [(lam, kappa), (kappa, kappa), (-kappa, kappa)]  # EP on both signs
            for lam_, kappa_ in pairs:
                p = HamiltonianParams(1.0, lam_, kappa_, hbar=hbar)
                form = _FIXED_FORMS[classify_regime(p)]
                for t in _TIMES:
                    want = np.array(reference_real_entries(form, p, t))
                    got = np.array(_real_entries(form, p, t))
                    assert got.tobytes() == want.tobytes(), (form, lam_, kappa_, t, hbar)
                    checked[form] += 1
    assert all(n > 500 for n in checked.values()), checked


def mp_drive_entries(kappa, lam, m):
    """(d, x, y) of the drive-dependent template at 40 digits from the double m.

    The template is delta = lam^2 - kappa^2 cosh(mu), real = kappa sqrt(xi)
    sinh(mu) and imag = kappa lam (cosh(mu) - 1) with mu = sqrt(xi) m, each
    divided by xi = kappa^2 - lam^2.  At xi = 0 exactly the template is
    undefined and its limit, the first term of each series in xi, is taken.
    """
    with mpmath.workdps(40):
        k, l, m = mpmath.mpf(kappa), mpmath.mpf(lam), mpmath.mpf(m)
        xi = k**2 - l**2
        if xi == 0:
            return -1 - k**2 * m**2 / 2, k * m, k * l * m**2 / 2
        root = mpmath.sqrt(mpmath.mpc(xi))
        mu = root * m
        cosh = mpmath.cosh(mu)
        d = (l**2 - k**2 * cosh) / xi
        x = k * root * mpmath.sinh(mu) / xi
        y = k * l * (cosh - 1) / xi
        return tuple(mpmath.re(v) for v in (d, x, y))


_COALESCENT_OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-10, -1e-10, 1e-7, -1e-7, 1e-5, -1e-5]),
    st.floats(-1e-3, 1e-3),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    band=st.sampled_from(["pt", "broken", "coalescent"]),
    kappa=st.floats(0.05, 2.5),
    kappa_sign=st.sampled_from([1.0, -1.0]),
    lam_sign=st.sampled_from([1.0, -1.0]),
    spread=st.floats(1e-3, 1.0),
    offset=_COALESCENT_OFFSETS,
    drive=st.sampled_from(["const", "sin"]),
    t=st.floats(-5.0, 5.0),
    hbar=st.one_of(st.just(1.0), st.floats(0.5, 4.0)),
)
def test_drive_dependent_entries_match_mpmath_template(
    band, kappa, kappa_sign, lam_sign, spread, offset, drive, t, hbar
):
    # lam = +-kappa (1 + offset): offset > 0 is PT-symmetric, < 0 broken, 0
    # coalescent; xi runs from exactly 0 to O(1) in units of kappa^2
    ratio = {"pt": 1.0 + spread, "broken": 1.0 - spread, "coalescent": 1.0 + offset}[band]
    lam = lam_sign * kappa * ratio
    drive_obj = ConstantDrive() if drive == "const" else SineDrive()
    p = HamiltonianParams(1.0, lam, kappa_sign * kappa, hbar=hbar, drive=drive_obj)
    got = _real_entries(InvariantForm.FULL_TD, p, t)
    m = float(p.drive.integral(t)) / p.hbar
    want = mp_drive_entries(p.kappa, p.lam, m)
    scale = max(1.0, *(abs(v) for v in got))
    for g, w in zip(got, want):
        assert abs(mpmath.mpf(g) - w) <= 1e-13 * scale, (band, p.lam, p.kappa, drive, t, hbar, got, want)


@pytest.mark.parametrize(
    "lam, kappa",
    [(1.0, 3.0), (-1.0, -3.0), (1.0, 1.0), (-1.0, 1.0)],  # broken, and the exceptional point
)
def test_fixed_regime_overflow_gives_the_array_path_values(lam, kappa):
    # math.cosh raises OverflowError past a phase of ~710, and a float ** 2
    # past 1.3e154; the scalar path must give inf or NaN there, as the
    # numpy array path does, so that a run reports non-finite samples
    p = HamiltonianParams(1.0, lam, kappa)
    form = _FIXED_FORMS[classify_regime(p)]
    times = [1e3, -1e3, 1e200, -1e200, 5e307, -5e307, 1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.array(_real_entries(form, p, np.array(times), stack=True))
    for k, t in enumerate(times):
        got = np.array(_real_entries(form, p, t))
        want = stacked[:, k]
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), (t, got, want)
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True), (t, got, want)
        assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0.0), (t, got, want)
    # the last time, 1e308, overflows on every pair
    assert not np.isfinite(got).all()
