"""Closed-form invariant entries in real arithmetic against two oracles, and their binding.

``reference_real_entries`` is the complex recombination that ``_real_entries``
used before the entries moved to real arithmetic, with the fixed-regime
template it read (``reference_fixed_template``), evaluated at (|lam|, |kappa|)
and carried to negative lam or kappa by the family's sign symmetries.  The
fixed-regime forms must agree with it to the bit.  The drive-dependent entries are compared with the
complex template evaluated in ``mpmath`` at 40 digits from the same double
drive integral.
"""

import copy
import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasic import invariants
from quasic.coperator import closed_form_metric
from quasic.errors import RegimeMismatchError
from quasic.invariants import InvariantForm, _real_entries, closed_form_invariant
from quasic.model import ConstantDrive, HamiltonianParams, SineDrive

_SQRT2 = math.sqrt(2.0)


def reference_fixed_template(form, p, t):
    """The template at (|lam|, |kappa|); reference_real_entries flips its signs."""
    assert p.regime is form, (form, p)
    lam, kap = abs(p.lam), abs(p.kappa)
    if form is InvariantForm.PT_SYMMETRIC:
        s = float(t) / p.hbar
        xi = math.sqrt(lam**2 - kap**2)
        delta = -_SQRT2 * lam - kap * math.sin(xi * s)
        imag = _SQRT2 * kap + lam * math.sin(xi * s)
        real = xi * math.cos(xi * s)
        return xi, delta, real + 1j * imag, -real + 1j * imag
    if form is InvariantForm.SPONTANEOUSLY_BROKEN:
        s = float(t) / p.hbar
        xi = math.sqrt(kap**2 - lam**2)
        delta = lam - _SQRT2 * kap * math.cosh(xi * s)
        imag = _SQRT2 * lam * math.cosh(xi * s) - kap
        real = _SQRT2 * xi * math.sinh(xi * s)
        return xi, delta, real + 1j * imag, -real + 1j * imag
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


_FIXED_FORMS = (InvariantForm.PT_SYMMETRIC, InvariantForm.SPONTANEOUSLY_BROKEN, InvariantForm.EXCEPTIONAL_POINT)
_VALUES = (-2.5, -1.3, -0.7, -0.05, 0.0, 0.05, 0.7, 1.3, 2.5)
_TIMES = np.concatenate((np.linspace(-3.0, 10.0, 53), [np.float64(1e-300), 30.0]))
_HBARS = (1.0, 0.5, 2.0, 3.7)


@pytest.mark.parametrize("hbar", _HBARS)
def test_fixed_regime_entries_same_bits(hbar):
    checked = {form: 0 for form in _FIXED_FORMS}
    for lam in _VALUES:
        for kappa in _VALUES:
            pairs = [(lam, kappa), (kappa, kappa), (-kappa, kappa)]  # EP on both signs
            for lam_, kappa_ in pairs:
                p = HamiltonianParams(1.0, lam_, kappa_, hbar=hbar)
                form = p.regime
                for t in _TIMES:
                    want = np.array(reference_real_entries(form, p, t))
                    got = np.array(_real_entries(form, p)(t))
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
    got = _real_entries(InvariantForm.FULL_TD, p)(t)
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
    form = p.regime
    times = [1e3, -1e3, 1e200, -1e200, 5e307, -5e307, 1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.array(_real_entries(form, p, np)(np.array(times)))
    for k, t in enumerate(times):
        got = np.array(_real_entries(form, p)(t))
        want = stacked[:, k]
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), (t, got, want)
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True), (t, got, want)
        assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0.0), (t, got, want)
    # the last time, 1e308, overflows on every pair
    assert not np.isfinite(got).all()


class TestBoundEntries:
    """A float evaluation binds the form to its parameter set once and keeps the evaluator on it."""

    FORM_CASES = [
        (InvariantForm.PT_SYMMETRIC, 2.3, -0.7, ConstantDrive()),
        (InvariantForm.SPONTANEOUSLY_BROKEN, -0.7, 2.3, ConstantDrive()),
        (InvariantForm.EXCEPTIONAL_POINT, 1.3, -1.3, ConstantDrive()),
        # the sine shape scaled by 0.8 at (0.7, 2.3): the couplings carry the scale
        (InvariantForm.FULL_TD, 0.56, 1.84, SineDrive(frequency=1.7, t_ref=0.3)),
    ]
    TIMES = (-2.0, 0.0, 0.7, 3.1)

    @staticmethod
    def rows_bytes(form, p, t):
        return np.array(closed_form_metric(form, p, t).rows, dtype=complex).tobytes()

    @pytest.mark.parametrize("form", [InvariantForm.PT_SYMMETRIC, InvariantForm.EXCEPTIONAL_POINT])
    def test_mismatched_form_raises_on_every_call_and_is_not_kept(self, form):
        p = HamiltonianParams(1.0, 0.7, 2.3)  # broken regime
        for _ in range(3):
            with pytest.raises(RegimeMismatchError):
                closed_form_metric(form, p, 0.5)
            with pytest.raises(RegimeMismatchError):
                closed_form_invariant(form, p, 0.5)
            assert p._bound == (None, None)
        # a form bound before keeps its binding through a failed one
        closed_form_metric(InvariantForm.SPONTANEOUSLY_BROKEN, p, 0.5)
        kept = p._bound
        with pytest.raises(RegimeMismatchError):
            closed_form_metric(form, p, 0.5)
        assert p._bound is kept

    @pytest.mark.parametrize("form, lam, kappa, drive", FORM_CASES)
    def test_evaluation_leaves_equality_hash_and_repr(self, form, lam, kappa, drive):
        p = HamiltonianParams(1.0, lam, kappa, hbar=1.7, drive=drive)
        twin = HamiltonianParams(1.0, lam, kappa, hbar=1.7, drive=drive)
        before = (hash(p), repr(p))
        closed_form_metric(form, p, 0.5)
        assert p._bound[0] is form and twin._bound == (None, None)
        assert p == twin and (hash(p), repr(p)) == before == (hash(twin), repr(twin))
        assert "_bound" not in repr(p)

    @pytest.mark.parametrize("form, lam, kappa, drive", FORM_CASES)
    def test_replaced_parameters_bind_their_own_constants(self, form, lam, kappa, drive):
        p = HamiltonianParams(1.0, lam, kappa, hbar=1.7, drive=drive)
        closed_form_metric(form, p, 0.5)
        # scaled together, lam and kappa stay in their regime
        changes = {"lam": 1.5 * lam, "kappa": 1.5 * kappa, "hbar": 0.6}
        q = dataclasses.replace(p, **changes)
        fresh = HamiltonianParams(1.0, drive=drive, **changes)
        assert q._bound == (None, None)
        for t in self.TIMES:
            assert self.rows_bytes(form, q, t) == self.rows_bytes(form, fresh, t)
            # the exceptional-point form is -sqrt(2) sigma_z + sigma_x at t = 0 for every pair
            assert (self.rows_bytes(form, q, t) == self.rows_bytes(form, p, t)) == (t == 0.0 and form is InvariantForm.EXCEPTIONAL_POINT)

    @pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy])
    @pytest.mark.parametrize("form, lam, kappa, drive", FORM_CASES)
    def test_copies_of_an_evaluated_set_bind_afresh_with_the_same_bits(self, copy_of, form, lam, kappa, drive):
        p = HamiltonianParams(1.0, lam, kappa, hbar=1.7, drive=drive)
        want = [self.rows_bytes(form, p, t) for t in self.TIMES]
        q = copy_of(p)
        assert q == p and q._bound == (None, None) and p._bound[0] is form
        assert [self.rows_bytes(form, q, t) for t in self.TIMES] == want

    def test_drive_entries_patched_after_binding_reach_later_evaluations(self, monkeypatch):
        # the constant drive anchored at 0: doubling m is doubling t
        p = HamiltonianParams(1.0, 2.0, 1.0)
        at_half = closed_form_invariant(InvariantForm.FULL_TD, p, 0.5)
        at_one = closed_form_invariant(InvariantForm.FULL_TD, p, 1.0)
        entries = invariants._drive_entries
        monkeypatch.setattr(invariants, "_drive_entries", lambda p, m, sinhc: entries(p, 2.0 * m, sinhc))
        assert not np.array_equal(at_half, at_one)
        assert closed_form_invariant(InvariantForm.FULL_TD, p, 0.5).tobytes() == at_one.tobytes()
        # I = sigma_z rho: the metric's second row negated
        top, (a10, a11) = closed_form_metric(InvariantForm.FULL_TD, p, 0.5).rows
        assert np.array_equal(np.array((top, (-a10, -a11))), at_one)
