"""Verification reports: pass rule and JSON-lines layout."""

import math

from quasic.reporting import VerificationReport


def test_non_finite_value_never_passes():
    report = VerificationReport()
    for value, tolerance in ((math.nan, 1.0), (math.inf, math.inf), (-math.inf, 1.0), (math.nan, math.nan)):
        assert not report.add("x", value, tolerance).passed
    assert report.add("finite", 0.5, 1.0).passed
    assert not report.all_passed
