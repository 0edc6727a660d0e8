"""Verification reports: pass rule and JSON-lines layout."""

import json
import math

from quasic.reporting import TOLERANCE_CEILING, VerificationReport


def test_non_finite_value_never_passes():
    report = VerificationReport()
    for value, tolerance in ((math.nan, 1.0), (math.inf, math.inf), (-math.inf, 1.0), (math.nan, math.nan)):
        assert not report.add("x", value, tolerance).passed
    assert report.add("finite", 0.5, 1.0).passed
    assert not report.all_passed


def test_scaled_tolerance_above_the_ceiling_is_inconclusive():
    report = VerificationReport()
    above = 10 * TOLERANCE_CEILING
    assert report.add("scaled_ok", 1e-9, TOLERANCE_CEILING, scaled=True).status == "pass"
    inconclusive = report.add("scaled_wide", 1e-9, above, scaled=True)
    assert inconclusive.status == "inconclusive" and not inconclusive.passed
    # a value beyond even the widened tolerance is a failure, not inconclusive
    assert report.add("scaled_fail", 2 * above, above, scaled=True).status == "fail"
    assert report.add("scaled_nan", math.nan, above, scaled=True).status == "fail"
    # fixed tolerances are the caller's choice and are not capped
    assert report.add("fixed_wide", 1e-9, above).status == "pass"
    assert not report.all_passed


def test_json_lines_carry_the_status():
    report = VerificationReport()
    report.add("a", 0.0, 1.0)
    report.add("b", 2.0, 1.0)
    report.add("c", 0.0, 1.0, scaled=True)
    records = [json.loads(line) for line in report.json_lines()]
    assert [(r["status"], r["pass"]) for r in records if r["type"] == "check"] == [
        ("pass", True),
        ("fail", False),
        ("inconclusive", False),
    ]
