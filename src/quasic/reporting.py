"""Named-residual verification reports with JSON-lines serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


#: Largest scale-derived tolerance a passing check may have.  Tolerances that
#: grow with the metric scale s (16 eps s^2 for det rho = 1, 64 eps s for
#: positivity) stop verifying anything: at s ~ 2e7 the det tolerance reaches
#: 1, and beyond s ~ 8e6 the positivity tolerance exceeds the smaller metric
#: eigenvalue 1/s, so an indefinite metric would pass.  1e-6 is the loosest
#: fixed tolerance of the package's checks (propagation consistency); a
#: scaled tolerance above it verifies less than every fixed one.  The det
#: tolerance crosses it at s ~ 1.7e4, so a time-dependent run whose
#: positivity check has become meaningless never exits 0.  The command
#: line's regular cases stay well below: metric scales up to ~1e3 give
#: tolerances up to ~4e-9.
TOLERANCE_CEILING = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    #: the tolerance was derived from the scale of the data (see TOLERANCE_CEILING)
    scaled: bool = False
    #: sample time of the worst value (the first non-finite one, if any) of a time series
    argmax_t: float | None = None
    #: the (lambda, kappa) pair the check was run for, if any
    pair: tuple[float, float] | None = None
    #: how many samples of the checked quantity were not finite (0 or 1 for a single value)
    n_nonfinite: int = 0

    @property
    def status(self) -> str:
        """'pass', 'fail', or 'inconclusive': a pass against a scaled tolerance above the ceiling.

        A non-finite value fails whatever the tolerance.
        """
        if not (math.isfinite(self.value) and self.value <= self.tolerance):
            return "fail"
        if self.scaled and self.tolerance > TOLERANCE_CEILING:
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    #: the exit code of the run that made the report, once known; the summary record carries it
    exit_code: int | None = None

    def add(
        self,
        name: str,
        value: float,
        tolerance: float,
        scaled: bool = False,
        argmax_t: float | None = None,
        pair: tuple[float, float] | None = None,
        n_nonfinite: int | None = None,
    ) -> Check:
        """Record a check; ``n_nonfinite`` defaults to that of the single ``value``."""
        value = float(value)
        check = Check(
            name=name,
            value=value,
            tolerance=float(tolerance),
            scaled=scaled,
            argmax_t=None if argmax_t is None else float(argmax_t),
            pair=None if pair is None else (float(pair[0]), float(pair[1])),
            n_nonfinite=int(not math.isfinite(value)) if n_nonfinite is None else int(n_nonfinite),
        )
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        """Every check passed, and no ``failure`` aborted the run that made them."""
        return "failure" not in self.metadata and all(c.passed for c in self.checks)

    def json_lines(self) -> list[str]:
        lines = []
        if self.metadata:
            lines.append(json.dumps({"type": "metadata", **self.metadata}, sort_keys=True))
        for c in self.checks:
            record = {
                "type": "check",
                "name": c.name,
                "value": c.value,
                "tolerance": c.tolerance,
                "pass": c.passed,
                "status": c.status,
                "pair": None if c.pair is None else list(c.pair),
                "n_nonfinite": c.n_nonfinite,
            }
            if c.argmax_t is not None:
                record["argmax_t"] = c.argmax_t
            lines.append(json.dumps(record, sort_keys=True))
        summary = {"type": "summary", "all_pass": self.all_passed, "n_checks": len(self.checks)}
        if self.exit_code is not None:
            summary["exit_code"] = self.exit_code
        lines.append(json.dumps(summary, sort_keys=True))
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.json_lines()) + "\n")
