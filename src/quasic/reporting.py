"""Named-residual verification reports with JSON-lines serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """A non-finite value never passes, whatever the tolerance."""
        return math.isfinite(self.value) and self.value <= self.tolerance


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name: str, value: float, tolerance: float) -> Check:
        check = Check(name=name, value=float(value), tolerance=float(tolerance))
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def json_lines(self) -> list[str]:
        lines = []
        if self.metadata:
            lines.append(json.dumps({"type": "metadata", **self.metadata}, sort_keys=True))
        for c in self.checks:
            lines.append(
                json.dumps(
                    {
                        "type": "check",
                        "name": c.name,
                        "value": c.value,
                        "tolerance": c.tolerance,
                        "pass": c.passed,
                    },
                    sort_keys=True,
                )
            )
        lines.append(
            json.dumps(
                {"type": "summary", "all_pass": self.all_passed, "n_checks": len(self.checks)},
                sort_keys=True,
            )
        )
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.json_lines()) + "\n")
