"""Diagnostic reports returned by the validators.

Validators never raise on bad input, an invalid end of a record included:
they return a report listing every violated condition together with a
concrete witness, so that a failure can be replayed.  A report keeps the
first ``KEEP_PER_CONDITION`` findings of each condition and counts the rest,
so its size is bounded whatever the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

KEEP_PER_CONDITION = 8


@dataclass
class Finding:
    condition: str
    witness: Any
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.condition}: witness {self.witness!r}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class ValidationReport:
    subject: str
    findings: list[Finding] = field(default_factory=list)
    dropped: int = 0  # findings counted but not kept

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, condition: str, witness: Any, detail: str = "") -> None:
        if sum(f.condition == condition for f in self.findings) < KEEP_PER_CONDITION:
            self.findings.append(Finding(condition, witness, detail))
        else:
            self.dropped += 1

    def merge(self, other: ValidationReport, prefix: str) -> None:
        """Add the findings of another report under prefixed conditions."""
        for f in other.findings:
            self.add(prefix + f.condition, f.witness, f.detail)
        self.dropped += other.dropped

    def conditions(self) -> set[str]:
        return {f.condition for f in self.findings}

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.findings) + self.dropped} violation(s)"]
        lines += [f"  - {f}" for f in self.findings]
        if self.dropped:
            lines.append(f"  ... {self.dropped} more not shown (at most {KEEP_PER_CONDITION} per condition)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "subject": self.subject,
            "ok": self.ok,
            "findings": [
                {"condition": f.condition, "witness": _plain(f.witness), "detail": f.detail}
                for f in self.findings
            ],
        }
        if self.dropped:
            out["dropped"] = self.dropped
        return out


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    return value
