"""Typed findings shared by every analysis pass.

A :class:`Finding` is one detected defect: a rule id (stable, documented
in ``docs/analyze.md``), a severity, a human message, the location the
defect was detected at (a file/line for lint rules, a graph/task/tile
for schedule rules, a trace event for race rules) and a fix hint.  A
:class:`Report` aggregates findings across passes and serializes to the
machine-readable JSON document the CI step publishes as an artifact.

Severities:

* ``error`` — a proven invariant violation; the CLI exits nonzero;
* ``warning`` — a hazard (e.g. a stale retransmit that *could* reorder
  delivery) that does not falsify the run by itself;
* ``info`` — advisory context attached to a verification (e.g. the
  margin left under a Theorem 1 bound).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = [
    "Severity", "Finding", "Report", "SEVERITIES", "REPORT_VERSION",
    "severity_rank",
]

#: Recognized severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")

#: Schema version of :meth:`Report.to_dict` (2 added the per-rule
#: ``rules`` summary); :meth:`Report.from_dict` accepts no other.
REPORT_VERSION = 2


class Severity:
    """Namespace of the severity constants (plain strings)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


def severity_rank(severity: str) -> int:
    """Stable ordering key: 0 = error, 1 = warning, 2 = info.

    Unknown severities sort last so a forward-compatible reader never
    promotes them above real errors.
    """
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


@dataclass(frozen=True)
class Finding:
    """One defect (or advisory) detected by an analysis pass."""

    rule: str  # stable rule id, e.g. "SCHED-TOPO"
    severity: str  # one of SEVERITIES
    message: str  # human-readable statement of the defect
    location: str  # "file:line", "graph:task 17", "trace:event 3", ...
    hint: str = ""  # how to fix / where to look

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tail = f"  [{self.hint}]" if self.hint else ""
        return (f"{self.severity.upper():7s} {self.rule:18s} "
                f"{self.location}: {self.message}{tail}")


@dataclass
class Report:
    """Aggregated findings of one or several analysis passes."""

    findings: list[Finding] = field(default_factory=list)
    #: analysis passes that ran (pass name -> subject count), so a clean
    #: report still proves *what* was checked.
    passes: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        rule: str,
        severity: str,
        message: str,
        location: str,
        hint: str = "",
    ) -> Finding:
        f = Finding(rule, severity, message, location, hint)
        self.findings.append(f)
        return f

    def note_pass(self, name: str, subjects: int = 1) -> None:
        """Record that a pass examined ``subjects`` more subjects."""
        self.passes[name] = self.passes.get(name, 0) + subjects

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)
        for name, n in other.passes.items():
            self.note_pass(name, n)

    # -- queries -------------------------------------------------------------

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def by_severity(self, severity: str) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def rules_hit(self) -> list[str]:
        """Distinct rule ids with at least one finding, first-hit order."""
        seen: dict[str, None] = {}
        for f in self.findings:
            seen.setdefault(f.rule, None)
        return list(seen)

    def ordered(self) -> list[Finding]:
        """Findings sorted by severity (errors first), stably: findings
        of equal severity keep their discovery order."""
        return sorted(self.findings, key=lambda f: severity_rank(f.severity))

    @property
    def num_errors(self) -> int:
        return len(self.by_severity(Severity.ERROR))

    @property
    def num_warnings(self) -> int:
        return len(self.by_severity(Severity.WARNING))

    def ok(self, *, strict: bool = False) -> bool:
        """True when no errors (``strict`` also rejects warnings)."""
        if self.num_errors:
            return False
        return not (strict and self.num_warnings)

    def exit_code(self, *, strict: bool = False) -> int:
        return 0 if self.ok(strict=strict) else 1

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        rules: dict[str, dict[str, object]] = {}
        for f in self.findings:
            row = rules.setdefault(
                f.rule, {"id": f.rule, "count": 0,
                         "max_severity": f.severity})
            row["count"] = int(row["count"]) + 1  # type: ignore[call-overload]
            if severity_rank(f.severity) < severity_rank(
                    str(row["max_severity"])):
                row["max_severity"] = f.severity
        return {
            "version": REPORT_VERSION,
            "passes": dict(self.passes),
            "summary": {
                "errors": self.num_errors,
                "warnings": self.num_warnings,
                "info": len(self.by_severity(Severity.INFO)),
            },
            "rules": [rules[r] for r in sorted(rules)],
            "findings": [asdict(f) for f in self.findings],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: object) -> str:
        """Write the JSON document; returns the path written."""
        with open(str(path), "w") as fh:
            fh.write(self.to_json() + "\n")
        return str(path)

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Report":
        """Parse a serialized report (the ``rules`` summary is derived,
        so it is recomputed rather than trusted)."""
        if doc.get("version") != REPORT_VERSION:
            raise ValueError(
                f"unsupported report version {doc.get('version')!r}")
        rep = cls()
        passes = doc.get("passes", {})
        if isinstance(passes, dict):
            for name, n in passes.items():
                rep.note_pass(str(name), int(n))  # type: ignore[call-overload]
        raw = doc.get("findings", [])
        if isinstance(raw, list):
            for obj in raw:
                rep.add(obj["rule"], obj["severity"], obj["message"],
                        obj["location"], obj.get("hint", ""))
        return rep

    def render(self, *, max_findings: int = 50) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines: list[str] = []
        for f in self.findings[:max_findings]:
            lines.append(str(f))
        extra = len(self.findings) - max_findings
        if extra > 0:
            lines.append(f"... and {extra} more finding(s)")
        checked = sum(self.passes.values())
        lines.append(
            f"{self.num_errors} error(s), {self.num_warnings} warning(s), "
            f"{len(self.by_severity(Severity.INFO))} info "
            f"across {len(self.passes)} pass(es), {checked} subject(s)"
        )
        return "\n".join(lines)


def merge(reports: Iterable[Report]) -> Report:
    """Fold several pass reports into one."""
    out = Report()
    for r in reports:
        out.extend(r)
    return out
