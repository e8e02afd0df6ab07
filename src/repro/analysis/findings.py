"""Findings and reports produced by the static model analyzer.

A :class:`Finding` is one defect located in the model: a rule identifier,
a severity, a human-readable message and enough structured context
(prefix, ASes, quasi-routers, clause descriptions) that callers — the
``repro lint`` CLI, the refinement lint gate, the RunHealth report — can
act on it without parsing the message.  An :class:`AnalysisReport`
aggregates the findings of one analyzer run.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.diffutil import truncate_ranked
from repro.net.prefix import Prefix


class Severity(enum.IntEnum):
    """How bad a finding is; ordering allows threshold comparisons."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One statically-detected defect in the model.

    ``omitted_count`` records how many participating items (clauses, ASNs)
    the finding dropped to stay readable; zero means the structured
    context is complete.
    """

    rule: str
    severity: Severity
    message: str
    prefix: Prefix | None = None
    asns: tuple[int, ...] = ()
    routers: tuple[int, ...] = ()
    clauses: tuple[str, ...] = ()
    omitted_count: int = 0

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable view."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "prefix": str(self.prefix) if self.prefix is not None else None,
            "asns": list(self.asns),
            "routers": [f"{r:#010x}" for r in self.routers],
            "clauses": list(self.clauses),
            "omitted_count": self.omitted_count,
        }

    @classmethod
    def from_dict(cls, document: dict[str, object]) -> "Finding":
        """Invert :meth:`to_dict` (used by persisted certificate stores)."""
        severity_name = str(document["severity"]).upper()
        prefix_text = document.get("prefix")
        routers = document.get("routers") or []
        if not isinstance(routers, list):
            raise ValueError("finding routers must be a list")
        asns = document.get("asns") or []
        if not isinstance(asns, list):
            raise ValueError("finding asns must be a list")
        clauses = document.get("clauses") or []
        if not isinstance(clauses, list):
            raise ValueError("finding clauses must be a list")
        return cls(
            rule=str(document["rule"]),
            severity=Severity[severity_name],
            message=str(document["message"]),
            prefix=Prefix(str(prefix_text)) if prefix_text is not None else None,
            asns=tuple(int(a) for a in asns),
            routers=tuple(int(str(r), 16) for r in routers),
            clauses=tuple(str(c) for c in clauses),
            omitted_count=int(str(document.get("omitted_count", 0))),
        )

    def render(self) -> str:
        """One-line text form for CLI output."""
        scope = f" [{self.prefix}]" if self.prefix is not None else ""
        line = f"{str(self.severity):<7} {self.rule}{scope}: {self.message}"
        if self.omitted_count:
            line += f" (+{self.omitted_count} more not shown)"
        return line


@dataclass
class AnalysisReport:
    """All findings of one static-analyzer run plus pass bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    passes: list[str] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        """Record one finding."""
        self.findings.append(finding)

    def extend(self, findings: list[Finding], pass_name: str | None = None) -> None:
        """Fold a pass's findings in, noting the pass ran."""
        if pass_name is not None and pass_name not in self.passes:
            self.passes.append(pass_name)
        self.findings.extend(findings)

    def by_severity(self, severity: Severity) -> list[Finding]:
        """Findings at exactly ``severity``."""
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> list[Finding]:
        """The error-level findings."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        """The warning-level findings."""
        return self.by_severity(Severity.WARNING)

    def unsafe_prefixes(self) -> list[Prefix]:
        """Prefixes named by error-level *safety* findings, sorted.

        These are the prefixes the lint gate routes straight to quarantine:
        simulating them would burn the message budget without converging.
        """
        unsafe = {
            f.prefix
            for f in self.findings
            if f.severity is Severity.ERROR
            and f.rule.startswith("safety")
            and f.prefix is not None
        }
        return sorted(unsafe)

    def counts(self) -> dict[str, int]:
        """Finding counts per severity name."""
        result = {str(severity): 0 for severity in Severity}
        for finding in self.findings:
            result[str(finding.severity)] += 1
        return result

    @property
    def exit_code(self) -> int:
        """Process exit code for ``repro lint``: nonzero iff errors exist."""
        return 1 if self.errors else 0

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable report."""
        return {
            "passes": list(self.passes),
            "counts": self.counts(),
            "unsafe_prefixes": [str(p) for p in self.unsafe_prefixes()],
            "findings": [f.to_dict() for f in self.findings],
            "exit_code": self.exit_code,
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, max_findings: int | None = None) -> str:
        """Multi-line text report, most severe findings first."""
        ordered = sorted(
            self.findings, key=lambda f: (-int(f.severity), f.rule, str(f.prefix))
        )
        lines = truncate_ranked([finding.render() for finding in ordered], max_findings)
        counts = self.counts()
        lines.append(
            f"lint: {counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} notes ({', '.join(self.passes) or 'no passes'})"
        )
        return "\n".join(lines)
