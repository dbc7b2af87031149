"""Typed advisor findings.

A :class:`Finding` is one diagnosed workload/configuration mismatch:
a stable ``code`` (the taxonomy lives in docs/INTERNALS.md §11), a
severity, the subject it is about (a table name, ``tenant:<name>`` or
``server``), human-readable summary text, the *evidence* — the metric
values that triggered the rule, so a finding is auditable — and zero or
more ``remediation`` statements the actuator can execute verbatim
(``ANALYZE WORKLOAD APPLY``).

Determinism contract: everything in a finding derives from registry
counters/histograms and handler configuration — all of which are
byte-identical across worker counts — and
floats are rounded before they are stored, so two identical workloads
produce identical findings (and identical JSON).
"""

from dataclasses import dataclass, field

#: severity order: most severe first (also the sort order).
SEVERITIES = ("critical", "warn", "info")

#: columns of ``SHOW ADVISOR`` / ``ANALYZE WORKLOAD`` result rows.
FINDING_COLUMNS = ("code", "severity", "subject", "summary", "remediation")


def _round(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


@dataclass
class Finding:
    """One diagnosed workload finding with evidence and remediation."""

    code: str
    severity: str
    subject: str
    summary: str
    evidence: dict = field(default_factory=dict)
    remediation: list = field(default_factory=list)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError("bad severity %r (choose from %s)"
                             % (self.severity, "/".join(SEVERITIES)))
        self.evidence = {key: _round(value)
                         for key, value in self.evidence.items()}

    def sort_key(self):
        return (SEVERITIES.index(self.severity), self.subject, self.code)

    def row(self):
        return (self.code, self.severity, self.subject, self.summary,
                "; ".join(self.remediation))

    def as_dict(self):
        return {"code": self.code,
                "severity": self.severity,
                "subject": self.subject,
                "summary": self.summary,
                "evidence": {key: self.evidence[key]
                             for key in sorted(self.evidence)},
                "remediation": list(self.remediation)}
