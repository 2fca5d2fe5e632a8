"""Findings and suppression directives for the lint subsystem.

A :class:`Finding` is one rule violation at one source location.  Its
identity for baseline matching is ``(rule, path, message)`` — line
numbers shift too easily under unrelated edits to be part of the key,
so a grandfathered finding stays grandfathered when code above it moves.

Suppression is explicit and greppable: a ``# lint: disable=ID`` comment
on the flagged line (or a standalone comment on the line directly
above) silences that rule there, ideally followed by a reason::

    record = {"ts": time.time()}  # lint: disable=DET001 - journal timestamp

Suppressed findings are still collected (and counted in the JSON
output) so ``--format json`` can audit every disable in the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# lint: disable=DET001`` or ``# lint: disable=DET001,DET004``.
_DIRECTIVE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Z]{3,5}\d{3}(?:\s*,\s*[A-Z]{3,5}\d{3})*)"
)


class LintConfigError(Exception):
    """Bad lint configuration (unknown rule id, malformed baseline…).

    The CLI maps this to exit status 2, mirroring the ``suite`` and
    ``baseline`` commands' invalid-configuration convention.
    """


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    #: True when a ``# lint: disable`` comment covers this finding.
    suppressed: bool = False
    #: True when the committed baseline grandfathers this finding.
    baselined: bool = False

    @property
    def key(self) -> tuple:
        """Baseline-matching identity (line numbers excluded)."""
        return (self.rule, self.path, self.message)

    @property
    def is_new(self) -> bool:
        """Counts against the exit status (not suppressed/baselined)."""
        return not (self.suppressed or self.baselined)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")


def parse_suppressions(source: str) -> dict:
    """``line number -> frozenset of rule ids disabled on that line``.

    A directive on a *standalone* comment line also covers the next
    line, so multi-line statements can be annotated above rather than
    after a continuation backslash.
    """
    disabled: dict = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE_RE.search(text)
        if not match:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",")
        )
        disabled[lineno] = disabled.get(lineno, frozenset()) | ids
        if text.lstrip().startswith("#"):  # standalone comment line
            nxt = lineno + 1
            disabled[nxt] = disabled.get(nxt, frozenset()) | ids
    return disabled


def apply_suppressions(findings, disabled: dict) -> None:
    """Mark findings whose line carries a matching disable directive."""
    for finding in findings:
        if finding.rule in disabled.get(finding.line, ()):
            finding.suppressed = True


__all__ = [
    "Finding",
    "LintConfigError",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "apply_suppressions",
    "parse_suppressions",
]
