"""VER001 — result-affecting changes must bump ``CODE_VERSION``.

The sim cache (``src/repro/sim/cache.py``) keys stored results by
``CODE_VERSION`` and the committed ``baselines/`` store fingerprints
every record with it.  A change to the simulated path that forgets the
bump silently replays stale cached results and mis-attributes baseline
drift, so CI diffs the result-affecting trees against the merge-base
and fails when they changed without a bump.

This is a *repo-level*, CI-only rule: it shells out to ``git`` and is
therefore not part of the default AST rule set — enable it with
``python -m repro lint --select VER001 [--ver-base REF]``.

The result-affecting prefixes are derived on every run by the import
walk of :mod:`repro.lint.scope`; there is no committed or hard-coded
copy to drift.  Without an explicit ``--ver-base`` the engine tries
``origin/main`` then ``main`` and *skips with a notice* when neither
resolves (local checkout, no git repo) instead of failing or silently
passing; an explicitly requested base ref that does not resolve stays
a configuration error (exit 2).
"""

from __future__ import annotations

import re
import subprocess
from pathlib import Path
from typing import Iterator, Optional

from repro.lint.findings import (
    Finding,
    LintConfigError,
    SEVERITY_ERROR,
)

#: The file carrying the ``CODE_VERSION = N`` declaration.
VERSION_FILE = "src/repro/sim/cache.py"

_BUMP_RE = re.compile(r"^[+-]CODE_VERSION\s*=", re.MULTILINE)


def _git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise LintConfigError(
            f"git {' '.join(args)} failed: "
            f"{proc.stderr.strip() or proc.stdout.strip()}"
        )
    return proc.stdout


class CodeVersionRule:
    """VER001 — see the module docstring."""

    id = "VER001"
    severity = SEVERITY_ERROR
    title = "result-affecting change without a CODE_VERSION bump"

    def __init__(self, base_ref: str, prefixes: tuple) -> None:
        self.base_ref = base_ref
        self.prefixes = tuple(prefixes)

    def check_repo(self, repo_root: Path) -> Iterator[Finding]:
        repo = Path(repo_root)
        merge_base = _git(
            repo, "merge-base", self.base_ref, "HEAD"
        ).strip()
        changed = [
            line for line in _git(
                repo, "diff", "--name-only", merge_base
            ).splitlines()
            if line.startswith(self.prefixes)
        ]
        if not changed:
            return
        version_diff = _git(repo, "diff", merge_base, "--", VERSION_FILE)
        if _BUMP_RE.search(version_diff):
            return
        listed = ", ".join(sorted(changed)[:5])
        if len(changed) > 5:
            listed += f", … ({len(changed)} files)"
        yield Finding(
            rule=self.id, severity=self.severity,
            path=VERSION_FILE, line=1, col=0,
            message=(
                f"result-affecting file(s) changed since "
                f"{self.base_ref} ({listed}) but CODE_VERSION in "
                f"{VERSION_FILE} was not bumped — stale sim-cache "
                f"entries and baseline fingerprints would go undetected"
            ),
        )


def current_code_version(repo_root: Path) -> Optional[int]:
    """Parse ``CODE_VERSION`` out of the version file (None if absent)."""
    path = Path(repo_root) / VERSION_FILE
    if not path.exists():
        return None
    match = re.search(r"^CODE_VERSION\s*=\s*(\d+)", path.read_text(),
                      re.MULTILINE)
    return int(match.group(1)) if match else None


__all__ = [
    "CodeVersionRule",
    "VERSION_FILE",
    "current_code_version",
]
