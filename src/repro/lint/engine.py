"""Lint driver: file collection, rule dispatch, selection, reporting.

:func:`run_lint` is the one entry point the CLI (and tests) call.  It
walks the scan root for ``*.py`` files and parses each once.  When
DET004 or VER001 is selected it runs the import walk of
:mod:`repro.lint.scope` over the parsed modules.  It then runs every
selected per-module rule, applies ``# lint: disable`` comments (the
only way to suppress a finding), optionally runs the repo-level VER001
rule over the walk's result-affecting prefixes, and returns a
:class:`LintResult` whose :attr:`~LintResult.exit_code` follows the
repository convention: 0 clean, 1 new findings, 2 bad configuration
(unknown rule id, unparseable file, bad explicit git ref, empty VER001
scope).

Finding paths are **repo-relative POSIX** (``src/repro/core/foo.py``)
regardless of the invocation cwd, so reports and CI annotations read
the same whether lint runs from the repo root, ``src/``, or CI.  The repo
root is auto-discovered by walking up from the scan root to the first
directory holding ``pyproject.toml`` or ``.git`` (falling back to the
parent of a ``src/`` layout), so no flag is needed for the common case.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.findings import (
    Finding,
    LintConfigError,
    apply_suppressions,
    parse_suppressions,
)
from repro.lint.rules import DEFAULT_RULES, ModuleContext, ReachableInputRule
from repro.lint.scope import ROOTS, scope_prefixes, walk
from repro.lint.versioning import CodeVersionRule

_AST_RULE_IDS = tuple(cls.id for cls in DEFAULT_RULES)

#: Every known rule id (per-module + import-walk + repo-level).
ALL_RULE_IDS = (*_AST_RULE_IDS, ReachableInputRule.id, CodeVersionRule.id)
#: Rules run when no ``--select`` is given (VER001 is CI-only: it
#: needs a meaningful base ref to diff against).
DEFAULT_RULE_IDS = (*_AST_RULE_IDS, ReachableInputRule.id)


class LintResult:
    """All findings of one run plus the derived exit code."""

    def __init__(self, findings: Sequence[Finding],
                 selected: Sequence[str],
                 notices: Sequence[str] = ()) -> None:
        self.findings = list(findings)
        self.selected = tuple(selected)
        #: Non-failing diagnostics (a skipped VER001).
        self.notices = list(notices)

    @property
    def new(self) -> list:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def to_json(self) -> dict:
        return {
            "version": 3,
            "rules": list(self.selected),
            "findings": [f.to_json() for f in self.findings],
            "notices": list(self.notices),
            "summary": {
                "total": len(self.findings),
                "new": len(self.new),
                "suppressed": len(self.suppressed),
            },
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.new]
        lines.extend(f"notice: {notice}" for notice in self.notices)
        summary = (
            f"{len(self.new)} new finding(s), "
            f"{len(self.suppressed)} suppressed "
            f"({len(self.selected)} rule(s))"
        )
        if not self.new:
            summary = "lint ok: " + summary
        return "\n".join(lines + [summary])

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True)
        return self.render_text()


def resolve_selection(select: Optional[Iterable[str]]) -> tuple:
    """Validated, ordered rule-id selection (exit 2 on unknown ids)."""
    for rid in select or ():
        if rid not in ALL_RULE_IDS:
            raise LintConfigError(
                f"--select: unknown rule id {rid!r} "
                f"(known: {', '.join(ALL_RULE_IDS)})"
            )
    return tuple(select) if select else DEFAULT_RULE_IDS


def python_files(scan_root: Path) -> list:
    """Sorted ``*.py`` files under *scan_root* (skipping caches)."""
    return sorted(
        p for p in scan_root.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def discover_repo_root(scan_root: Path) -> Path:
    """Repository root for *scan_root* (cwd-independent).

    Walks up to the first directory holding ``pyproject.toml`` or
    ``.git``; falls back to the grandparent for a ``src/`` layout so
    fixture trees without markers still normalise the same way.
    """
    scan_root = Path(scan_root).resolve()
    for candidate in (scan_root, *scan_root.parents):
        if (candidate / "pyproject.toml").exists() \
                or (candidate / ".git").exists():
            return candidate
    if scan_root.parent.name == "src":
        return scan_root.parent.parent
    return scan_root.parent


def _display_prefix(scan_root: Path, repo_root: Path) -> str:
    """Repo-relative POSIX prefix for scan-relative module paths."""
    try:
        rel = scan_root.relative_to(repo_root).as_posix()
    except ValueError:
        return ""
    return "" if rel == "." else rel + "/"


def run_lint(
    scan_root,
    *,
    select: Optional[Iterable[str]] = None,
    repo_root=None,
    ver_base: Optional[str] = None,
) -> LintResult:
    """Run the selected rules over *scan_root* and return the result.

    ``repo_root`` anchors path display and the
    VER001 git diff (auto-discovered from *scan_root* when omitted).
    ``ver_base`` is the VER001 base ref: when given explicitly, a git
    failure is a configuration error (exit 2); when None, VER001 tries
    ``origin/main`` then ``main`` and **skips with a notice** if
    neither resolves (no git repo, no such ref) — the local/non-CI
    case.
    """
    scan_root = Path(scan_root).resolve()
    if not scan_root.is_dir():
        raise LintConfigError(f"scan root {scan_root} is not a directory")
    repo_root = Path(repo_root).resolve() if repo_root is not None \
        else discover_repo_root(scan_root)
    prefix = _display_prefix(scan_root, repo_root)
    selected = resolve_selection(select)
    notices: list = []

    contexts = []
    for path in python_files(scan_root):
        rel = path.relative_to(scan_root).as_posix()
        try:
            contexts.append(
                ModuleContext(rel, path.read_text(encoding="utf-8")))
        except SyntaxError as exc:
            raise LintConfigError(f"cannot parse {path}: {exc}")

    rules = [cls() for cls in DEFAULT_RULES if cls.id in selected]
    parents: dict = {}
    if ReachableInputRule.id in selected \
            or CodeVersionRule.id in selected:
        parents = walk({ctx.rel_path: ctx.tree for ctx in contexts},
                       package=scan_root.name)
    if ReachableInputRule.id in selected:
        rules.append(ReachableInputRule(parents))

    # Suppress by scan-relative line, then display repo-relative.
    findings: list = []
    for ctx in contexts:
        found = [f for rule in rules for f in rule.check_module(ctx)]
        if found:
            apply_suppressions(found, parse_suppressions(ctx.source))
        for finding in found:
            finding.path = prefix + finding.path
        findings.extend(found)

    if CodeVersionRule.id in selected:
        findings.extend(_run_ver001(
            repo_root, ver_base,
            tuple(prefix + p for p in scope_prefixes(parents)), notices,
        ))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(findings, selected, notices=notices)


def _run_ver001(repo_root: Path, ver_base: Optional[str],
                prefixes: tuple, notices: list) -> list:
    """VER001 over the walk's prefixes, with notice-skip.

    An empty scope means no root module exists under the scan root: a
    configuration error, never a gate that passes on nothing.
    """
    if not prefixes:
        raise LintConfigError(
            f"{CodeVersionRule.id}: the import walk found no "
            f"result-affecting module (roots: {', '.join(ROOTS)})"
        )
    explicit = ver_base is not None
    candidates = [ver_base] if explicit else ["origin/main", "main"]
    last_error = None
    for base in candidates:
        rule = CodeVersionRule(base_ref=base, prefixes=prefixes)
        try:
            return list(rule.check_repo(repo_root))
        except LintConfigError as exc:
            if explicit:
                raise
            last_error = exc
    notices.append(
        f"{CodeVersionRule.id} skipped: no usable base ref "
        f"({last_error}); pass --ver-base REF to enable the "
        f"CODE_VERSION gate"
    )
    return []


__all__ = [
    "ALL_RULE_IDS",
    "DEFAULT_RULE_IDS",
    "LintResult",
    "discover_repo_root",
    "python_files",
    "resolve_selection",
    "run_lint",
]
