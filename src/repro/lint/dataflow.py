"""Reachability and result-affecting-scope derivation over the graph.

Two reachability modes serve different rule families:

* ``calls`` — follow only resolved call/construction edges.  Precise:
  every step of the returned chain is an actual call site.  CONC001
  uses this so an ``asyncio.to_thread`` hop (which passes the function
  as a *value*, producing no edge) genuinely cuts the chain.
* ``wide`` — additionally treat a constructed (or merely referenced)
  project class as "any method may run": all its methods become
  reachable, and a reachable function makes its module's import-time
  body reachable.  DET004/DET005 and the scope derivation use this —
  over-approximating keeps wall-clock taint from hiding behind dynamic
  dispatch.

The **result-affecting scope** is derived from :class:`ScopePolicy`
roots (``run_workload``, the engine registry, the coherence protocols)
as the modules owning any wide-reachable function, minus the policy's
orchestration excludes, then *package-closed*: once any module of a
package is result-affecting the whole package is included, so a
dynamic-dispatch resolution gap cannot silently drop a sibling module
from the VER001 gate.  The derived scope is committed as
``lint-scope.json`` (see :func:`scope_document` / :func:`diff_scope`);
``repro lint`` fails when the committed file and the derivation
disagree, making scope drift visible in review.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.lint.findings import LintConfigError
from repro.lint.graph import MODULE_BODY, ProjectGraph

SCOPE_VERSION = 1


@dataclass(frozen=True)
class ScopePolicy:
    """Roots and refinements for the whole-program analyses.

    Every entry is ``(module rel path, name)``; a *name* that is a
    class means "all methods of that class".  ``exclude_prefixes``
    removes orchestration/observability trees from the derived
    result-affecting scope (their bit-exactness is enforced by runtime
    parity gates — journal digest parity, the obs overhead check — not
    by ``CODE_VERSION``).
    """

    #: Entry points of the simulated path.
    roots: tuple = (
        ("sim/driver.py", "run_workload"),
        ("sim/driver.py", "time_of"),
        ("sim/driver.py", "run_time"),
        ("numa/system.py", "MultiGpuSystem"),
        ("core/coherence.py", "make_protocol"),
    )
    #: Prefixes (or exact paths) excluded from the derived scope.
    exclude_prefixes: tuple = (
        "sim/", "obs/", "serve/", "lint/", "cli.py", "__main__.py",
    )
    #: Modules whose ``async def`` functions are CONC001 roots.
    async_prefixes: tuple = ("serve/",)
    #: Extra CONC001 roots: sync handlers that run on the event loop.
    async_extra_roots: tuple = (("serve/service.py", "ServeApp"),)
    #: Worker-process entry points (CONC002).  The dispatched task
    #: callable crosses the pipe as a pickled value, so the actual task
    #: entry is listed explicitly where one exists.
    worker_roots: tuple = (("sim/pool.py", "_worker_main"),)
    #: Parent-side entry points (CONC002).
    parent_roots: tuple = (
        ("sim/pool.py", "WorkerPool"),
        ("sim/runner.py", "run_tasks"),
        ("sim/experiments.py", "run_suites"),
        ("sim/chaos.py", "run_drill"),
    )
    #: Modules in which ``*.Process(...)`` counts as a fork point.
    fork_modules: tuple = ("sim/pool.py",)


DEFAULT_POLICY = ScopePolicy()


@dataclass
class ReachEntry:
    """BFS bookkeeping: how a function became reachable."""

    func_id: str
    parent: Optional[str]  # parent function id
    line: int  # call-site line in the parent (0 for roots)
    note: str  # "call" | "construct" | "method-of-constructed" | ...


class Reachability:
    """Reachable set + parent pointers from one root set."""

    def __init__(self, entries: dict, roots: tuple) -> None:
        self.entries = entries  # func id -> ReachEntry
        self.roots = roots

    def __contains__(self, func_id: str) -> bool:
        return func_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def chain(self, func_id: str) -> list:
        """Root→*func_id* steps: ``[{func, path, line, note}]``."""
        steps: list = []
        cur: Optional[str] = func_id
        while cur is not None:
            entry = self.entries[cur]
            module, qualname = cur.split("::", 1)
            steps.append({
                "func": qualname,
                "path": module,
                "line": entry.line,
                "note": entry.note,
            })
            cur = entry.parent
        steps.reverse()
        return steps


def _expand_root(graph: ProjectGraph, module: str, name: str) -> list:
    """Root spec → function ids (a class means all its methods)."""
    cid = f"{module}::{name}"
    if cid in graph.classes:
        return graph.class_methods(cid)
    fid = f"{module}::{name}"
    return [fid] if fid in graph.functions else []


def reach(graph: ProjectGraph, roots, mode: str = "calls",
          stop_modules: tuple = ()) -> Reachability:
    """BFS over the graph from *roots* (``(module, name)`` pairs).

    A root whose module exists but names nothing in it is stale config
    and raises :class:`LintConfigError`; one in an absent module (a
    partial tree) is skipped.
    """
    root_ids = []
    for module, name in roots:
        expanded = _expand_root(graph, module, name)
        if not expanded and module in graph.modules:
            raise LintConfigError(
                f"lint root {module}::{name} resolves to no function"
            )
        root_ids.extend(expanded)
    return reach_from_ids(graph, root_ids, mode=mode,
                          stop_modules=stop_modules,
                          origin=tuple(roots))


def reach_from_ids(graph: ProjectGraph, root_ids, mode: str = "calls",
                   stop_modules: tuple = (),
                   origin: tuple = ()) -> Reachability:
    """BFS from pre-expanded function ids.

    *stop_modules* prefixes are traversed **into** but not through —
    unused by default, reserved for policy tuning.
    """
    entries: dict = {}
    queue: list = []

    def visit(fid: str, parent: Optional[str], line: int,
              note: str) -> None:
        if fid in entries or fid not in graph.functions:
            return
        entries[fid] = ReachEntry(fid, parent, line, note)
        queue.append(fid)

    for fid in root_ids:
        visit(fid, None, 0, "root")

    while queue:
        fid = queue.pop(0)
        fn = graph.functions[fid]
        if any(fn.module.startswith(p) for p in stop_modules) \
                and entries[fid].note != "root":
            continue
        if mode == "wide":
            body = f"{fn.module}::{MODULE_BODY}"
            visit(body, fid, fn.line, "import-time body")
        for call in fn.calls:
            if call.target is None:
                continue
            if call.construct:
                cid = call.target
                if mode == "wide":
                    for mid in graph.class_methods(cid):
                        visit(mid, fid, call.line,
                              "method of constructed class")
                else:
                    init = graph.resolve_method(cid, "__init__")
                    if init is not None:
                        visit(init, fid, call.line, "construct")
            else:
                visit(call.target, fid, call.line, "call")
        if mode == "wide":
            for cid in fn.class_refs:
                for mid in graph.class_methods(cid):
                    visit(mid, fid, fn.line, "method of referenced class")
    return Reachability(entries, origin)


# ---------------------------------------------------------------------------
# Result-affecting scope
# ---------------------------------------------------------------------------

def _excluded(module: str, policy: ScopePolicy) -> bool:
    return any(
        module == p or module.startswith(p)
        for p in policy.exclude_prefixes
    )


def _package_of(module: str) -> str:
    """Top-level package dir of a module path ('' for top level)."""
    return module.split("/", 1)[0] if "/" in module else ""


@dataclass
class DerivedScope:
    """The derived result-affecting set, at every granularity."""

    #: module rel path -> "reachable" | "package-closure"
    modules: dict = field(default_factory=dict)
    #: scan-relative prefixes (package dirs + top-level files).
    prefixes: list = field(default_factory=list)
    #: function-level wide-reachable set (for the taint rules).
    reachable: Optional[Reachability] = None


def derive_scope(graph: ProjectGraph,
                 policy: ScopePolicy = DEFAULT_POLICY) -> DerivedScope:
    """Result-affecting modules/prefixes from the policy roots."""
    reached = reach(graph, policy.roots, mode="wide")
    modules: dict = {}
    for fid in reached.entries:
        module = fid.split("::", 1)[0]
        if not _excluded(module, policy):
            modules[module] = "reachable"
    packages = {
        _package_of(m) for m in modules if _package_of(m)
    }
    for module in graph.modules:
        if module in modules or _excluded(module, policy):
            continue
        if _package_of(module) in packages:
            modules[module] = "package-closure"
    prefixes = sorted(
        {f"{pkg}/" for pkg in packages}
        | {m for m in modules if "/" not in m}
    )
    return DerivedScope(
        modules=dict(sorted(modules.items())),
        prefixes=prefixes,
        reachable=reached,
    )


def scope_document(scope: DerivedScope, graph: ProjectGraph,
                   policy: ScopePolicy, *,
                   repo_prefix: str = "src/repro/") -> dict:
    """The committed ``lint-scope.json`` payload (sorted, diffable)."""
    return {
        "version": SCOPE_VERSION,
        "package": graph.package,
        "roots": sorted(f"{m}::{n}" for m, n in policy.roots),
        "exclude": sorted(policy.exclude_prefixes),
        "modules": scope.modules,
        "result_affecting": [
            repo_prefix + p for p in scope.prefixes
        ],
    }


def load_scope(path) -> dict:
    """Parse a committed scope file (raises ValueError when invalid)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "result_affecting" not in doc:
        raise ValueError(
            f"{path}: expected an object with a result_affecting list"
        )
    if doc.get("version") != SCOPE_VERSION:
        raise ValueError(
            f"{path}: scope version {doc.get('version')!r}, expected "
            f"{SCOPE_VERSION}"
        )
    return doc


def save_scope(path, document: dict) -> None:
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def diff_scope(committed: dict, derived: dict) -> list:
    """Human-readable drift lines between the two scope documents."""
    problems = []
    old_mods = set(committed.get("modules", ()))
    new_mods = set(derived.get("modules", ()))
    for module in sorted(new_mods - old_mods):
        problems.append(f"module {module} is result-affecting but "
                        f"missing from the committed scope")
    for module in sorted(old_mods - new_mods):
        problems.append(f"committed scope lists {module}, which is no "
                        f"longer derived as result-affecting")
    if committed.get("result_affecting") != \
            derived.get("result_affecting"):
        problems.append(
            "result_affecting prefixes differ: committed "
            f"{committed.get('result_affecting')} vs derived "
            f"{derived.get('result_affecting')}"
        )
    for key in ("roots", "exclude"):
        if sorted(committed.get(key, ())) != sorted(derived.get(key, ())):
            problems.append(f"{key} differ between committed scope and "
                            f"policy derivation")
    return problems


def render_chain(chain: list) -> str:
    """Multi-line source→sink rendering of a finding chain."""
    lines = []
    for i, step in enumerate(chain):
        head = "  " * min(i, 8)
        loc = f"{step['path']}:{step['line']}" if step.get("line") \
            else step.get("path", "")
        note = step.get("note", "")
        suffix = f"  [{note}]" if note and note not in ("call",) else ""
        lines.append(f"{head}{step['func']} ({loc}){suffix}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_POLICY",
    "DerivedScope",
    "Reachability",
    "ScopePolicy",
    "derive_scope",
    "diff_scope",
    "load_scope",
    "reach",
    "reach_from_ids",
    "render_chain",
    "save_scope",
    "scope_document",
]
