"""The import walk behind VER001 and DET004.

Starting at the modules of the simulated path (:data:`ROOTS`), the
walk follows every ``import`` and ``from … import`` of a project
module — function-level and relative imports included — and remembers
which module first imported each one.  Two rules use it:

* **VER001** gates the *result-affecting scope*: every reached module
  outside the orchestration trees of :data:`EXCLUDE`, closed over
  top-level packages, so a sibling reached only through dynamic
  dispatch is still gated.  Excluded modules are walked *through*;
  they are only left out of the scope (their bit-exactness is held by
  runtime parity gates, not by ``CODE_VERSION``).
* **DET004** flags clock, entropy and environment reads in every
  reached module (:class:`~repro.lint.rules.ReachableInputRule`).

The scope is derived on every run, so no committed copy can drift.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

#: Modules every simulated result starts from (scan-relative).
ROOTS = ("sim/driver.py", "numa/system.py", "core/coherence.py")

#: Orchestration and tooling trees left out of the scope.
EXCLUDE = ("sim/", "obs/", "serve/", "lint/", "cli.py", "__main__.py")


def _module_file(parts: list, modules) -> Optional[str]:
    """Scan-relative file of the dotted module *parts*, or None."""
    base = "/".join(parts)
    candidates = (f"{base}.py", f"{base}/__init__.py") if parts \
        else ("__init__.py",)
    return next((c for c in candidates if c in modules), None)


def _imports_of(rel: str, tree: ast.AST, package: str, modules) -> list:
    """Project modules that module *rel* imports anywhere in its body."""
    here = rel.split("/")[:-1]  # the package holding *rel*
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == package:
                    found.append(_module_file(parts[1:], modules))
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        tail = node.module.split(".") if node.module else []
        if node.level == 0:
            if tail[0] != package:
                continue
            base = tail[1:]
        elif node.level - 1 <= len(here):
            base = here[:len(here) - (node.level - 1)] + tail
        else:
            continue
        for alias in node.names:
            # ``from pkg import name``: a submodule when one exists,
            # else an attribute of the imported module itself.
            found.append(_module_file(base + [alias.name], modules)
                         or _module_file(base, modules))
    return [m for m in found if m is not None]


def walk(trees: Dict[str, ast.AST], package: str) -> Dict[str, Optional[str]]:
    """Every module reachable from :data:`ROOTS` → the module that
    first imported it (None for a root).  Absent roots are skipped."""
    parents: Dict[str, Optional[str]] = {
        root: None for root in ROOTS if root in trees
    }
    queue = list(parents)
    for rel in queue:
        for dep in _imports_of(rel, trees[rel], package, trees):
            if dep not in parents:
                parents[dep] = rel
                queue.append(dep)
    return parents


def import_path(parents: Dict[str, Optional[str]], rel: str) -> str:
    """One-line import path from a root to *rel* (``a.py -> b.py``)."""
    chain = [rel]
    while parents[chain[-1]] is not None:
        chain.append(parents[chain[-1]])
    return " -> ".join(reversed(chain))


def scope_prefixes(parents: Dict[str, Optional[str]]) -> list:
    """Scan-relative result-affecting prefixes: the top-level package
    (``core/``) or top-level file (``config.py``) of every reached
    module outside :data:`EXCLUDE`."""
    return sorted({
        rel.split("/", 1)[0] + "/" if "/" in rel else rel
        for rel in parents if not rel.startswith(EXCLUDE)
    })


__all__ = [
    "EXCLUDE",
    "ROOTS",
    "import_path",
    "scope_prefixes",
    "walk",
]
