#!/usr/bin/env python
"""Docs consistency checker (run by the CI docs job).

Two families of checks over the repository's Markdown:

1. **Intra-repo links** — every relative Markdown link target
   (``[text](path)``, anchors stripped) must exist on disk.  External
   links (``http(s)://``, ``mailto:``) are ignored.
2. **Metric names** — every backticked token that *looks like* a metric
   (dotted lower-case name whose first segment is a known metric
   subsystem, e.g. `` `rdc.hit` `` or `` `link.bytes{src,dst}` ``) must
   resolve against the live registry (`repro.obs.metrics.METRIC_NAMES`)
   or the trace-event kinds (`repro.obs.events.EVENT_KINDS`), or be a
   benchmark ledger name that ``BENCHMARK.json`` declares under
   ``end_to_end`` or ``per_layer`` (read, never written); rendered
   labels must match the spec's declared labels.  The reverse holds
   too: every registered metric and event kind must be documented in
   ``docs/metrics.md``.  And every registered metric must be emitted:
   its name must appear as a string literal in some ``src/repro``
   module other than the contract ``obs/metrics.py`` itself (found by
   AST walk), so a contract entry no code emits cannot linger.
3. **Service endpoints** — every backticked ``METHOD /path`` token
   (e.g. `` `GET /jobs/<id>` ``) must match a route declared in
   ``repro.serve.routes.ROUTES``, and every declared route must appear
   in the API reference ``docs/serve.md`` — same two-direction contract
   as the metrics table.
4. **Lint rule ids** — every rule id registered in
   ``repro.lint.engine.ALL_RULE_IDS`` must have a row in the rule
   table of ``docs/lint.md``, and every id-shaped token in that table
   must be a registered rule — so a rule can neither land undocumented
   nor linger in the docs after removal.
5. **CLI subcommands** — every subcommand registered in
   ``src/repro/cli.py`` (found by AST walk over ``add_parser`` calls,
   so this file needs no simulator imports) must be mentioned in
   ``README.md`` as `` `repro <name>` `` or ``python -m repro <name>``,
   so new subcommands can't silently miss the quick-start.

Metric names are stable contracts (see docs/metrics.md); this checker
is what enforces the contract in both directions.  Token resolution is
shared with the OBS001 lint rule via
:class:`repro.lint.resolver.MetricNameResolver`, so Markdown docs and
Python string literals are held to the same definition of "known
metric" (the ledger names are a docs-only allowance: OBS001 still
resolves against the registry alone).

Usage:  python tools/check_docs.py [repo_root]
Exit status 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint.engine import ALL_RULE_IDS  # noqa: E402
from repro.lint.resolver import MetricNameResolver  # noqa: E402
from repro.obs.events import EVENT_KINDS  # noqa: E402
from repro.obs.metrics import SPECS  # noqa: E402
from repro.serve.routes import ROUTE_NAMES, ROUTES  # noqa: E402

#: Directories never scanned for Markdown.
SKIP_DIRS = {".git", ".simcache", ".repro-journal", "results",
             "node_modules", "__pycache__"}

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked endpoint references: `` `GET /jobs/<id>/result` ``.
_ENDPOINT_RE = re.compile(
    r"`((?:GET|POST|PUT|DELETE|PATCH|HEAD) /[^`]*)`"
)

#: Shared resolver instance (the contract is fixed for the process).
_RESOLVER = MetricNameResolver(SPECS, EVENT_KINDS)

#: A rule-table row in docs/lint.md: ``| DET004 | error | ... |``.
_RULE_ROW_RE = re.compile(r"^\|\s*([A-Z]{3,5}\d{3})\s*\|", re.MULTILINE)


def markdown_files(root: Path) -> list[Path]:
    """Every tracked-ish Markdown file under *root* (skip caches etc.)."""
    out = []
    for path in sorted(root.rglob("*.md")):
        rel = path.relative_to(root)
        if any(part in SKIP_DIRS for part in rel.parts):
            continue
        out.append(path)
    return out


def check_links(md: Path, root: Path) -> list[str]:
    """Broken relative link targets in one file, as problem strings."""
    problems = []
    text = md.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = (md.parent / target).resolve()
        if not resolved.exists():
            problems.append(
                f"{md.relative_to(root)}: broken link -> {match.group(1)}"
            )
    return problems


def ledger_names(root: Path) -> frozenset[str]:
    """The metric names *root*'s ``BENCHMARK.json`` declares, if any."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return frozenset()
    bench = json.loads(path.read_text(encoding="utf-8"))
    return frozenset(
        m["name"] for key in ("end_to_end", "per_layer")
        for m in bench.get(key, ())
    )


def check_metric_tokens(md: Path, root: Path) -> list[str]:
    """Backticked metric-looking tokens that don't resolve, per file."""
    text = md.read_text(encoding="utf-8")
    ledger = ledger_names(root)
    return [
        f"{md.relative_to(root)}: {problem}"
        for token, problem in _RESOLVER.markdown_problems(text)
        if token not in ledger
    ]


def check_reference_complete(root: Path) -> list[str]:
    """Every registered metric / event kind appears in docs/metrics.md."""
    ref = root / "docs" / "metrics.md"
    if not ref.exists():
        return ["docs/metrics.md is missing"]
    text = ref.read_text(encoding="utf-8")
    problems = []
    for spec in SPECS:
        rendered = spec.name + (
            "{" + ",".join(spec.labels) + "}" if spec.labels else ""
        )
        if f"`{rendered}`" not in text:
            problems.append(
                f"docs/metrics.md: registered metric `{rendered}` "
                f"is undocumented"
            )
    for kind in sorted(EVENT_KINDS):
        if f"`{kind}`" not in text:
            problems.append(
                f"docs/metrics.md: trace-event kind `{kind}` is undocumented"
            )
    return problems


def check_metrics_emitted(root: Path) -> list[str]:
    """Every registered metric is named by some non-contract module."""
    import ast

    package = root / "src" / "repro"
    contract = package / "obs" / "metrics.py"
    literals = set()
    for path in sorted(package.rglob("*.py")):
        if path == contract:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return [
        f"src/repro/obs/metrics.py: registered metric `{spec.name}` is "
        f"emitted nowhere (no src/repro string literal names it)"
        for spec in SPECS if spec.name not in literals
    ]


def check_endpoint_tokens(md: Path, root: Path) -> list[str]:
    """Backticked ``METHOD /path`` tokens that match no declared route."""
    problems = []
    text = md.read_text(encoding="utf-8")
    for match in _ENDPOINT_RE.finditer(text):
        token = match.group(1)
        if token not in ROUTE_NAMES:
            problems.append(
                f"{md.relative_to(root)}: endpoint `{token}` matches no "
                f"route in repro.serve.routes.ROUTES"
            )
    return problems


def check_routes_documented(root: Path) -> list[str]:
    """Every declared route appears in the API reference docs/serve.md."""
    ref = root / "docs" / "serve.md"
    if not ref.exists():
        return ["docs/serve.md is missing"]
    text = ref.read_text(encoding="utf-8")
    problems = []
    for spec in ROUTES:
        if f"`{spec.rendered()}`" not in text:
            problems.append(
                f"docs/serve.md: declared route `{spec.rendered()}` "
                f"is undocumented"
            )
    return problems


def check_lint_rules_documented(root: Path) -> list[str]:
    """docs/lint.md rule table <-> registered rule ids, both ways."""
    ref = root / "docs" / "lint.md"
    if not ref.exists():
        return ["docs/lint.md is missing"]
    documented = set(_RULE_ROW_RE.findall(ref.read_text(encoding="utf-8")))
    registered = set(ALL_RULE_IDS)
    problems = []
    for rule_id in sorted(registered - documented):
        problems.append(
            f"docs/lint.md: registered lint rule {rule_id} has no row "
            f"in the rule table"
        )
    for rule_id in sorted(documented - registered):
        problems.append(
            f"docs/lint.md: rule table documents {rule_id}, which is "
            f"not a registered lint rule"
        )
    return problems


def cli_subcommands(root: Path) -> list[str]:
    """Subcommand names registered in cli.py, via AST (no imports).

    The CLI module imports numpy transitively and the docs CI job
    installs no third-party packages, so the names are read from the
    source text: every ``<x>.add_parser("name", ...)`` call.
    """
    import ast

    source = (root / "src" / "repro" / "cli.py").read_text(encoding="utf-8")
    names = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_parser"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.append(node.args[0].value)
    return sorted(set(names))


def check_cli_commands_documented(root: Path) -> list[str]:
    """Every CLI subcommand is mentioned in README.md."""
    readme = root / "README.md"
    if not readme.exists():
        return ["README.md is missing"]
    text = readme.read_text(encoding="utf-8")
    problems = []
    for name in cli_subcommands(root):
        if (f"`repro {name}`" not in text
                and f"python -m repro {name}" not in text):
            problems.append(
                f"README.md: CLI subcommand `{name}` (registered in "
                f"src/repro/cli.py) is missing from the quick-start — "
                f"mention it as `repro {name}` or `python -m repro {name}`"
            )
    return problems


def run_checks(root: Path) -> list[str]:
    problems: list[str] = []
    for md in markdown_files(root):
        problems.extend(check_links(md, root))
        problems.extend(check_metric_tokens(md, root))
        problems.extend(check_endpoint_tokens(md, root))
    problems.extend(check_reference_complete(root))
    problems.extend(check_metrics_emitted(root))
    problems.extend(check_routes_documented(root))
    problems.extend(check_lint_rules_documented(root))
    problems.extend(check_cli_commands_documented(root))
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else REPO_ROOT
    problems = run_checks(root)
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} docs problem(s).", file=sys.stderr)
        return 1
    n = len(markdown_files(root))
    print(f"docs ok: {n} markdown files, "
          f"{len(SPECS)} metrics + {len(EVENT_KINDS)} event kinds + "
          f"{len(ROUTES)} routes + {len(ALL_RULE_IDS)} lint rules + "
          f"{len(cli_subcommands(root))} CLI subcommands cross-checked.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
