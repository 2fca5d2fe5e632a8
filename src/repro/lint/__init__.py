"""``repro.lint`` — determinism & invariant lint for the reproduction.

The reproduction chain rests on invariants that ordinary tests cannot
economically cover: bit-identical ``ENGINE_REFERENCE`` /
``ENGINE_VECTORIZED`` results, the ``CODE_VERSION``-keyed sim cache,
and the bit-exact baseline gates of ``docs/regression.md``.  This
package turns those conventions into machine-checked guarantees — an
AST-visitor rule framework plus one import walk from the simulated
path's root modules (:mod:`repro.lint.scope`):

========  ==============================================================
DET001    no wall-clock reads on the deterministic simulated path
DET002    no process-global or unseeded randomness under ``src/repro/``
DET003    no unsorted set/dict-key iteration feeding journal/report output
DET004    no clock, entropy or environment read in any module the
          simulated path imports
COH001    exhaustive matches over the GPU-VI/IMST protocol enums
OBS001    metric-name string literals resolve against the contract
VER001    result-affecting diffs must bump ``CODE_VERSION`` (CI-only);
          the result-affecting scope is derived by the import walk
========  ==============================================================

Run it as ``python -m repro lint``; suppress a single finding with a
``# lint: disable=<id>`` comment (with a reason) or grandfather batches
via the committed ``lint-baseline.json``.  ``docs/lint.md`` documents
every rule, its rationale and the import walk.  The OBS001 name
resolver is also what ``tools/check_docs.py`` uses for Markdown, so
Python source and docs agree on one definition of "known metric".
"""

from repro.lint.baseline import load_baseline, save_baseline
from repro.lint.engine import (
    ALL_RULE_IDS,
    DEFAULT_RULE_IDS,
    LintResult,
    discover_repo_root,
    run_lint,
)
from repro.lint.findings import (
    Finding,
    LintConfigError,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
)
from repro.lint.resolver import MetricNameResolver
from repro.lint.rules import DEFAULT_RULES, ModuleContext, Rule
from repro.lint.scope import scope_prefixes, walk
from repro.lint.versioning import CodeVersionRule

__all__ = [
    "ALL_RULE_IDS",
    "DEFAULT_RULES",
    "DEFAULT_RULE_IDS",
    "CodeVersionRule",
    "Finding",
    "LintConfigError",
    "LintResult",
    "MetricNameResolver",
    "ModuleContext",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "discover_repo_root",
    "load_baseline",
    "run_lint",
    "save_baseline",
    "scope_prefixes",
    "walk",
]
