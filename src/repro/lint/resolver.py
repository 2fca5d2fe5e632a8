"""The one metric-name resolver (OBS001 and ``tools/check_docs.py``).

Metric names are stable contracts declared in
:mod:`repro.obs.metrics` and documented in ``docs/metrics.md``.  Two
consumers need to decide whether a token *is* a metric name and whether
it *resolves*:

* the **OBS001** lint rule, over string literals in Python source, and
* the docs checker, over backticked tokens in Markdown.

Both build a :class:`MetricNameResolver` from the live contract
(``SPECS`` + ``EVENT_KINDS``) so there is exactly one definition of
"known name", "known prefix" and "declared labels" in the repository.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

#: A token that *looks like* a metric: dotted lower-case segments with
#: an optional rendered label set (``link.bytes{src,dst}``).  Markdown
#: scanning wraps this in backticks; Python scanning applies it to
#: whole string literals.
METRIC_TOKEN_RE = re.compile(
    r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+(?:\{[a-z_][a-z_,]*\})?$"
)

#: The backticked-token form used when scanning Markdown text.
MARKDOWN_TOKEN_RE = re.compile(
    r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+(?:\{[a-z_][a-z_,]*\})?)`"
)


class MetricNameResolver:
    """Resolves metric-looking tokens against the declared contract."""

    def __init__(self, specs=None, event_kinds=None) -> None:
        if specs is None or event_kinds is None:
            # Late import: the lint framework itself must stay importable
            # without the simulator when scanning fixture trees.
            from repro.obs.events import EVENT_KINDS
            from repro.obs.metrics import SPECS

            specs = SPECS if specs is None else specs
            event_kinds = EVENT_KINDS if event_kinds is None else event_kinds
        self.metric_labels = {spec.name: tuple(spec.labels)
                              for spec in specs}
        self.event_kinds = frozenset(event_kinds)
        self.prefixes = (
            {name.split(".", 1)[0] for name in self.metric_labels}
            | {kind.split(".", 1)[0]
               for kind in self.event_kinds if "." in kind}
        )

    def looks_like_metric(self, token: str) -> bool:
        """Dotted lower-case with a known subsystem prefix?

        Tokens with unknown prefixes (``repro.obs.registry``,
        ``numpy.ndarray``) are module paths or similar, not metrics,
        and are never flagged; nor are Python file names
        (``runner.py``), whatever their stem.
        """
        if not METRIC_TOKEN_RE.match(token) or token.endswith(".py"):
            return False
        name = token.partition("{")[0]
        return name.split(".", 1)[0] in self.prefixes

    def resolve(self, token: str) -> Optional[str]:
        """Problem description for *token*, or ``None`` when it is valid.

        Only call for tokens where :meth:`looks_like_metric` is true.
        Validates both the name and, when a ``{label,label}`` set is
        rendered, that the labels match the spec's declared labels.
        """
        name, _, labels_part = token.partition("{")
        if name not in self.metric_labels:
            if name in self.event_kinds and not labels_part:
                return None
            return (f"unknown metric `{token}` (not in repro.obs "
                    f"registry or event kinds)")
        if labels_part:
            rendered = tuple(labels_part.rstrip("}").split(","))
            declared = self.metric_labels[name]
            if rendered != declared:
                return (f"`{token}` labels {rendered} != spec labels "
                        f"{declared}")
        return None

    def markdown_problems(self, text: str) -> Iterable[tuple]:
        """``(token, problem)`` pairs for one Markdown document."""
        for match in MARKDOWN_TOKEN_RE.finditer(text):
            token = match.group(1)
            if not self.looks_like_metric(token):
                continue
            problem = self.resolve(token)
            if problem is not None:
                yield token, problem


__all__ = [
    "MARKDOWN_TOKEN_RE",
    "METRIC_TOKEN_RE",
    "MetricNameResolver",
]
