"""``repro report`` — aggregate journals + metrics into a dashboard.

The observability layer produces two kinds of durable artefacts:
runner journals (``.repro-journal/*.jsonl``, one record per attempt with
a metric digest on ``done``) and ``--metrics-out`` JSON dumps of the
metric registry.  This module renders them — plus baseline comparisons from
:mod:`repro.obs.regress` — into one markdown (optionally HTML) report:

* **provenance** — the environment fingerprint each journal was written
  under (code version, git sha);
* **run inventory** — per-point status, attempts, wall time, and the
  headline traffic digest (``rdc.hit``, ``link.bytes``, remote
  fraction) straight from journal ``done`` records;
* **CARVE-vs-baseline tables** — for every workload journalled under
  more than one system, the side-by-side traffic comparison the paper's
  figures are built from;
* **per-link traffic matrices** — from ``link.bytes{src,dst}`` samples
  in metrics dumps;
* **baseline gate** — rendered :class:`~repro.obs.regress.
  RegressionReport` tables with per-metric deltas.

Everything degrades gracefully: a section with no input data renders a
one-line "no data" note instead of failing, so the command is usable on
partial artefacts (e.g. only a journal, no metrics dump).
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.obs.regress import RegressionReport

#: Digest columns shown in run-inventory and comparison tables, in
#: display order.  All are keys of the journal ``metrics`` digest.
_DIGEST_COLUMNS = (
    "sim.accesses",
    "remote_fraction",
    "rdc.hit",
    "rdc.miss",
    "coh.invalidate",
    "mig.page_moves",
    "link.bytes",
)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def load_journal_rows(paths: Iterable) -> tuple[list[dict], list[dict]]:
    """(meta fingerprints, final per-key rows) from journal files.

    A key's *final* row is its last terminal record (``done`` or
    ``failed``); earlier attempts only bump the attempt count shown.
    """
    metas: list[dict] = []
    final: dict[str, dict] = {}
    from repro.sim.journal import Journal

    for path in paths:
        journal = Journal(path)
        for rec in journal.records():
            event = rec["event"]
            if event == "meta":
                fp = rec.get("fingerprint")
                if isinstance(fp, dict):
                    metas.append({**fp, "journal": str(path)})
            elif event in ("done", "failed"):
                final[rec["key"]] = {**rec, "journal": str(path)}
    rows = [final[key] for key in sorted(final)]
    return metas, rows


def load_metrics_docs(paths: Iterable) -> list[dict]:
    """Parse ``--metrics-out`` JSON dumps (unreadable files skipped)."""
    docs = []
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict):
            doc["_path"] = str(path)
            docs.append(doc)
    return docs


def link_matrix_of(doc: dict) -> Optional[list[list[int]]]:
    """The directed link-byte matrix held in one metrics dump."""
    samples = doc.get("metrics", {}).get("link.bytes", {}).get("values")
    if not samples:
        return None
    cells = {}
    n = 0
    for key, value in samples.items():
        try:
            parts = dict(p.split("=", 1) for p in key.split(","))
            s, d = int(parts["src"]), int(parts["dst"])
        except (KeyError, ValueError):
            continue
        cells[(s, d)] = value
        n = max(n, s + 1, d + 1)
    if not cells:
        return None
    return [[cells.get((s, d), 0) for d in range(n)] for s in range(n)]


# ---------------------------------------------------------------------------
# Markdown building blocks
# ---------------------------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A GitHub-flavoured markdown table."""
    out = ["| " + " | ".join(str(h) for h in header) + " |",
           "|" + "---|" * len(header)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def _digest_cells(metrics: Optional[dict]) -> list[str]:
    if not metrics:
        return ["-"] * len(_DIGEST_COLUMNS)
    return [_fmt(metrics.get(col, "-")) for col in _DIGEST_COLUMNS]


def _trace_cell(meta: dict) -> str:
    """The provenance trace cell: the batch's trace id, linked to the
    assembled timeline (``repro trace --journal`` writes it next to the
    report; the serve dashboard serves it at the sibling ``trace``
    route)."""
    trace_id = meta.get("trace_id")
    if not trace_id:
        return "-"
    stem = Path(str(meta.get("journal", "journal"))).stem
    return f"[{trace_id}]({stem}.trace.json)"


def provenance_section(metas: list[dict]) -> str:
    lines = ["## Provenance", ""]
    if not metas:
        lines.append("_No journal fingerprints found._")
        return "\n".join(lines)
    rows = [
        [m.get("journal", "-"), m.get("code_version", "-"),
         m.get("git_sha") or "-", m.get("python", "-"), _trace_cell(m)]
        for m in metas
    ]
    lines.append(_md_table(
        ["journal", "code version", "git sha", "python", "trace"], rows
    ))
    return "\n".join(lines)


def inventory_section(rows: list[dict]) -> str:
    lines = ["## Run inventory", ""]
    if not rows:
        lines.append("_No journalled points found._")
        return "\n".join(lines)
    table = []
    for rec in rows:
        if rec["event"] == "done":
            status = "ok"
            attempts = rec.get("attempt", "-")
            elapsed = rec.get("elapsed_s")
        else:
            status = f"FAILED ({rec.get('kind', '?')})"
            attempts = rec.get("attempts", "-")
            elapsed = rec.get("elapsed_s")
        table.append(
            [rec["key"], status, attempts,
             f"{elapsed:.3g} s" if isinstance(elapsed, (int, float)) else "-"]
            + _digest_cells(rec.get("metrics"))
        )
    lines.append(_md_table(
        ["point", "status", "attempts", "wall"] + list(_DIGEST_COLUMNS),
        table,
    ))
    return "\n".join(lines)


def comparison_section(rows: list[dict]) -> str:
    """Per-workload system-vs-system traffic tables from journal rows.

    Journal keys are ``<system>/<workload>``; any workload observed
    under two or more systems gets a side-by-side table — the CARVE-vs-
    baseline view when the journals cover both.
    """
    lines = ["## Per-workload system comparison", ""]
    by_workload: dict[str, list[tuple[str, dict]]] = {}
    for rec in rows:
        if rec["event"] != "done" or not rec.get("metrics"):
            continue
        key = rec["key"]
        if "/" not in key:
            continue
        system, workload = key.split("/", 1)
        by_workload.setdefault(workload, []).append((system, rec["metrics"]))
    multi = {w: rs for w, rs in by_workload.items() if len(rs) > 1}
    if not multi:
        lines.append(
            "_No workload journalled under more than one system._"
        )
        return "\n".join(lines)
    for workload in sorted(multi):
        lines.append(f"### {workload}")
        lines.append("")
        table = [
            [system] + _digest_cells(metrics)
            for system, metrics in sorted(multi[workload])
        ]
        lines.append(_md_table(["system"] + list(_DIGEST_COLUMNS), table))
        lines.append("")
    return "\n".join(lines).rstrip()


def link_matrix_section(docs: list[dict]) -> str:
    lines = ["## Per-link traffic matrices", ""]
    rendered = 0
    for doc in docs:
        matrix = link_matrix_of(doc)
        if matrix is None:
            continue
        rendered += 1
        title = doc.get("workload") or doc.get("system") or doc["_path"]
        lines.append(f"### {title} ({doc['_path']})")
        lines.append("")
        n = len(matrix)
        header = ["src \\ dst"] + [f"GPU {d}" for d in range(n)]
        table = [
            [f"GPU {s}"] + [f"{b:,}" for b in row]
            for s, row in enumerate(matrix)
        ]
        lines.append(_md_table(header, table))
        lines.append("")
    if not rendered:
        lines.append("_No `link.bytes{src,dst}` samples in the metrics "
                     "dumps._")
    return "\n".join(lines).rstrip()


def comparison_markdown(reports: list[RegressionReport]) -> str:
    """Baseline-gate tables: one row per gated metric, deltas named."""
    lines = ["## Baseline gate", ""]
    if not reports:
        lines.append("_No baseline comparisons were run._")
        return "\n".join(lines)
    failed = sum(1 for r in reports if not r.ok)
    lines.append(
        f"**{len(reports) - failed}/{len(reports)} point(s) passed**"
        + (f" — {failed} FAILED" if failed else "")
    )
    lines.append("")
    for report in reports:
        verdict = "ok" if report.ok else "**FAIL**"
        lines.append(f"### {report.system}/{report.workload} — {verdict}")
        lines.append("")
        if report.ok:
            lines.append("All gated metrics ok.")
        else:
            table = [
                [f.metric, f.tier, _fmt(f.baseline) if f.baseline is not None
                 else "-", _fmt(f.current) if f.current is not None else "-",
                 f.delta_str(), "ok" if f.ok else "**FAIL**"]
                for f in report.findings
            ]
            lines.append(_md_table(
                ["metric", "tier", "baseline", "current", "delta",
                 "verdict"], table,
            ))
        for note in report.notes:
            lines.append(f"- note: {note}")
        lines.append("")
    return "\n".join(lines).rstrip()


# ---------------------------------------------------------------------------
# Whole-report assembly
# ---------------------------------------------------------------------------

def build_report(
    journal_paths: Iterable = (),
    metrics_paths: Iterable = (),
    regression_reports: Optional[list[RegressionReport]] = None,
    title: str = "repro report",
) -> str:
    """Assemble the full markdown dashboard from the given artefacts."""
    metas, rows = load_journal_rows(journal_paths)
    docs = load_metrics_docs(metrics_paths)
    when = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    sections = [
        f"# {title}",
        "",
        f"_Generated {when}._",
        "",
        provenance_section(metas),
        "",
        inventory_section(rows),
        "",
        comparison_section(rows),
        "",
        link_matrix_section(docs),
        "",
        comparison_markdown(regression_reports or []),
        "",
    ]
    return "\n".join(sections)


def markdown_to_html(md: str, title: str = "repro report") -> str:
    """A minimal, dependency-free markdown renderer (headings, tables,
    emphasis-free paragraphs).  Good enough for CI artefact viewing; use
    the markdown output for anything richer."""
    import re

    body: list[str] = []
    table: list[str] = []
    link_re = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")

    def render_text(text: str) -> str:
        """Escape, then rewrite ``[text](href)`` markdown links."""
        return link_re.sub(
            r"<a href='\2'>\1</a>", html.escape(text)
        )

    def flush_table() -> None:
        if not table:
            return
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in table
            if not set(line.replace("|", "").strip()) <= {"-", " ", ":"}
        ]
        body.append("<table>")
        for i, cells in enumerate(rows):
            tag = "th" if i == 0 else "td"
            body.append(
                "<tr>" + "".join(
                    f"<{tag}>{render_text(c).replace('**', '')}</{tag}>"
                    for c in cells
                ) + "</tr>"
            )
        body.append("</table>")
        table.clear()

    for line in md.splitlines():
        if line.startswith("|"):
            table.append(line)
            continue
        flush_table()
        stripped = line.strip()
        if stripped.startswith("#"):
            level = len(stripped) - len(stripped.lstrip("#"))
            text = html.escape(stripped.lstrip("#").strip())
            body.append(f"<h{level}>{text}</h{level}>")
        elif stripped.startswith("- "):
            body.append(f"<li>{render_text(stripped[2:])}</li>")
        elif stripped:
            body.append(f"<p>{render_text(stripped)}</p>")
    flush_table()
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2rem;max-width:70rem}"
        "table{border-collapse:collapse;margin:0.5rem 0}"
        "th,td{border:1px solid #999;padding:0.25rem 0.5rem;"
        "text-align:right}th{background:#eee}</style></head><body>"
        + "\n".join(body) + "</body></html>"
    )


__all__ = [
    "build_report",
    "comparison_markdown",
    "comparison_section",
    "inventory_section",
    "link_matrix_of",
    "link_matrix_section",
    "load_journal_rows",
    "load_metrics_docs",
    "markdown_to_html",
    "provenance_section",
]
