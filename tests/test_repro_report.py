"""Tests for the repro report dashboard (repro.obs.report + CLI)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.regress import compare_records
from repro.obs.report import (
    build_report,
    comparison_markdown,
    comparison_section,
    inventory_section,
    link_matrix_of,
    link_matrix_section,
    load_journal_rows,
    load_metrics_docs,
    markdown_to_html,
    provenance_section,
)
from repro.sim.journal import Journal

from .test_regress import fake_record


def _digest(**over):
    digest = {
        "workload": "Lulesh", "config": "numa-gpu", "kernels": 5,
        "sim.accesses": 100_000, "sim.writes": 9_000,
        "mem.remote.read": 40_000, "mem.remote.write": 2_000,
        "remote_fraction": 0.42, "rdc.hit": 0, "rdc.miss": 0,
        "coh.invalidate": 0, "mig.page_moves": 0,
        "link.bytes": 1_000_000, "mem.pages_replicated": 0,
    }
    digest.update(over)
    return digest


def _write_journal(path, system="numa-gpu", rdc_hit=0):
    """A minimal journal: one meta record, one done point."""
    records = [
        {"event": "meta", "key": "", "ts": 1.0,
         "fingerprint": {"schema_version": 1, "code_version": 10,
                         "git_sha": "abc123def456", "python": "3.11.7"}},
        {"event": "start", "key": f"{system}/Lulesh", "ts": 2.0,
         "attempt": 1},
        {"event": "done", "key": f"{system}/Lulesh", "ts": 3.0,
         "attempt": 1, "elapsed_s": 0.5, "config_hash": "cafe",
         "metrics": {**_digest(config=system), "rdc.hit": rdc_hit}},
    ]
    return _journal_of(path, records)


def _journal_of(path, records):
    """Write *records* through :meth:`Journal.append` (checksummed)."""
    journal = Journal(path)
    for rec in records:
        fields = dict(rec)
        journal.append(fields.pop("event"), fields.pop("key"), **fields)
    return path


class TestLoaders:
    def test_journal_rows_and_meta(self, tmp_path):
        path = _write_journal(tmp_path / "j.jsonl")
        metas, rows = load_journal_rows([path])
        assert len(metas) == 1 and metas[0]["git_sha"] == "abc123def456"
        assert len(rows) == 1
        assert rows[0]["event"] == "done"
        assert rows[0]["metrics"]["sim.accesses"] == 100_000

    def test_failed_overrides_earlier_done(self, tmp_path):
        path = _journal_of(tmp_path / "j.jsonl", [
            {"event": "done", "key": "a", "ts": 1.0, "attempt": 1},
            {"event": "failed", "key": "a", "ts": 2.0, "kind": "timeout"},
        ])
        _, rows = load_journal_rows([path])
        assert rows[0]["event"] == "failed"

    def test_link_matrix_parsed_from_rendered_labels(self):
        doc = {"metrics": {"link.bytes": {"values": {
            "src=0,dst=1": 10, "src=1,dst=0": 20,
        }}}}
        assert link_matrix_of(doc) == [[0, 10], [20, 0]]

    def test_link_matrix_absent(self):
        assert link_matrix_of({"metrics": {}}) is None

    def test_unreadable_metrics_docs_skipped(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert load_metrics_docs([bad, tmp_path / "missing.json"]) == []


class TestSections:
    def test_comparison_pivots_systems_per_workload(self, tmp_path):
        j1 = _write_journal(tmp_path / "a.jsonl", system="numa-gpu")
        j2 = _write_journal(tmp_path / "b.jsonl", system="carve-hwc",
                            rdc_hit=4_200)
        _, rows = load_journal_rows([j1, j2])
        text = comparison_section(rows)
        assert "### Lulesh" in text
        assert "carve-hwc" in text and "numa-gpu" in text
        assert "4200" in text or "4,200" in text

    def test_inventory_marks_failures(self, tmp_path):
        path = _journal_of(tmp_path / "j.jsonl", [{
            "event": "failed", "key": "numa-gpu/Euler", "ts": 1.0,
            "kind": "timeout", "attempts": 3, "elapsed_s": 9.0,
        }])
        _, rows = load_journal_rows([path])
        text = inventory_section(rows)
        assert "timeout" in text

    def test_empty_sections_degrade_gracefully(self):
        assert "No journal fingerprints" in provenance_section([])
        assert "No " in inventory_section([])
        assert "_No" in link_matrix_section([])


class TestComparisonMarkdown:
    def test_failure_names_metric_and_delta(self):
        bad = fake_record()
        bad["deterministic"]["rdc.hit"] = 9_999
        report = compare_records(fake_record(), bad)
        md = comparison_markdown([report])
        assert "rdc.hit" in md
        assert "FAIL" in md
        assert "delta" in md
        assert "carve-hwc/Lulesh" in md

    def test_all_ok_is_compact(self):
        report = compare_records(fake_record(), fake_record())
        md = comparison_markdown([report])
        assert "1/1" in md and "FAIL" not in md

    def test_no_reports(self):
        assert "No baseline comparisons" in comparison_markdown([])


class TestBuildReport:
    def test_full_document(self, tmp_path):
        journal = _write_journal(tmp_path / "j.jsonl")
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps({
            "workload": "Lulesh",
            "metrics": {"link.bytes": {"values": {
                "src=0,dst=1": 10, "src=1,dst=0": 20}}},
        }))
        md = build_report(
            journal_paths=[journal], metrics_paths=[metrics],
            regression_reports=[],
        )
        for heading in ("## Provenance", "## Run inventory",
                        "## Per-link traffic matrices",
                        "## Baseline gate"):
            assert heading in md
        assert "GPU 0" in md

    def test_html_rendering(self):
        md = "# Title\n\nSome _prose_.\n\n| a | b |\n|---|---|\n| 1 | 2 |\n"
        html_doc = markdown_to_html(md, title="T")
        assert html_doc.startswith("<!doctype html>")
        assert "<table>" in html_doc and "<td>1</td>" in html_doc
        assert "<h1>" in html_doc

    def test_html_escapes_content(self):
        html_doc = markdown_to_html("# <script>alert(1)</script>", "T")
        assert "&lt;script&gt;" in html_doc


@pytest.mark.slow
class TestReportCli:
    def test_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        journal = _write_journal(tmp_path / "j.jsonl")
        out = tmp_path / "r.md"
        html_out = tmp_path / "r.html"
        rc = main([
            "report", "--journal", str(journal),
            "--out", str(out), "--html", str(html_out),
        ])
        assert rc == 0
        md = out.read_text()
        assert "## Run inventory" in md and "numa-gpu/Lulesh" in md
        assert html_out.read_text().startswith("<!doctype html>")
