"""Tests for the two-tier regression checker and the baseline CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.baseline import (
    DETERMINISTIC_KEYS,
    RECORD_KIND,
    SCHEMA_VERSION,
)
from repro.obs.regress import compare_records, summarize_reports


def fake_record(**overrides) -> dict:
    det = {key: 0 for key in DETERMINISTIC_KEYS}
    det.update({
        "kernels": 5,
        "sim.accesses": 100_000,
        "sim.writes": 9_000,
        "remote_fraction": 0.421337,
        "rdc.hit": 4_200,
        "link.bytes": 22,
    })
    rec = {
        "kind": RECORD_KIND,
        "schema_version": SCHEMA_VERSION,
        "system": "carve-hwc",
        "workload": "Lulesh",
        "recorded_at": 0.0,
        "fingerprint": {
            "schema_version": SCHEMA_VERSION,
            "code_version": 10,
            "git_sha": "abc123",
            "python": "3.11",
            "config_hash": "deadbeefdeadbeef",
            "engine": "vectorized",
        },
        "deterministic": det,
        "link_matrix": [[0, 10], [12, 0]],
        "perf": {"modelled_total_s": 2.0},
    }
    rec.update(overrides)
    return rec


class TestExactTier:
    def test_identical_records_pass(self):
        report = compare_records(fake_record(), fake_record())
        assert report.ok
        assert not report.failures()
        assert "ok" in report.render()

    def test_rdc_hit_drift_fails_with_readable_diff(self):
        current = fake_record()
        current["deterministic"]["rdc.hit"] += 1
        report = compare_records(fake_record(), current)
        assert not report.ok
        failed = {f.metric for f in report.failures()}
        assert failed == {"rdc.hit"}
        text = report.render()
        assert "rdc.hit" in text and "FAIL" in text
        assert "4200" in text and "4201" in text

    def test_every_deterministic_key_gates(self):
        for key in DETERMINISTIC_KEYS:
            current = fake_record()
            base_value = current["deterministic"][key]
            current["deterministic"][key] = (
                base_value + 1 if isinstance(base_value, int)
                else base_value + 0.1
            )
            report = compare_records(fake_record(), current)
            assert not report.ok, key
            assert key in {f.metric for f in report.failures()}

    def test_link_matrix_drift_fails(self):
        current = fake_record(link_matrix=[[0, 11], [12, 0]])
        report = compare_records(fake_record(), current)
        assert {f.metric for f in report.failures()} == {"link.matrix"}
        note = report.failures()[0].note
        assert "traffic shape" in note

    def test_config_hash_mismatch_fails(self):
        current = fake_record()
        current["fingerprint"]["config_hash"] = "0000000000000000"
        report = compare_records(fake_record(), current)
        assert "fingerprint.config_hash" in \
            {f.metric for f in report.failures()}

    def test_extra_digest_keys_still_gate(self):
        current = fake_record()
        current["deterministic"]["rdc.stale"] = 7
        report = compare_records(fake_record(), current)
        assert "rdc.stale" in {f.metric for f in report.failures()}


class TestBandTier:
    def test_modelled_time_band_is_two_sided(self):
        for direction in (+1, -1):
            current = fake_record()
            current["perf"]["modelled_total_s"] = 2.0 * (1 + direction * 1e-3)
            report = compare_records(fake_record(), current)
            assert {f.metric for f in report.failures()} == \
                {"perf.modelled_total_s"}, direction

    def test_committed_wall_fields_do_not_gate(self):
        # Committed records may still carry host-time fields; the gate
        # reads no clock, so any values there are ignored.
        baseline, current = fake_record(), fake_record()
        baseline["perf"].update(wall_s=0.5, accesses_per_s=1e12)
        current["perf"].update(wall_s=99.0, accesses_per_s=1.0)
        report = compare_records(baseline, current)
        assert report.ok
        assert {f.metric for f in report.findings
                if f.metric.startswith("perf.")} == \
            {"perf.modelled_total_s"}


class TestFingerprintNotes:
    def test_engine_drift_is_note_not_failure(self):
        current = fake_record()
        current["fingerprint"]["engine"] = "reference"
        report = compare_records(fake_record(), current)
        assert report.ok
        assert any("engine differs" in n for n in report.notes)

    def test_code_version_drift_noted(self):
        current = fake_record()
        current["fingerprint"]["code_version"] = 11
        report = compare_records(fake_record(), current)
        assert report.ok
        assert any("CODE_VERSION" in n for n in report.notes)


class TestSchemaGuard:
    def test_future_schema_baseline_fails(self):
        future = fake_record(schema_version=SCHEMA_VERSION + 1)
        report = compare_records(future, fake_record())
        assert not report.ok
        assert any(f.metric == "record.baseline" and "newer" in f.note
                   for f in report.findings)

    def test_malformed_current_fails(self):
        report = compare_records(fake_record(), {"kind": "junk"})
        assert not report.ok
        assert any(f.metric == "record.current" for f in report.findings)


class TestSummarizeReports:
    def test_rollup_counts(self):
        bad = fake_record()
        bad["deterministic"]["rdc.hit"] = 1
        reports = [
            compare_records(fake_record(), fake_record()),
            compare_records(fake_record(), bad),
        ]
        text = summarize_reports(reports)
        assert "1/2 point(s) ok, 1 FAILED" in text
        assert "rdc.hit" in text


class TestBaselineParser:
    def test_defaults(self):
        args = build_parser().parse_args(["baseline", "compare"])
        assert args.action == "compare"
        assert args.dir == "baselines"
        assert args.engine == "vectorized"

    def test_trace_metrics_out_accepted(self):
        args = build_parser().parse_args(
            ["trace", "Lulesh", "--metrics-out", "m.json"]
        )
        assert args.metrics_out == "m.json"

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.out == "report.md"
        assert args.journal is None and args.html is None


@pytest.mark.slow
class TestBaselineCliRoundTrip:
    """record -> compare on an unchanged tree, then seeded perturbations."""

    POINT = ["--systems", "numa-gpu", "--workloads", "Lulesh"]

    def _record(self, tmp_path):
        store = tmp_path / "store"
        rc = main(["baseline", "record", "--dir", str(store)] + self.POINT)
        assert rc == 0
        return store

    def test_roundtrip_exits_zero(self, tmp_path):
        store = self._record(tmp_path)
        rc = main(["baseline", "compare", "--dir", str(store)] + self.POINT)
        assert rc == 0

    def test_reference_engine_bit_exact(self, tmp_path):
        store = self._record(tmp_path)
        rc = main([
            "baseline", "compare", "--dir", str(store),
            "--engine", "reference",
        ] + self.POINT)
        assert rc == 0

    def test_injected_counter_drift_fails(self, tmp_path, capsys):
        store = self._record(tmp_path)
        path = store / "numa-gpu" / "Lulesh.json"
        record = json.loads(path.read_text())
        record["deterministic"]["rdc.hit"] += 7
        path.write_text(json.dumps(record))
        report_md = tmp_path / "gate.md"
        rc = main([
            "baseline", "compare", "--dir", str(store),
            "--report", str(report_md),
        ] + self.POINT)
        assert rc == 1
        out = capsys.readouterr().out
        assert "rdc.hit" in out and "FAIL" in out
        md = report_md.read_text()
        assert "rdc.hit" in md and "FAIL" in md and "delta" in md

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        rc = main([
            "baseline", "compare", "--dir", str(tmp_path / "empty"),
        ] + self.POINT)
        assert rc == 2
        assert "no baseline" in capsys.readouterr().err.lower()

    def test_list_shows_recorded_points(self, tmp_path, capsys):
        store = self._record(tmp_path)
        rc = main(["baseline", "list", "--dir", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "numa-gpu" in out and "Lulesh" in out
