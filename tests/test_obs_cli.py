"""Tests for the observability CLI surfaces (trace, --metrics-out)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestTraceParser:
    def test_defaults(self):
        args = build_parser().parse_args(["trace", "Lulesh"])
        assert args.system == "carve-hwc"
        assert args.ring == 65_536
        assert args.sample == 1
        assert args.out is None and args.metrics_out is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "DOOM"])

    def test_metrics_out_accepted_on_run_and_suite(self):
        run_args = build_parser().parse_args(
            ["run", "Lulesh", "--metrics-out", "m.json"]
        )
        assert run_args.metrics_out == "m.json"
        suite_args = build_parser().parse_args(
            ["suite", "numa-gpu", "--metrics-out", "m.json"]
        )
        assert suite_args.metrics_out == "m.json"


@pytest.mark.slow
class TestTraceCommand:
    def test_writes_perfetto_acceptable_trace(self, tmp_path):
        out = tmp_path / "t.trace.json"
        rc = main([
            "trace", "Lulesh", "--system", "numa-gpu",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases


@pytest.mark.slow
class TestMetricsOut:
    def test_run_writes_metrics_json(self, tmp_path):
        path = tmp_path / "m.json"
        rc = main([
            "run", "Lulesh", "--system", "numa-gpu", "--no-cache",
            "--metrics-out", str(path),
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["workload"] == "Lulesh"
        assert "sim.accesses" in doc["metrics"]
        assert doc["kernel_snapshots"], "no per-kernel snapshots"

    def test_suite_writes_metrics_json(self, tmp_path):
        path = tmp_path / "m.json"
        rc = main([
            "suite", "numa-gpu", "--workloads", "Lulesh",
            "--metrics-out", str(path), "--no-cache",
        ])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["metrics"]["runner.attempts"]["values"] == {"": 1}
        assert "Lulesh" in doc["workloads"]
        assert doc["workloads"]["Lulesh"]["kernels"] > 0
