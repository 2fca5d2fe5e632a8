"""Tests for the observability CLI surfaces (trace, --metrics-out)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.runner import RunnerPolicy, Task, run_tasks


def _double(x):
    return 2 * x


class TestTraceParser:
    def test_defaults(self):
        args = build_parser().parse_args(["trace", "Lulesh"])
        assert args.system == "carve-hwc"
        assert args.rdc_bytes == 2 * 2**30
        assert args.out is None and args.metrics_out is None

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "DOOM"])

    def test_metrics_out_accepted_on_run_not_suite(self):
        run_args = build_parser().parse_args(
            ["run", "Lulesh", "--metrics-out", "m.json"]
        )
        assert run_args.metrics_out == "m.json"
        # A suite's digests live in its journal's done records.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["suite", "numa-gpu", "--metrics-out", "m.json"]
            )


class TestTraceJournal:
    def test_assembles_one_slice_per_attempt(self, tmp_path, capsys):
        journal = tmp_path / "batch.jsonl"
        run_tasks([Task("a", _double, (1,)), Task("b", _double, (2,))],
                  RunnerPolicy(journal_path=journal))
        out = tmp_path / "batch.trace.json"
        rc = main(["trace", "--journal", str(journal), "--out", str(out)])
        assert rc == 0
        assert "2 attempt(s) in 1 batch(es)" in capsys.readouterr().out
        slices = [e["name"] for e in json.loads(out.read_text())["traceEvents"]
                  if e["ph"] == "X"]
        assert sorted(slices) == ["attempt a #1", "attempt b #1"]

    @pytest.mark.parametrize("extra, named", [
        (["Lulesh"], "Lulesh"),
        (["--system", "carve-hwc"], "--system"),
        (["--rdc-gb", "2"], "--rdc-gb"),
        (["--metrics-out", "m.json"], "--metrics-out"),
    ])
    def test_simulation_options_refused(self, tmp_path, capsys, monkeypatch,
                                        extra, named):
        monkeypatch.chdir(tmp_path)
        journal = tmp_path / "batch.jsonl"
        run_tasks([Task("a", _double, (1,))],
                  RunnerPolicy(journal_path=journal))
        out = tmp_path / "batch.trace.json"
        rc = main(["trace", "--journal", str(journal), "--out", str(out),
                   *extra])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "m.json").exists()

    def test_missing_journal_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "--journal", str(missing)]) == 1
        assert f"no journal at {missing}" in capsys.readouterr().err


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

    def test_suite_journal_carries_the_digests(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        rc = main([
            "suite", "numa-gpu", "--workloads", "Lulesh",
            "--journal", str(path), "--no-cache",
        ])
        assert rc == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in records if r["event"] == "start"] == [
            "numa-gpu/Lulesh"]
        (done,) = [r for r in records if r["event"] == "done"]
        assert done["metrics"]["workload"] == "Lulesh"
        assert done["metrics"]["kernels"] > 0
