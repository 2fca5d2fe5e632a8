"""Tests for distributed tracing (docs/tracing.md).

Covers the context (deterministic derivation, wire round-trip), the
crash-safe span spill (checksummed records, torn-tail tolerance), the
timeline assembler, and the property everything else leans on: a
SIGKILLed pool worker leaves its final spans on disk, untorn, for the
chaos flight recorder.

Worker functions are top-level so they survive pickling into pool
subprocesses.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    PID_RUNNER,
    PID_SERVE,
    PID_WORKER_BASE,
    assemble_trace,
    open_spans,
    write_trace,
)
from repro.obs.metrics import default_registry
from repro.obs.trace import (
    RUNNER_SPILL,
    SpanSpill,
    TraceContext,
    derive_span_id,
    read_spans,
    read_spans_dir,
    spans_dir_for,
    worker_spill_name,
)
from repro.sim.runner import RunnerPolicy, Task, run_tasks


def _ok(x):
    return x * 2


def _tasks(keys):
    return [Task(key=k, fn=_ok, args=(1,)) for k in keys]


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_seeded_mint_is_deterministic(self):
        a = TraceContext.mint(seed="drill-7")
        b = TraceContext.mint(seed="drill-7")
        assert a == b
        assert a.trace_id != TraceContext.mint(seed="drill-8").trace_id

    def test_unseeded_mints_are_distinct(self):
        assert TraceContext.mint().trace_id != TraceContext.mint().trace_id

    def test_child_derivation_is_deterministic(self):
        root = TraceContext.mint(seed="x")
        c1 = root.child("attempt:k#1")
        assert c1 == root.child("attempt:k#1")
        assert c1.span_id != root.child("attempt:k#2").span_id
        assert c1.parent_id == root.span_id
        assert c1.trace_id == root.trace_id
        assert c1.span_id == derive_span_id(
            root.trace_id, root.span_id, "attempt:k#1"
        )

    def test_wire_round_trip(self):
        ctx = TraceContext.mint(seed="w").child("attempt:k#1")
        wire = ctx.to_wire()
        assert set(wire) == {"trace", "span", "parent"}
        json.dumps(wire)  # must be plain-JSON serialisable
        assert TraceContext.from_wire(wire) == ctx


# ---------------------------------------------------------------------------
# The span spill
# ---------------------------------------------------------------------------

class TestSpanSpill:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spans" / "worker-00.jsonl"
        ctx = TraceContext.mint(seed="s").child("task")
        with SpanSpill(path, slot=3, node=1) as spill:
            assert spill.span_begin(ctx, "task", key="numa-gpu/Lulesh")
            assert spill.span_end(ctx, "task", key="numa-gpu/Lulesh",
                                  status="ok")
            assert spill.spans == 2 and spill.dropped == 0
            assert spill.bytes_written == path.stat().st_size
        records, damaged = read_spans(path)
        assert damaged == 0 and len(records) == 2
        begin, end = records
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert begin["slot"] == 3 and begin["node"] == 1
        assert begin["span"] == ctx.span_id
        assert end["status"] == "ok"
        assert open_spans(records) == []

    def test_torn_tail_is_skipped_silently(self, tmp_path):
        path = tmp_path / "w.jsonl"
        ctx = TraceContext.mint(seed="t")
        with SpanSpill(path) as spill:
            spill.span_begin(ctx, "task", key="a")
            spill.span_end(ctx, "task", key="a")
        whole = path.read_text()
        half_line = whole.splitlines()[0][: len(whole) // 4]
        path.write_text(whole + half_line)  # crash mid-append
        records, damaged = read_spans(path)
        assert len(records) == 2 and damaged == 0

    def test_interior_damage_is_counted(self, tmp_path):
        path = tmp_path / "w.jsonl"
        ctx = TraceContext.mint(seed="d")
        with SpanSpill(path) as spill:
            spill.span_begin(ctx, "task", key="a")
            spill.span_end(ctx, "task", key="a")
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["key"] = "tampered"  # checksum now stale
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        records, damaged = read_spans(path)
        assert damaged == 1 and len(records) == 1

    def test_unwritable_spill_drops_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        spill = SpanSpill(blocker / "x.jsonl")  # parent is a file
        ctx = TraceContext.mint(seed="u")
        assert spill.span_begin(ctx, "task") is False
        assert spill.dropped == 1 and spill.spans == 0

    def test_read_spans_dir_merges_and_orders(self, tmp_path):
        ctx = TraceContext.mint(seed="m")
        for slot in (1, 0):
            with SpanSpill(tmp_path / worker_spill_name(slot),
                           slot=slot) as spill:
                spill.span_begin(ctx.child(f"t{slot}"), "task")
        records, damaged = read_spans_dir(tmp_path)
        assert damaged == 0
        assert [r["slot"] for r in records] == [0, 1]  # file order
        assert read_spans_dir(tmp_path / "absent") == ([], 0)


# ---------------------------------------------------------------------------
# Assembling a traced batch
# ---------------------------------------------------------------------------

class TestAssemble:
    def _traced_batch(self, tmp_path, keys=("a", "b", "c")):
        journal = tmp_path / "batch.jsonl"
        trace = TraceContext.mint(seed="assemble")
        registry = default_registry()
        batch = run_tasks(
            _tasks(keys),
            RunnerPolicy(jobs=2, journal_path=journal),
            registry=registry,
            trace=trace,
        )
        return journal, trace, batch, registry

    def test_pooled_batch_assembles_labeled_rows(self, tmp_path):
        journal, trace, batch, registry = self._traced_batch(tmp_path)
        assert batch.ok
        doc = assemble_trace(journal)
        other = doc["otherData"]
        # every trace in the journal is shown: here, the one batch
        assert other["trace_ids"] == [trace.trace_id]
        assert other["unfinished_spans"] == 0
        assert other["damaged_span_records"] == 0
        names = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"] if e["name"] == "process_name"
        }
        assert names["runner"] == PID_RUNNER
        worker_rows = [n for n in names if n.startswith("worker ")]
        assert worker_rows and all(
            names[n] >= PID_WORKER_BASE for n in worker_rows
        )
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # one attempt span per task plus one worker task span per task
        assert len(slices) == 2 * len(batch.results)
        assert all(
            s["args"]["trace_id"] == trace.trace_id for s in slices
        )
        attempts = [s for s in slices if s["pid"] == PID_RUNNER]
        assert {s["args"]["key"] for s in attempts} == set(batch.results)
        # journal transitions render as instants on the runner row
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["cat"] == "journal"]
        assert any(e["name"].startswith("done") for e in instants)
        # spill volume was credited to the trace counters
        assert registry.get("trace.spans").total() == 2 * 2 * len(
            batch.results
        )
        assert registry.get("trace.spill_bytes").total() > 0

    def test_trace_id_filters_a_shared_journal(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        first = TraceContext.mint(seed="one")
        second = TraceContext.mint(seed="two")
        for trace in (first, second):
            run_tasks(_tasks(("a",)),
                      RunnerPolicy(jobs=2, journal_path=journal),
                      trace=trace)
        # default: every trace in the journal, oldest first
        doc = assemble_trace(journal)
        assert doc["otherData"]["trace_ids"] == [
            first.trace_id, second.trace_id,
        ]
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {s["args"]["trace_id"] for s in slices} == {
            first.trace_id, second.trace_id,
        }
        # an explicit trace id keeps only that batch
        doc = assemble_trace(journal, trace_id=first.trace_id)
        assert doc["otherData"]["trace_ids"] == [first.trace_id]
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices and all(
            s["args"]["trace_id"] == first.trace_id for s in slices
        )

    def test_serve_events_get_their_own_row(self, tmp_path):
        journal, trace, _, _ = self._traced_batch(tmp_path, keys=("a",))
        events = [
            {"seq": 1, "ts": 0.0, "kind": "job.queued",
             "trace_id": trace.trace_id},
            {"seq": 2, "ts": 1.0, "kind": "job.done"},
        ]
        doc = assemble_trace(journal, serve_events=events)
        serve = [e for e in doc["traceEvents"] if e.get("cat") == "serve"]
        assert [e["name"] for e in serve] == ["job.queued", "job.done"]
        assert all(e["pid"] == PID_SERVE for e in serve)

    def test_write_trace_is_perfetto_loadable_json(self, tmp_path):
        journal, _, _, _ = self._traced_batch(tmp_path, keys=("a",))
        out = write_trace(tmp_path / "out" / "t.trace.json",
                          assemble_trace(journal))
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc and doc["displayTimeUnit"] == "ms"

    def test_untraced_batch_assembles_journal_only(self, tmp_path):
        journal = tmp_path / "plain.jsonl"
        run_tasks(_tasks(("a",)), RunnerPolicy(journal_path=journal))
        doc = assemble_trace(journal)
        assert doc["otherData"]["spans"] == 0
        assert not spans_dir_for(journal).exists()


# ---------------------------------------------------------------------------
# Crash integrity: the flight-recorder property (docs/chaos.md)
# ---------------------------------------------------------------------------

class TestCrashSpillIntegrity:
    def _crashed_batch(self, tmp_path, monkeypatch):
        """A pooled traced batch whose 'victim' task SIGKILLs its worker."""
        monkeypatch.setenv("REPRO_INJECT_FAULT", "crash:victim")
        journal = tmp_path / "batch.jsonl"
        trace = TraceContext.mint(seed="crash")
        batch = run_tasks(
            _tasks(("ok-1", "victim", "ok-2")),
            RunnerPolicy(jobs=2, journal_path=journal),
            trace=trace,
        )
        assert "victim" in batch.failures
        assert set(batch.results) == {"ok-1", "ok-2"}
        return journal, trace

    def test_victim_spans_survive_untorn(self, tmp_path, monkeypatch):
        journal, trace = self._crashed_batch(tmp_path, monkeypatch)
        records, damaged = read_spans_dir(spans_dir_for(journal))
        # the kill may tear the tail, never the interior
        assert damaged == 0
        victims = open_spans(records)
        # the worker flushed the task begin edge before dying: the
        # span is on disk with no end edge, attributed to its slot
        task_victims = [r for r in victims if r["name"] == "task"]
        assert len(task_victims) == 1
        (span,) = task_victims
        assert span["key"] == "victim"
        assert span["slot"] >= 0
        assert span["trace"] == trace.trace_id

    def test_assembled_timeline_flags_the_victim(self, tmp_path,
                                                 monkeypatch):
        journal, _ = self._crashed_batch(tmp_path, monkeypatch)
        doc = assemble_trace(journal)
        assert doc["otherData"]["unfinished_spans"] >= 1
        unfinished = [e for e in doc["traceEvents"]
                      if e["ph"] == "X" and "unfinished" in e["cat"]]
        assert any(e["args"]["key"] == "victim" for e in unfinished)
        assert all(e["args"]["unfinished"] is True for e in unfinished)

    def test_resumed_round_keeps_the_victim_visible(self, tmp_path,
                                                    monkeypatch):
        # round 2 resumes the same journal under a new trace (as every
        # chaos round and `suite --trace --resume` does); the default
        # timeline must still show round 1's victim
        journal, first = self._crashed_batch(tmp_path, monkeypatch)
        monkeypatch.delenv("REPRO_INJECT_FAULT")
        second = TraceContext.mint(seed="resume")
        batch = run_tasks(
            _tasks(("ok-1", "victim", "ok-2")),
            RunnerPolicy(jobs=2, journal_path=journal, resume=True),
            trace=second,
        )
        assert batch.ok and "victim" in batch.results
        doc = assemble_trace(journal)
        unfinished = [e for e in doc["traceEvents"]
                      if e["ph"] == "X" and "unfinished" in e["cat"]]
        assert any(e["args"]["key"] == "victim" for e in unfinished)
        other = doc["otherData"]
        records, _ = read_spans_dir(spans_dir_for(journal))
        assert other["spans"] == len(records)
        assert other["trace_ids"] == [first.trace_id, second.trace_id]

    def test_flight_recorder_names_the_victim_slot(self, tmp_path,
                                                   monkeypatch):
        journal, _ = self._crashed_batch(tmp_path, monkeypatch)
        from repro.sim.chaos import DrillReport, _flight_record

        report = DrillReport(seed=0, system="numa-gpu",
                             workloads=("a", "b"), jobs=2, pin=False,
                             root=str(tmp_path))
        _flight_record(report, journal)
        assert report.flight["damaged"] == 0
        assert report.flight["spans"] > 0
        (victim,) = report.flight["victims"]
        assert victim["slot"] >= 0
        assert [s["key"] for s in victim["spans"]] == ["victim"]
        rendered = report.render()
        assert "flight recorder:" in rendered
        assert f"victim slot {victim['slot']:02d}" in rendered

    def test_interior_damage_is_an_invariant_violation(self, tmp_path,
                                                       monkeypatch):
        journal, _ = self._crashed_batch(tmp_path, monkeypatch)
        from repro.sim.chaos import DrillReport, _flight_record

        spans_dir = spans_dir_for(journal)
        victim_file = next(
            p for p in sorted(spans_dir.glob("worker-*.jsonl"))
            if "victim" in p.read_text()
        )
        lines = victim_file.read_text().splitlines()
        record = json.loads(lines[0])
        record["key"] = "tampered"
        lines[0] = json.dumps(record, sort_keys=True)
        victim_file.write_text("\n".join(lines) + "\n")
        report = DrillReport(seed=0, system="numa-gpu",
                             workloads=("a", "b"), jobs=2, pin=False,
                             root=str(tmp_path))
        _flight_record(report, journal)
        assert report.flight["damaged"] == 1
        assert any("damaged span record" in p for p in report.problems)


# ---------------------------------------------------------------------------
# Tracing must not perturb results
# ---------------------------------------------------------------------------

class TestTracingInvariance:
    def test_results_identical_with_and_without_trace(self, tmp_path):
        keys = ("a", "b", "c", "d")
        plain = run_tasks(
            _tasks(keys),
            RunnerPolicy(jobs=2, journal_path=tmp_path / "plain.jsonl"),
        )
        traced = run_tasks(
            _tasks(keys),
            RunnerPolicy(jobs=2, journal_path=tmp_path / "traced.jsonl"),
            trace=TraceContext.mint(seed="inv"),
        )
        assert traced.results == plain.results
        assert traced.failures == plain.failures

    def test_trace_without_journal_is_silently_off(self, tmp_path):
        batch = run_tasks(_tasks(("a",)), RunnerPolicy(jobs=2),
                          trace=TraceContext.mint(seed="nj"))
        assert batch.ok
