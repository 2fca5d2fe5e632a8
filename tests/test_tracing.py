"""Tests for the batch timeline (docs/tracing.md).

The runner journal records every attempt once: a ``start`` carrying
its pool slot and NUMA node, then the ``done``, ``retry``, ``failed``
or ``cancelled`` record that ends it.  Covers the assembler that pairs
them into one Perfetto slice per attempt, the ``cancelled`` records of
a fail-fast batch, and the property the chaos flight recorder leans
on: a SIGKILLed worker's attempt survives in the journal, untorn and
attributed to its slot.

Worker functions are top-level so they survive pickling into pool
subprocesses.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.export import (
    PID_RUNNER,
    PID_SERVE,
    PID_WORKER_BASE,
    assemble_trace,
    write_trace,
)
from repro.sim import durable
from repro.sim.chaos import (
    KIND_WORKER_KILL,
    PLAN_ENV,
    ChaosPlan,
    DrillReport,
    FaultEvent,
    _check_invariants,
    _flight_record,
)
from repro.sim.journal import Journal
from repro.sim.runner import RunnerPolicy, Task, run_tasks
from tests.conftest import arm_chaos


def _ok(x):
    return x * 2


def _boom(_x):
    raise RuntimeError("boom")


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _tasks(keys, fn=_ok, arg=1):
    return [Task(key=k, fn=fn, args=(arg,)) for k in keys]


def _slices(doc) -> list[dict]:
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


def _rows(doc) -> dict[str, int]:
    """Process-row label -> pid."""
    return {
        e["args"]["name"]: e["pid"]
        for e in doc["traceEvents"] if e["name"] == "process_name"
    }


# ---------------------------------------------------------------------------
# Assembling a journal
# ---------------------------------------------------------------------------

class TestAssemble:
    def _pooled_batch(self, tmp_path, keys=("a", "b", "c")):
        journal = tmp_path / "batch.jsonl"
        batch = run_tasks(_tasks(keys),
                          RunnerPolicy(jobs=2, journal_path=journal))
        return journal, batch

    def test_pooled_batch_assembles_labeled_rows(self, tmp_path):
        journal, batch = self._pooled_batch(tmp_path)
        assert batch.ok
        doc = assemble_trace(journal)
        other = doc["otherData"]
        assert (other["batches"], other["attempts"], other["unfinished"]) \
            == (1, 3, 0)
        rows = _rows(doc)
        assert rows["runner"] == PID_RUNNER
        worker_pids = {
            pid for name, pid in rows.items() if name.startswith("worker ")
        }
        assert worker_pids and min(worker_pids) >= PID_WORKER_BASE
        # one slice per attempt, each on the row of the slot that ran it
        slices = _slices(doc)
        assert sorted(s["args"]["key"] for s in slices) == ["a", "b", "c"]
        assert {s["pid"] for s in slices} <= worker_pids
        assert all(s["args"]["status"] == "ok" and s["args"]["attempt"] == 1
                   for s in slices)
        # journal transitions render as instants on the runner row
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["cat"] == "journal"]
        assert any(e["name"].startswith("done") for e in instants)
        assert all(e["pid"] == PID_RUNNER for e in instants)

    def test_inline_batch_assembles_on_the_runner_row(self, tmp_path):
        journal = tmp_path / "plain.jsonl"
        run_tasks(_tasks(("a",)), RunnerPolicy(journal_path=journal))
        (start,) = [r for r in Journal(journal).records()
                    if r["event"] == "start"]
        assert (start["slot"], start["node"]) == (-1, -1)
        (slice_,) = _slices(assemble_trace(journal))
        assert slice_["pid"] == PID_RUNNER
        assert slice_["args"] == {"key": "a", "attempt": 1, "status": "ok"}

    def test_every_batch_of_a_shared_journal_is_shown(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        for _ in range(2):
            run_tasks(_tasks(("a",)),
                      RunnerPolicy(jobs=2, journal_path=journal))
        doc = assemble_trace(journal)
        assert doc["otherData"]["batches"] == 2
        assert [s["args"]["key"] for s in _slices(doc)] == ["a", "a"]

    def test_retry_and_failure_slices_carry_their_kind(self, tmp_path):
        journal = tmp_path / "batch.jsonl"
        batch = run_tasks(_tasks(("a",), fn=_boom),
                          RunnerPolicy(jobs=2, retries=1,
                                       journal_path=journal))
        assert batch.failures["a"].attempts == 2
        slices = _slices(assemble_trace(journal))
        assert [(s["args"]["attempt"], s["args"]["status"])
                for s in slices] == [(1, "exception"), (2, "exception")]

    def test_start_without_slot_fields_reads_as_the_runner(self, tmp_path):
        # journals written before starts carried slot/node
        journal = Journal(tmp_path / "old.jsonl")
        journal.append("meta", "", fingerprint={})
        journal.append("start", "a", attempt=1)
        journal.append("done", "a", attempt=1, elapsed_s=0.1,
                       config_hash="")
        (slice_,) = _slices(assemble_trace(journal.path))
        assert slice_["pid"] == PID_RUNNER
        assert slice_["args"]["status"] == "ok"

    def test_serve_events_get_their_own_row(self, tmp_path):
        journal, _ = self._pooled_batch(tmp_path, keys=("a",))
        events = [
            {"seq": 1, "ts": 0.0, "kind": "job.queued"},
            {"seq": 2, "ts": 1.0, "kind": "job.done"},
        ]
        doc = assemble_trace(journal, serve_events=events)
        serve = [e for e in doc["traceEvents"] if e.get("cat") == "serve"]
        assert [e["name"] for e in serve] == ["job.queued", "job.done"]
        assert all(e["pid"] == PID_SERVE for e in serve)

    def test_write_trace_is_perfetto_loadable_json(self, tmp_path):
        journal, _ = self._pooled_batch(tmp_path, keys=("a",))
        out = write_trace(tmp_path / "out" / "t.trace.json",
                          assemble_trace(journal))
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc and doc["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# Fail-fast cancellation
# ---------------------------------------------------------------------------

class TestCancelled:
    def test_fail_fast_cancels_each_inflight_attempt_once(self, tmp_path):
        # jobs=3 puts boom, slow-1 and slow-2 in flight together; boom's
        # failure stops the batch while both sleepers still run, and
        # "queued" never starts.
        journal = tmp_path / "batch.jsonl"
        tasks = (_tasks(("boom",), fn=_boom)
                 + _tasks(("slow-1", "slow-2"), fn=_sleep, arg=30)
                 + _tasks(("queued",)))
        batch = run_tasks(tasks, RunnerPolicy(jobs=3, keep_going=False,
                                              journal_path=journal))
        assert set(batch.failures) == {"boom"}
        assert batch.cancelled == ["slow-1", "slow-2", "queued"]
        records = Journal(journal).records()
        cancelled = [r["key"] for r in records if r["event"] == "cancelled"]
        assert sorted(cancelled) == ["slow-1", "slow-2"]
        assert not any(r["key"] == "queued" for r in records)
        assert Journal(journal).completed_keys() == set()
        doc = assemble_trace(journal)
        assert doc["otherData"]["unfinished"] == 0
        assert sorted(
            (s["args"]["key"], s["args"]["status"]) for s in _slices(doc)
        ) == [("boom", "exception"), ("slow-1", "cancelled"),
              ("slow-2", "cancelled")]


# ---------------------------------------------------------------------------
# Crash integrity: the flight-recorder property (docs/chaos.md)
# ---------------------------------------------------------------------------

class TestCrashSpillIntegrity:
    """The runner's journal is flushed per record and the runner
    outlives a killed worker, so the victim's attempt is on disk: its
    ``start`` and the ``crash`` that closes it."""

    def _crashed_batch(self, tmp_path, monkeypatch):
        """A pooled batch whose 'victim' task SIGKILLs its worker."""
        arm_chaos(monkeypatch, tmp_path / "chaos",
                  FaultEvent(KIND_WORKER_KILL, "victim"))
        journal = tmp_path / "batch.jsonl"
        batch = run_tasks(
            _tasks(("ok-1", "victim", "ok-2")),
            RunnerPolicy(jobs=2, journal_path=journal),
        )
        assert batch.failures["victim"].kind == "crash"
        assert set(batch.results) == {"ok-1", "ok-2"}
        return journal

    def _report(self, tmp_path) -> DrillReport:
        return DrillReport(seed=0, system="numa-gpu", workloads=("a", "b"),
                           jobs=2, pin=False, root=str(tmp_path))

    def test_victim_spans_survive_untorn(self, tmp_path, monkeypatch):
        journal = Journal(self._crashed_batch(tmp_path, monkeypatch))
        # the kill may tear the tail, never the interior
        scan = journal.scan()
        assert (scan.corrupt_records, scan.checksum_failures) == (0, 0)
        (start,) = [r for r in scan.records
                    if r["event"] == "start" and r["key"] == "victim"]
        assert start["slot"] >= 0

    def test_assembled_timeline_flags_the_victim(self, tmp_path,
                                                 monkeypatch):
        journal = self._crashed_batch(tmp_path, monkeypatch)
        doc = assemble_trace(journal)
        (victim,) = [s for s in _slices(doc) if s["args"]["key"] == "victim"]
        assert victim["args"]["status"] == "crash"
        label = next(name for name, pid in _rows(doc).items()
                     if pid == victim["pid"])
        assert label.startswith("worker ")

    def test_resumed_round_keeps_the_victim_visible(self, tmp_path):
        # A batch killed mid-attempt leaves a start nothing closes.
        journal = Journal(tmp_path / "batch.jsonl")
        journal.append("meta", "", fingerprint={})
        journal.append("start", "victim", attempt=1, slot=0, node=-1)
        doc = assemble_trace(journal.path)
        (slice_,) = _slices(doc)
        assert slice_["args"]["status"] == "unfinished"
        assert "unfinished" in slice_["cat"]
        assert doc["otherData"]["unfinished"] == 1
        # The resumed batch starts the key afresh at attempt 1; it does
        # not close the killed batch's attempt.
        batch = run_tasks(_tasks(("victim",)),
                          RunnerPolicy(jobs=2, journal_path=journal.path,
                                       resume=True))
        assert batch.ok
        doc = assemble_trace(journal.path)
        assert [s["args"]["status"] for s in _slices(doc)] == [
            "unfinished", "ok",
        ]
        assert doc["otherData"]["batches"] == 2
        assert doc["otherData"]["unfinished"] == 1

    def test_flight_recorder_names_the_victim_slot(self, tmp_path,
                                                   monkeypatch):
        journal = self._crashed_batch(tmp_path, monkeypatch)
        monkeypatch.delenv(PLAN_ENV)
        report = self._report(tmp_path)
        _flight_record(report, journal)
        assert report.flight["attempts"] == 3
        (victim,) = report.flight["victims"]
        assert victim["slot"] >= 0
        assert [(a["key"], a["status"]) for a in victim["attempts"]] == [
            ("victim", "crash"),
        ]
        rendered = report.render()
        assert "flight recorder:" in rendered
        assert f"victim slot {victim['slot']:02d}" in rendered

    def test_interior_damage_is_an_invariant_violation(self, tmp_path,
                                                       monkeypatch):
        journal = self._crashed_batch(tmp_path, monkeypatch)
        lines = journal.read_text().splitlines()
        record = json.loads(lines[1])
        record["key"] = "tampered"  # checksum now stale
        lines[1] = json.dumps(record, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        report = self._report(tmp_path)
        monkeypatch.setattr(durable, "_warned_kinds", set())
        with pytest.warns(RuntimeWarning, match="damaged non-tail"):
            _check_invariants(report, ChaosPlan(seed=0), tmp_path / "state",
                              [], journal, journal, tmp_path / "cache")
        assert report.scan["checksum_failures"] == 1
        assert any("final journal is not clean" in p
                   for p in report.problems)
