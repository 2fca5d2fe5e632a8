"""Tests for the crash-consistent journal v2 (sim/journal.py).

Covers the durability contract: per-record checksums, torn-tail vs
interior-corruption classification, sidecar digest envelopes with
quarantine, the shared scan cache, opt-in fsync, rejection of the
never-shipped v1 shapes (records without ``sum``, bare-pickle sidecars) — and
two real two-process kill drills (SIGKILL mid-store, torn tail then
``--resume``), because the promises here are about dying processes, not
mocked ones.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.sim.journal as journal_mod
from repro.sim import durable
from repro.obs.registry import MetricsRegistry
from repro.sim.journal import (
    CHECKSUM_FIELD,
    JOURNAL_SCHEMA_VERSION,
    Journal,
    SIDECAR_MAGIC,
    record_checksum,
)
from repro.sim.runner import RunnerPolicy, Task, run_tasks

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _fresh_warning_latches(monkeypatch):
    """One-shot warning latches are process-wide; reset per test."""
    monkeypatch.setattr(durable, "_warned_kinds", set())


def _journal(tmp_path, **kwargs) -> Journal:
    return Journal(tmp_path / "j.jsonl", **kwargs)


def _raw_lines(journal: Journal) -> list[str]:
    return journal.path.read_text(encoding="utf-8").splitlines()


class TestChecksums:
    def test_every_appended_record_checksums(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("meta", "", fingerprint={"v": 1})
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1, elapsed_s=0.1)
        for line in _raw_lines(journal):
            record = json.loads(line)
            assert record[CHECKSUM_FIELD] == record_checksum(record)
        assert len(journal.records()) == 3

    def test_meta_records_carry_schema_version(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("meta", "", fingerprint={})
        (meta,) = journal.records()
        assert meta["schema"] == JOURNAL_SCHEMA_VERSION

    def test_checksum_ignores_field_order(self):
        a = {"event": "done", "key": "k", "ts": 1.0, "attempt": 2}
        b = {"attempt": 2, "ts": 1.0, "key": "k", "event": "done"}
        assert record_checksum(a) == record_checksum(b)

    def test_tampered_record_dropped_and_counted(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path, registry=registry)
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1)
        lines = _raw_lines(journal)
        forged = json.loads(lines[0])
        forged["key"] = "someone-else"  # edit without re-checksumming
        lines[0] = json.dumps(forged, sort_keys=True)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fresh = Journal(journal.path, registry=registry)
        with pytest.warns(RuntimeWarning, match="checksum"):
            scan = fresh.scan()
        assert scan.checksum_failures == 1
        assert len(scan.records) == 1
        assert registry.get("journal.checksum_failures").value() == 1


class TestV1ShapesRejected:
    """The v1 shapes never shipped; their read shims are gone."""

    def test_records_without_checksum_are_checksum_failures(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path, registry=registry)
        v1 = [
            {"event": "meta", "key": "", "ts": 1.0, "fingerprint": {}},
            {"event": "start", "key": "k", "ts": 2.0, "attempt": 1},
            {"event": "done", "key": "k", "ts": 3.0, "attempt": 1},
        ]
        journal.path.write_text(
            "".join(json.dumps(r) + "\n" for r in v1), encoding="utf-8"
        )
        with pytest.warns(RuntimeWarning, match="checksum"):
            scan = journal.scan()
        assert scan.records == []
        assert scan.checksum_failures == 3
        assert journal.completed_keys() == set()
        assert registry.get("journal.checksum_failures").value() == 3

    def test_bare_pickle_sidecar_is_quarantined(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path, registry=registry)
        journal.results_dir.mkdir(parents=True)
        digest = journal_mod._key_digest("k")
        (journal.results_dir / f"{digest}.pkl").write_bytes(
            pickle.dumps({"result": 42}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert journal.load_result("k") is None
        assert (journal.results_dir / f"{digest}.corrupt").exists()
        assert registry.get("journal.sidecar_quarantined").value() == 1

    def test_unchecksummed_line_dropped_from_mixed_journal(self, tmp_path):
        journal = _journal(tmp_path)
        journal.path.write_text(
            json.dumps({"event": "start", "key": "a", "ts": 1.0}) + "\n",
            encoding="utf-8",
        )
        journal.append("done", "a", attempt=1)
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert [r["event"] for r in journal.records()] == ["done"]


class TestTornTail:
    def _tear(self, journal: Journal) -> None:
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[: len(data) - len(data) // 4])

    def test_scan_classifies_torn_tail(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path)
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1)
        self._tear(journal)
        fresh = Journal(journal.path, registry=registry)
        scan = fresh.scan()  # silent: torn tails are expected damage
        assert scan.torn_tail == 1
        assert scan.corrupt_records == 0
        assert len(scan.records) == 1
        assert registry.get("journal.torn_records").value() == 1

    def test_append_repairs_the_tail_first(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1)
        self._tear(journal)
        fresh = Journal(journal.path)
        fresh.append("start", "k2", attempt=1)
        scan = Journal(journal.path).scan()
        assert scan.torn_tail == 0  # the half line is gone, not buried
        assert scan.corrupt_records == 0
        assert [r["event"] for r in scan.records] == ["start", "start"]

    def test_newline_only_loss_keeps_the_record(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[:-1])  # only the "\n" lost
        fresh = Journal(journal.path)
        assert fresh.repair_tail() is False  # finished, not truncated
        assert journal.path.read_bytes() == data
        assert len(Journal(journal.path).records()) == 2

    def test_interior_corruption_warns_once(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path)
        journal.append("start", "k", attempt=1)
        journal.append("done", "k", attempt=1)
        lines = _raw_lines(journal)
        lines[0] = '{"event": "sta'  # broken line *not* at the tail
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fresh = Journal(journal.path, registry=registry)
        with pytest.warns(RuntimeWarning, match="not crash fallout"):
            scan = fresh.scan()
        assert scan.torn_tail == 0
        assert scan.corrupt_records == 1
        assert registry.get("journal.corrupt_records").value() == 1
        # Re-scanning through the same instance must not double-count
        # (high-water-mark accounting per observer).
        fresh.append("start", "k3", attempt=1)  # invalidates the cache
        fresh.scan()
        assert registry.get("journal.corrupt_records").value() == 1


class TestSidecars:
    def test_round_trip_with_digest_envelope(self, tmp_path):
        journal = _journal(tmp_path)
        value = {"metrics": list(range(50))}
        journal.store_result("k", value)
        (stored,) = journal.results_dir.glob("*.pkl")
        assert stored.read_bytes()[: len(SIDECAR_MAGIC)] == SIDECAR_MAGIC
        assert journal.load_result("k") == value
        raw = journal.load_result_bytes("k")
        assert pickle.loads(raw) == value

    def test_digest_mismatch_quarantines(self, tmp_path):
        registry = MetricsRegistry()
        journal = _journal(tmp_path, registry=registry)
        journal.store_result("k", {"v": 1})
        (stored,) = journal.results_dir.glob("*.pkl")
        data = bytearray(stored.read_bytes())
        data[-1] ^= 0xFF
        stored.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert journal.load_result("k") is None
        assert not list(journal.results_dir.glob("*.pkl"))
        (quarantined,) = journal.results_dir.glob("*.corrupt")
        assert quarantined.stem == stored.stem  # evidence preserved
        assert registry.get("journal.sidecar_quarantined").value() == 1
        # Re-loading after quarantine is an ordinary miss, not a warning.
        assert journal.load_result("k") is None

    def test_unrecognized_format_quarantines(self, tmp_path):
        journal = _journal(tmp_path)
        journal.results_dir.mkdir(parents=True)
        digest = journal_mod._key_digest("k")
        (journal.results_dir / f"{digest}.pkl").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            assert journal.load_result("k") is None

    def test_sweep_orphans_removes_only_tmps(self, tmp_path):
        journal = _journal(tmp_path)
        journal.store_result("k", 1)
        journal.results_dir.joinpath("dead.123.abc.tmp").write_bytes(b"x")
        journal.results_dir.joinpath("dead.456.def.tmp").write_bytes(b"y")
        assert journal.sweep_orphans() == 2
        assert not list(journal.results_dir.glob("*.tmp"))
        assert journal.load_result("k") == 1


class TestScanCache:
    def test_single_parse_across_accessors(self, tmp_path, monkeypatch):
        journal = _journal(tmp_path)
        journal.append("meta", "", fingerprint={"v": 1})
        journal.append("done", "k", attempt=1)
        parses = []
        real_parse = Journal._parse
        monkeypatch.setattr(
            Journal, "_parse",
            lambda self: parses.append(1) or real_parse(self),
        )
        journal.records()
        journal.meta()
        journal.completed_keys()
        assert len(parses) == 1  # one disk pass for all three

    def test_append_invalidates_the_snapshot(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("done", "a", attempt=1)
        assert journal.completed_keys() == {"a"}
        journal.append("done", "b", attempt=1)
        assert journal.completed_keys() == {"a", "b"}

    def test_external_writer_invalidates_too(self, tmp_path):
        journal = _journal(tmp_path)
        journal.append("done", "a", attempt=1)
        assert journal.completed_keys() == {"a"}
        other = Journal(journal.path)
        other.append("done", "b", attempt=1)
        assert journal.completed_keys() == {"a", "b"}


class TestFsync:
    def _count_fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: calls.append(fd) or real(fd)
        )
        return calls

    def test_default_never_fsyncs(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        journal = _journal(tmp_path)
        journal.append("start", "k", attempt=1)
        journal.store_result("k", 1)
        assert calls == []

    def test_ctor_opt_in_fsyncs_appends_and_stores(self, tmp_path,
                                                   monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        journal = _journal(tmp_path, fsync=True)
        journal.append("start", "k", attempt=1)
        journal.store_result("k", 1)
        assert len(calls) == 2

    def test_runner_policy_opt_in(self, tmp_path, monkeypatch):
        # ``suite --fsync-journal`` reaches the journal only through
        # RunnerPolicy.fsync_journal.
        calls = self._count_fsyncs(monkeypatch)
        run_tasks([Task(key="a", fn=_work, args=(1,))],
                  RunnerPolicy(journal_path=tmp_path / "j.jsonl",
                               fsync_journal=True))
        assert calls


_STORE_LOOP_CHILD = """
import sys
from repro.sim.journal import Journal

journal = Journal(sys.argv[1])
payload = {"blob": b"x" * 2_000_000}
print("ready", flush=True)
i = 0
while True:
    journal.store_result(f"key{i % 4}", payload)
    i += 1
"""

_TORN_RESUME_CHILD = """
import sys
from repro.sim.runner import RunnerPolicy, Task, run_tasks

def work(x):
    return x * 3

tasks = [Task(key=f"k{i}", fn=work, args=(i,)) for i in range(3)]
run_tasks(tasks, RunnerPolicy(journal_path=sys.argv[1]))
print("survived")  # must be unreachable: the torn-tail fault SIGKILLs
"""


def _work(x):
    return x * 3


class TestTwoProcessDrills:
    """Real child processes, real SIGKILLs — nothing mocked."""

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        return env

    def test_sigkill_mid_store_leaves_loadable_state(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", _STORE_LOOP_CHILD, str(journal_path)],
            stdout=subprocess.PIPE, text=True, env=self._env(),
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            time.sleep(0.2)  # let a few multi-MB stores race the kill
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        journal = Journal(journal_path)
        expected = {"blob": b"x" * 2_000_000}
        seen = 0
        for i in range(4):
            loaded = journal.load_result(f"key{i}")
            # Atomic rename: each sidecar is either absent or complete
            # and digest-verified — never a half-written file.
            assert loaded is None or loaded == expected
            seen += loaded is not None
        assert seen >= 1  # the child did land at least one store
        assert not list(journal.results_dir.glob("*.corrupt"))
        journal.sweep_orphans()
        assert not list(journal.results_dir.glob("*.tmp"))

    def test_torn_tail_then_resume_converges(self, tmp_path):
        from repro.sim.chaos import (
            KIND_TORN_TAIL,
            PLAN_ENV,
            STATE_ENV,
            ChaosEngine,
            ChaosPlan,
            FaultEvent,
        )

        journal_path = tmp_path / "j.jsonl"
        plan = ChaosPlan(
            seed=0, events=(FaultEvent(KIND_TORN_TAIL, "", nth=3),)
        )
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        state_dir = tmp_path / "state"

        env = self._env()
        env[PLAN_ENV] = str(plan_path)
        env[STATE_ENV] = str(state_dir)
        proc = subprocess.run(
            [sys.executable, "-c", _TORN_RESUME_CHILD, str(journal_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "survived" not in proc.stdout
        (rec,) = ChaosEngine.injected(state_dir)
        assert rec["kind"] == KIND_TORN_TAIL

        # The crash left exactly the expected damage shape: a torn tail.
        scan = Journal(journal_path).scan()
        assert scan.torn_tail == 1
        assert scan.corrupt_records == 0
        assert scan.checksum_failures == 0

        # Resume (chaos disarmed, this process) repairs and converges.
        tasks = [Task(key=f"k{i}", fn=_work, args=(i,)) for i in range(3)]
        batch = run_tasks(
            tasks,
            RunnerPolicy(journal_path=journal_path, resume=True),
        )
        assert batch.ok
        assert batch.results == {f"k{i}": i * 3 for i in range(3)}
        final = Journal(journal_path)
        assert final.completed_keys() == {"k0", "k1", "k2"}
        final_scan = final.scan()
        assert final_scan.torn_tail == 0
        assert final_scan.corrupt_records == 0
