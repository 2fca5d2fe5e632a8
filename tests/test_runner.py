"""Tests for the fault-tolerant execution engine (sim/runner.py).

Worker functions must be top-level so they survive pickling into
spawn-started subprocesses.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.sim.chaos import (
    KIND_WORKER_EXCEPTION,
    KIND_WORKER_KILL,
    FaultEvent,
)
from repro.sim import runner
from repro.sim.journal import Journal
from repro.sim.pool import WorkerPool
from repro.sim.runner import (
    KIND_CRASH,
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    RunnerPolicy,
    Task,
    backoff_s,
    run_tasks,
)
from tests.conftest import arm_chaos


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retry after ~10 ms instead of the production half second."""
    monkeypatch.setattr(runner, "BACKOFF_BASE_S", 0.01)


def _ok(x):
    return x * 2


def _boom(_x):
    raise ValueError("deliberate test failure")


def _sleepy(_x):
    time.sleep(60)


def _die(_x):
    os.kill(os.getpid(), signal.SIGKILL)


def _flaky(marker_dir, x):
    """Fail on the first call, succeed afterwards (crosses processes)."""
    sentinel = os.path.join(marker_dir, "attempted")
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("first attempt always fails")
    return x + 100


def _slow_once(marker_dir, x):
    """Sleep past any test deadline on the first call only."""
    sentinel = os.path.join(marker_dir, "slept")
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        time.sleep(60)
    return x + 100


def _tasks(fn, keys, arg=1):
    return [Task(key=k, fn=fn, args=(arg,)) for k in keys]


def _journal_events(path, event=None):
    with open(path) as f:
        records = [json.loads(line) for line in f]
    if event is None:
        return records
    return [r for r in records if r["event"] == event]


class TestPolicy:
    def test_defaults_are_serial_inline(self):
        p = RunnerPolicy()
        assert not p.isolated

    def test_jobs_or_timeout_isolate(self):
        assert RunnerPolicy(jobs=2).isolated
        assert RunnerPolicy(timeout_s=5.0).isolated

    def test_validate_rejects_bad_values(self):
        for bad in (
            RunnerPolicy(jobs=0),
            RunnerPolicy(timeout_s=-1.0),
            RunnerPolicy(retries=-1),
            RunnerPolicy(resume=True),  # resume without a journal
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_backoff_grows_and_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(runner, "BACKOFF_MAX_S", 4.0)
        d1, d2, d3, d4 = (backoff_s("k", a) for a in (1, 2, 3, 4))
        assert d1 < d2 < d3 < d4
        assert 0.5 <= d1 <= 0.5 * (1 + runner.BACKOFF_JITTER)
        assert 4.0 <= d4 <= 4.0 * (1 + runner.BACKOFF_JITTER)  # capped
        assert backoff_s("k", 2) == d2  # same inputs, same jitter

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            run_tasks(_tasks(_ok, ["a", "a"]), RunnerPolicy())


class TestInline:
    def test_success(self):
        batch = run_tasks(_tasks(_ok, ["a", "b"], arg=3), RunnerPolicy())
        assert batch.ok
        assert batch.results == {"a": 6, "b": 6}

    def test_exception_reported_not_raised(self):
        tasks = _tasks(_ok, ["a"]) + _tasks(_boom, ["b"])
        batch = run_tasks(tasks, RunnerPolicy())
        assert not batch.ok
        assert batch.results["a"] == 2
        f = batch.failures["b"]
        assert f.kind == KIND_EXCEPTION
        assert f.exception_type == "ValueError"
        assert "deliberate" in f.message
        assert "deliberate" in f.traceback
        assert f.attempts == 1

    def test_fail_fast_cancels_the_rest(self):
        tasks = _tasks(_boom, ["a"]) + _tasks(_ok, ["b", "c"])
        batch = run_tasks(tasks, RunnerPolicy(keep_going=False))
        assert set(batch.failures) == {"a"}
        assert batch.cancelled == ["b", "c"]
        assert not batch.results


class TestIsolated:
    def test_parallel_success(self):
        batch = run_tasks(
            _tasks(_ok, ["a", "b", "c"], arg=5), RunnerPolicy(jobs=2)
        )
        assert batch.ok
        assert batch.results == {"a": 10, "b": 10, "c": 10}

    def test_worker_timeout(self):
        tasks = _tasks(_sleepy, ["slow"]) + _tasks(_ok, ["fast"])
        start = time.monotonic()
        batch = run_tasks(tasks, RunnerPolicy(jobs=2, timeout_s=1.0))
        assert time.monotonic() - start < 30  # did not wait the full sleep
        assert batch.results["fast"] == 2
        f = batch.failures["slow"]
        assert f.kind == KIND_TIMEOUT
        assert f.exception_type == "WorkerTimeout"

    def test_worker_killed_mid_run(self):
        tasks = _tasks(_die, ["doomed"]) + _tasks(_ok, ["fine"])
        batch = run_tasks(tasks, RunnerPolicy(jobs=2))
        assert batch.results["fine"] == 2
        f = batch.failures["doomed"]
        assert f.kind == KIND_CRASH
        assert f.exception_type == "WorkerCrash"
        assert "signal" in f.message or "exit code" in f.message

    def test_retry_then_succeed(self, tmp_path, fast_backoff):
        tasks = [Task(key="flaky", fn=_flaky, args=(str(tmp_path), 1))]
        policy = RunnerPolicy(jobs=2, retries=2)
        batch = run_tasks(tasks, policy)
        assert batch.ok
        assert batch.results["flaky"] == 101

    def test_timeout_then_retry_succeeds(self, tmp_path, monkeypatch,
                                         fast_backoff):
        # The overrunning slot is killed and restarted in place (its
        # own retry is queued work), and attempt 2 delivers.
        restarted = []
        real_restart = WorkerPool.restart_worker

        def spy(pool, worker):
            restarted.append(worker.index)
            real_restart(pool, worker)

        monkeypatch.setattr(WorkerPool, "restart_worker", spy)
        journal = tmp_path / "j.jsonl"
        tasks = [Task(key="slow", fn=_slow_once, args=(str(tmp_path), 1)),
                 Task(key="other", fn=_ok, args=(1,))]
        start = time.monotonic()
        batch = run_tasks(tasks, RunnerPolicy(
            jobs=2, timeout_s=1.0, retries=1, journal_path=journal,
        ))
        assert time.monotonic() - start < 30  # did not wait the full sleep
        assert batch.ok
        inline = run_tasks([Task(key="slow", fn=_slow_once,
                                 args=(str(tmp_path), 1)),
                            Task(key="other", fn=_ok, args=(1,))])
        assert batch.results == inline.results == {"slow": 101, "other": 2}
        assert restarted == [0]
        slow = [r for r in _journal_events(journal) if r["key"] == "slow"]
        assert [r["event"] for r in slow] == ["start", "retry", "start",
                                              "done"]
        assert slow[1]["kind"] == KIND_TIMEOUT

    def test_exhausted_retries_report_attempts(self, fast_backoff):
        policy = RunnerPolicy(jobs=2, retries=2)
        batch = run_tasks(_tasks(_boom, ["b"]), policy)
        assert batch.failures["b"].attempts == 3


class TestFaultInjection:
    def test_injected_crash_hits_matching_key_only(self, monkeypatch,
                                                   tmp_path):
        arm_chaos(monkeypatch, tmp_path,
                  FaultEvent(KIND_WORKER_KILL, "victim"))
        batch = run_tasks(
            _tasks(_ok, ["victim", "bystander"]), RunnerPolicy(jobs=2)
        )
        assert batch.failures["victim"].kind == KIND_CRASH
        assert batch.results["bystander"] == 2

    def test_injected_flaky_succeeds_on_retry(self, monkeypatch, tmp_path,
                                              fast_backoff):
        arm_chaos(monkeypatch, tmp_path,
                  FaultEvent(KIND_WORKER_EXCEPTION, "f1"))
        policy = RunnerPolicy(jobs=2, retries=1)
        batch = run_tasks(_tasks(_ok, ["f1"]), policy)
        assert batch.ok
        assert batch.results["f1"] == 2


class TestJournalResume:
    def test_journal_records_lifecycle(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        tasks = _tasks(_ok, ["a"]) + _tasks(_boom, ["b"])
        run_tasks(tasks, RunnerPolicy(journal_path=journal))
        events = [r["event"] for r in _journal_events(journal)]
        assert events.count("start") == 2
        assert "done" in events and "failed" in events
        failed = _journal_events(journal, "failed")[0]
        assert failed["key"] == "b"
        assert failed["exception_type"] == "ValueError"

    def test_resume_skips_completed_points(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        tasks = _tasks(_ok, ["a", "b"]) + _tasks(_boom, ["c"])
        first = run_tasks(tasks, RunnerPolicy(journal_path=journal))
        assert set(first.failures) == {"c"}

        # Second invocation: same keys, all would now succeed.
        retry = _tasks(_ok, ["a", "b", "c"], arg=7)
        second = run_tasks(
            retry, RunnerPolicy(journal_path=journal, resume=True)
        )
        assert second.ok
        assert sorted(second.resumed) == ["a", "b"]
        # Resumed points carry the first run's results (arg=1), and only
        # the failed point was actually re-executed.
        assert second.results["a"] == 2
        assert second.results["c"] == 14
        starts = _journal_events(journal, "start")
        assert [s["key"] for s in starts].count("c") == 2
        assert [s["key"] for s in starts].count("a") == 1

    def test_resume_results_survive_without_sim_cache(self, tmp_path):
        # The journal's sidecar pickles, not the sim cache, feed resume;
        # conftest already sets REPRO_NO_CACHE=1 for every test.
        journal = tmp_path / "j.jsonl"
        run_tasks(_tasks(_ok, ["a"]), RunnerPolicy(journal_path=journal))
        assert Journal(journal).load_result("a") == 2


class TestCrashLoopBreaker:
    def test_breaker_fails_the_batch(self, monkeypatch, tmp_path,
                                     fast_backoff):
        # Every attempt crashes its worker; with generous retries the
        # batch would previously grind through respawn after respawn.
        # The breaker opens after MAX_SLOT_CRASHES consecutive deaths of
        # one slot and fails the batch with a diagnostic, keep_going or
        # not.  Three deaths over two slots give one slot two in a row.
        from repro.sim.runner import KIND_CRASH_LOOP

        monkeypatch.setattr(runner, "MAX_SLOT_CRASHES", 2)
        arm_chaos(monkeypatch, tmp_path,
                  *[FaultEvent(KIND_WORKER_KILL)] * 3)
        policy = RunnerPolicy(jobs=2, retries=10, keep_going=True)
        batch = run_tasks(_tasks(_ok, ["a", "b", "c", "d"]), policy)
        assert not batch.ok
        loop_failures = [
            f for f in batch.failures.values() if f.kind == KIND_CRASH_LOOP
        ]
        assert loop_failures, batch.failures
        report = loop_failures[0]
        assert report.exception_type == "CrashLoop"
        assert "died 2 times in a row" in report.message
        assert "breaker opened" in report.message

    def test_intermittent_crashes_do_not_trip(self, monkeypatch, tmp_path,
                                              fast_backoff):
        # One crashing key among healthy ones: its two attempts (retries
        # exhausted) can produce at most two consecutive deaths on any
        # slot, under a breaker of three — so the batch must finish
        # through the ordinary retry/crash path, never the breaker.
        from repro.sim.runner import KIND_CRASH_LOOP

        monkeypatch.setattr(runner, "MAX_SLOT_CRASHES", 3)
        arm_chaos(monkeypatch, tmp_path,
                  *[FaultEvent(KIND_WORKER_KILL, "victim")] * 2)
        policy = RunnerPolicy(jobs=2, retries=1)
        batch = run_tasks(_tasks(_ok, ["a", "b", "victim", "c"]), policy)
        kinds = {f.kind for f in batch.failures.values()}
        assert KIND_CRASH_LOOP not in kinds
        assert batch.results["a"] == 2
