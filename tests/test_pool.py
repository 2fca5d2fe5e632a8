"""Tests for the persistent worker pool (sim/pool.py) and its runner
integration: NUMA planning, pipe transport, worker reuse,
crash containment, slot records, bit-identical pooled execution, and
the slot budget that concurrent batches share.

Worker functions must be top-level so they survive pickling into
worker subprocesses.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

from repro.sim.journal import Journal
from repro.sim.pool import (
    ERR,
    WorkerPool,
    WorkerSlots,
    numa_nodes,
    parse_cpulist,
    plan_affinity,
)
from repro.sim.chaos import (
    KIND_WORKER_EXCEPTION,
    KIND_WORKER_KILL,
    PLAN_ENV,
    FaultEvent,
)
from repro.sim.runner import RunnerPolicy, Task, run_tasks
from tests.conftest import arm_chaos, pooled_attempts


def _ok(x):
    return x * 2


def _boom(_x):
    raise ValueError("deliberate test failure")


def _pid(_x):
    return os.getpid()


def _big(n):
    return b"\xab" * n


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _tasks(fn, keys, arg=1):
    return [Task(key=k, fn=fn, args=(arg,)) for k in keys]


# ---------------------------------------------------------------------------
# NUMA topology & affinity planning
# ---------------------------------------------------------------------------

class TestCpulist:
    def test_ranges_and_singletons(self):
        assert parse_cpulist("0-3,8,10-11") == [0, 1, 2, 3, 8, 10, 11]

    def test_single_cpu(self):
        assert parse_cpulist("0\n") == [0]

    def test_empty(self):
        assert parse_cpulist("") == []
        assert parse_cpulist(" , ") == []


class TestNumaNodes:
    def test_reads_sysfs_layout(self, tmp_path):
        for name, cpus in (("node0", "0-1"), ("node1", "2-3")):
            d = tmp_path / name
            d.mkdir()
            (d / "cpulist").write_text(cpus + "\n")
        (tmp_path / "node_junk").mkdir()  # not nodeN: ignored
        assert numa_nodes(tmp_path) == [[0, 1], [2, 3]]

    def test_missing_sysfs_falls_back_to_flat(self, tmp_path):
        nodes = numa_nodes(tmp_path / "does-not-exist")
        assert len(nodes) == 1
        assert nodes[0]  # every runnable CPU in one node

    def test_real_host_never_empty(self):
        nodes = numa_nodes()
        assert nodes and all(n for n in nodes)


class TestPlanAffinity:
    NODES = [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_unpinned_inherits(self):
        assert plan_affinity(3, pin=False) == [(None, -1)] * 3

    def test_round_robin_disjoint_slices(self):
        plan = plan_affinity(4, pin=True, nodes=self.NODES)
        # Workers 0/2 split node0, workers 1/3 split node1.
        assert plan == [((0, 1), 0), ((4, 5), 1), ((2, 3), 0), ((6, 7), 1)]
        # An odd count leaves node0 three workers, node1 two.
        assert plan_affinity(5, pin=True, nodes=self.NODES) == [
            ((0,), 0), ((4, 5), 1), ((1,), 0), ((6, 7), 1), ((2, 3), 0),
        ]

    def test_one_worker_takes_whole_node(self):
        assert plan_affinity(2, pin=True, nodes=self.NODES) == [
            ((0, 1, 2, 3), 0),
            ((4, 5, 6, 7), 1),
        ]

    def test_oversubscribed_node_is_shared(self):
        plan = plan_affinity(3, pin=True, nodes=[[0]])
        assert plan == [((0,), 0)] * 3

    def test_pool_slots_follow_the_plan(self):
        pool = WorkerPool(WorkerSlots(3, pin=True, nodes=self.NODES))
        assert [(w.affinity, w.node) for w in pool.workers] == \
            plan_affinity(3, pin=True, nodes=self.NODES)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            plan_affinity(0, pin=True)


# ---------------------------------------------------------------------------
# Result transport
# ---------------------------------------------------------------------------

class TestShmTransport:
    """The shared-memory transport is gone: every result, whatever its
    size, comes back pickled over the worker's pipe."""

    def test_end_to_end_shm_results(self):
        # 2 MB is ~100x a real RunResult and far above the 64 KiB pipe
        # buffer: the pickled reply must still arrive whole.
        batch = run_tasks(
            [Task(key="big", fn=_big, args=(2_000_000,))],
            RunnerPolicy(jobs=2),
        )
        assert batch.ok
        assert batch.results["big"] == b"\xab" * 2_000_000

    def test_end_to_end_shm_disabled(self):
        batch = run_tasks(_tasks(_ok, ["a", "b"]), RunnerPolicy(jobs=2))
        assert batch.ok
        assert batch.results == {"a": 2, "b": 2}


# ---------------------------------------------------------------------------
# The pool itself
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_workers_are_reused_across_tasks(self):
        # 8 tasks through 2 persistent workers must touch at most 2
        # processes; the old spawn-per-attempt fabric used 8.
        batch = run_tasks(_tasks(_pid, list("abcdefgh")), RunnerPolicy(jobs=2))
        assert batch.ok
        assert len(set(batch.results.values())) <= 2

    def test_crashed_worker_is_respawned_and_batch_completes(
            self, monkeypatch, tmp_path):
        # The victim kills its worker; with more tasks than workers the
        # batch can only complete if the dead slot is respawned.
        arm_chaos(monkeypatch, tmp_path,
                  FaultEvent(KIND_WORKER_KILL, "victim"))
        keys = ["victim"] + [f"ok{i}" for i in range(6)]
        batch = run_tasks(_tasks(_ok, keys), RunnerPolicy(jobs=2))
        assert set(batch.failures) == {"victim"}
        assert len(batch.results) == 6

    def test_dead_pipe_surfaces_exactly_one_death_event(self, monkeypatch,
                                                        tmp_path):
        arm_chaos(monkeypatch, tmp_path, FaultEvent(KIND_WORKER_KILL))
        pool = WorkerPool(WorkerSlots(1))
        pool.start()
        worker = pool.workers[0]
        assert pool.dispatch(worker, "doomed", _ok, (1,))
        deaths = []
        for _ in range(100):
            for kind, w, data in pool.events(timeout=0.2):
                assert kind == "died"
                deaths.append((w.index, data))
            if deaths:
                break
        assert len(deaths) == 1
        assert worker.conn_dead
        # The reaped slot is excluded from future waits: no busy events.
        pool.reap(worker)
        assert pool.events(timeout=0.05) == []
        assert not worker.alive
        pool.shutdown(force=True)

    def test_shutdown_is_idempotent_and_kills_everything(self):
        pool = WorkerPool(WorkerSlots(2))
        pool.start()
        procs = [w.process for w in pool.workers]
        pool.shutdown()
        pool.shutdown(force=True)
        assert not any(w.alive for w in pool.workers)
        assert all(not p.is_alive() for p in procs)

    def test_pinned_execution_still_correct(self):
        batch = run_tasks(
            _tasks(_ok, ["a", "b", "c"], arg=4),
            RunnerPolicy(jobs=2, pin=True),
        )
        assert batch.ok
        assert batch.results == {"a": 8, "b": 8, "c": 8}

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            WorkerPool(WorkerSlots(0))


# ---------------------------------------------------------------------------
# Slot records
# ---------------------------------------------------------------------------

class TestPoolRecords:
    def test_start_records_name_worker_slots(self, tmp_path):
        path = tmp_path / "j.jsonl"
        batch = run_tasks(
            _tasks(_ok, ["a", "b", "c"]),
            RunnerPolicy(jobs=2, journal_path=path),
        )
        assert batch.ok
        starts = [r for r in Journal(path).records() if r["event"] == "start"]
        # Every dispatch recorded once, attributed to a real slot index
        # (jobs=2 -> slots 0/1) on no pinned node.
        assert sorted(r["key"] for r in starts) == ["a", "b", "c"]
        assert {r["slot"] for r in starts} <= {0, 1}
        assert {r["node"] for r in starts} == {-1}


# ---------------------------------------------------------------------------
# Policy semantics through the pool
# ---------------------------------------------------------------------------

class TestPoolPolicyParity:
    def test_fail_fast_cancels_pending_and_inflight(self):
        tasks = _tasks(_boom, ["a"]) + _tasks(_ok, list("bcdef"))
        batch = run_tasks(tasks, RunnerPolicy(jobs=2, keep_going=False))
        assert "a" in batch.failures
        # Everything not finished by the time the failure landed was
        # cancelled; nothing was silently dropped.
        assert set(batch.cancelled) | set(batch.results) == set("bcdef")

    def test_resume_skips_completed_points(self, tmp_path, monkeypatch):
        journal = tmp_path / "j.jsonl"
        arm_chaos(monkeypatch, tmp_path / "chaos",
                  FaultEvent(KIND_WORKER_EXCEPTION, "c"))
        first = run_tasks(
            _tasks(_ok, ["a", "b", "c"]),
            RunnerPolicy(jobs=2, journal_path=journal),
        )
        assert set(first.failures) == {"c"}

        monkeypatch.delenv(PLAN_ENV)
        second = run_tasks(
            _tasks(_ok, ["a", "b", "c"], arg=7),
            RunnerPolicy(jobs=2, journal_path=journal, resume=True),
        )
        assert second.ok
        assert sorted(second.resumed) == ["a", "b"]
        assert second.results["a"] == 2  # first run's result, not 14
        assert second.results["c"] == 14

    def test_pool_results_bit_identical_to_serial(self):
        # The acceptance bar: identical pickled bytes per point, not
        # just equality — and identical key order despite the pool
        # completing tasks in scheduling order.
        serial = run_tasks(_tasks(_pickled, list("abcd")), RunnerPolicy())
        pooled = run_tasks(
            _tasks(_pickled, list("abcd")), RunnerPolicy(jobs=4)
        )
        assert serial.ok and pooled.ok
        assert list(serial.results) == list(pooled.results) == list("abcd")
        for key in serial.results:
            assert pickle.dumps(serial.results[key]) == pickle.dumps(
                pooled.results[key]
            )


def _pickled(x):
    """A structured, deterministic payload worth byte-comparing."""
    return {"x": x, "squares": [i * i for i in range(50)], "tag": ("t", x)}


# ---------------------------------------------------------------------------
# Sidecar store race (journal.store_result)
# ---------------------------------------------------------------------------

def _hammer_store(path, key, n):
    journal = Journal(path)
    for i in range(n):
        journal.store_result(key, {"writer": os.getpid(), "i": i})


class TestSidecarRace:
    def test_concurrent_batches_storing_same_key(self, tmp_path):
        # Two processes hammering the same key must never collide on a
        # tmp name: with the old fixed ".tmp" suffix one writer could
        # rename the other's half-written file into place (or crash on
        # a vanished tmp).  Unique names + atomic replace fix it.
        path = tmp_path / "j.jsonl"
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_hammer_store, args=(path, "shared", 200))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        journal = Journal(path)
        stray = list(journal.results_dir.glob("*.tmp"))
        assert stray == []
        result = journal.load_result("shared")
        assert result is not None and result["i"] == 199

    def test_store_failure_leaves_no_tmp(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(Exception):
            journal.store_result("k", lambda: None)  # unpicklable
        assert list(journal.results_dir.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Wire protocol sanity
# ---------------------------------------------------------------------------

class TestWireProtocol:
    def test_exception_reply_shape(self):
        pool = WorkerPool(WorkerSlots(1))
        pool.start()
        worker = pool.workers[0]
        assert pool.dispatch(worker, "boom", _boom, (1,))
        message = None
        for _ in range(100):
            events = pool.events(timeout=0.2)
            if events:
                kind, _, message = events[0]
                assert kind == "result"
                break
        assert message is not None
        tag, exc_type, text, tb = message
        assert tag == ERR
        assert exc_type == "ValueError"
        assert "deliberate" in text and "deliberate" in tb
        pool.shutdown()


# ---------------------------------------------------------------------------
# The slot budget concurrent batches share
# ---------------------------------------------------------------------------

class _CountingSlots(WorkerSlots):
    """A budget that records the most slots it ever had out at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.out = self.most_out = 0
        self._count_lock = threading.Lock()

    def take(self, block):
        index = super().take(block)
        if index is not None:
            with self._count_lock:
                self.out += 1
                self.most_out = max(self.most_out, self.out)
        return index

    def give(self, index):
        with self._count_lock:
            self.out -= 1
        super().give(index)


def _in_threads(*calls):
    """Run each ``(fn, args)`` on its own thread; return their results."""
    results = [None] * len(calls)

    def run(i, fn, args):
        results[i] = fn(*args)

    threads = [threading.Thread(target=run, args=(i, fn, args))
               for i, (fn, args) in enumerate(calls)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    return results


class TestWorkerSlots:
    def test_take_returns_none_when_every_slot_is_out(self):
        slots = WorkerSlots(2)
        assert [slots.take(block=False), slots.take(block=False)] == [0, 1]
        assert slots.take(block=False) is None
        slots.give(1)
        assert slots.take(block=False) == 1

    def test_give_rejects_a_slot_that_is_not_out(self):
        slots = WorkerSlots(2)
        with pytest.raises(ValueError):
            slots.give(0)
        slots.take(block=True)
        slots.give(0)
        with pytest.raises(ValueError):
            slots.give(0)

    def test_never_more_than_jobs_slots_out(self):
        slots = _CountingSlots(3)
        held, clash = set(), []
        lock = threading.Lock()

        def churn():
            for _ in range(50):
                index = slots.take(block=True)
                with lock:
                    if index in held:
                        clash.append(index)
                    held.add(index)
                time.sleep(0.0005)
                with lock:
                    held.discard(index)
                slots.give(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _in_threads(*[(churn, ()) for _ in range(6)])
        finally:
            sys.setswitchinterval(interval)
        assert clash == []
        assert slots.most_out == 3 and slots.out == 0

    def test_blocked_take_wakes_when_a_slot_is_given(self):
        slots = WorkerSlots(1)
        first = slots.take(block=True)
        timer = threading.Timer(0.2, slots.give, args=(first,))
        timer.start()
        assert slots.take(block=True) == first
        timer.join()

    def test_pinned_pools_sharing_a_budget_get_disjoint_slices(self):
        nodes = [[0, 1, 2, 3], [4, 5, 6, 7]]
        slots = WorkerSlots(4, pin=True, nodes=nodes)
        pools = [WorkerPool(slots) for _ in range(2)]
        try:
            assert [pool.start(2) for pool in pools] == [2, 2]
            held = [
                [w for w in pool.workers if w.process is not None]
                for pool in pools
            ]
            cpus = [{c for w in ws for c in w.affinity} for ws in held]
            assert cpus[0].isdisjoint(cpus[1])
            assert cpus[0] | cpus[1] == set(range(8))
            assert slots.take(block=False) is None
        finally:
            for pool in pools:
                pool.shutdown()
        assert sorted(slots.take(block=False) for _ in range(4)) == \
            [0, 1, 2, 3]


class TestSharedBudget:
    """Two ``run_tasks`` batches on threads, sharing a 2-slot budget."""

    def _batch(self, keys, naps, journal, slots):
        tasks = [Task(key=k, fn=_nap, args=(s,)) for k, s in zip(keys, naps)]
        batch = run_tasks(tasks, RunnerPolicy(jobs=2, journal_path=journal),
                          slots=slots)
        return batch, time.monotonic()

    def test_never_more_than_the_budget_and_no_shared_slot(self, tmp_path):
        slots = _CountingSlots(2)
        journals = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        naps = [0.3, 0.05, 0.2, 0.05]
        (a, _), (b, _) = _in_threads(
            (self._batch, (list("abcd"), naps, journals[0], slots)),
            (self._batch, (list("efgh"), naps, journals[1], slots)),
        )
        assert a.ok and b.ok
        assert list(a.results) == list("abcd")
        assert a.results == dict(zip("abcd", naps))
        assert slots.most_out <= 2 and slots.out == 0
        runs = [pooled_attempts(j) for j in journals]
        assert len(runs[0]) == len(runs[1]) == 4
        for slot_a, start_a, end_a in runs[0]:
            assert slot_a in (0, 1)
            for slot_b, start_b, end_b in runs[1]:
                if start_a < end_b and start_b < end_a:
                    assert slot_a != slot_b

    def test_finished_short_point_hands_its_slot_on(self, tmp_path):
        slots = _CountingSlots(2)
        results = {}

        def long_batch():
            results["long"] = self._batch(
                ["long", "short"], [3.0, 0.05], tmp_path / "a.jsonl", slots)

        first = threading.Thread(target=long_batch)
        first.start()
        # The first batch takes both slots; the second waits for one.
        deadline = time.monotonic() + 30
        while slots.most_out < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        waiting, waiting_done = self._batch(
            ["other"], [0.05], tmp_path / "b.jsonl", slots)
        first.join(60)
        long, long_done = results["long"]
        assert waiting.ok and long.ok
        # The waiting batch ran on the short point's slot and finished
        # well before the long point did.
        assert long_done - waiting_done > 1.0
        (other,) = pooled_attempts(tmp_path / "b.jsonl")
        short_slot = {s for s, *_ in pooled_attempts(tmp_path / "a.jsonl")}
        assert other[0] in short_slot
