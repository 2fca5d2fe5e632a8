"""Runner accounting: every attempt recorded once in the journal, and
the journal's ``done`` records enriched with a metric digest."""

from __future__ import annotations

import json
import os

from repro.sim import runner
from repro.sim.runner import RunnerPolicy, Task, run_tasks

from .conftest import make_kernel, make_trace, small_config


def _ok(x):
    return x * 2


def _boom(_x):
    raise ValueError("deliberate test failure")


def _flaky(marker_dir, x):
    sentinel = os.path.join(marker_dir, "attempted")
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("first attempt always fails")
    return x + 100


def _simulate(_x):
    """A task whose result is a real RunResult (for digest enrichment)."""
    from repro.numa.system import MultiGpuSystem

    cfg = small_config()
    trace = make_trace([make_kernel(list(range(16)), n_ctas=4)])
    return MultiGpuSystem(cfg).run(trace)


def _events(journal, event: str) -> list[dict]:
    return [rec for rec in map(json.loads, journal.read_text().splitlines())
            if rec["event"] == event]


def _retried_batch(tmp_path, monkeypatch, jobs: int):
    """flaky: 2 attempts (1 retry), succeeds; dead: 2 attempts, fails."""
    monkeypatch.setattr(runner, "BACKOFF_BASE_S", 0.0)
    journal = tmp_path / "j.jsonl"
    tasks = [
        Task(key="flaky", fn=_flaky, args=(str(tmp_path), 1)),
        Task(key="dead", fn=_boom, args=(1,)),
    ]
    batch = run_tasks(
        tasks, RunnerPolicy(jobs=jobs, retries=1, journal_path=journal)
    )
    assert batch.results["flaky"] == 101
    assert "dead" in batch.failures
    assert len(_events(journal, "start")) == 4
    assert sorted(r["key"] for r in _events(journal, "retry")) == [
        "dead", "flaky"]
    (failed,) = _events(journal, "failed")
    assert (failed["key"], failed["kind"], failed["attempts"]) == (
        "dead", runner.KIND_EXCEPTION, 2)
    return journal


class TestRegistryWiring:
    """What the runner once counted in a registry, the journal records."""

    def test_attempts_counted(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        batch = run_tasks(
            [Task(key=k, fn=_ok, args=(1,)) for k in ("a", "b", "c")],
            RunnerPolicy(journal_path=journal),
        )
        assert len(batch.results) == 3
        starts = _events(journal, "start")
        assert [(s["key"], s["attempt"]) for s in starts] == [
            ("a", 1), ("b", 1), ("c", 1)]
        assert _events(journal, "retry") == []

    def test_retries_and_failures_counted(self, tmp_path, monkeypatch):
        journal = _retried_batch(tmp_path, monkeypatch, jobs=1)
        assert {s["slot"] for s in _events(journal, "start")} == {-1}

    def test_pooled_retries_and_failures_recorded(self, tmp_path,
                                                  monkeypatch):
        journal = _retried_batch(tmp_path, monkeypatch, jobs=2)
        assert {s["slot"] for s in _events(journal, "start")} <= {0, 1}

    def test_no_registry_is_free(self):
        batch = run_tasks(
            [Task(key="a", fn=_ok, args=(2,))], RunnerPolicy()
        )
        assert batch.results["a"] == 4


class TestJournalEnrichment:
    def test_done_record_carries_metrics_digest(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        batch = run_tasks(
            [Task(key="sim", fn=_simulate, args=(0,))],
            RunnerPolicy(journal_path=journal),
        )
        assert "sim" in batch.results
        done = [
            json.loads(line) for line in journal.read_text().splitlines()
            if json.loads(line)["event"] == "done"
        ]
        assert len(done) == 1
        digest = done[0]["metrics"]
        assert digest["kernels"] == 1
        assert digest["sim.accesses"] == 16

    def test_non_result_tasks_have_no_metrics_key(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_tasks(
            [Task(key="a", fn=_ok, args=(1,))],
            RunnerPolicy(journal_path=journal),
        )
        done = [
            json.loads(line) for line in journal.read_text().splitlines()
            if json.loads(line)["event"] == "done"
        ]
        assert "metrics" not in done[0]
