"""Runner telemetry: metrics registry wiring + journal enrichment."""

from __future__ import annotations

import json
import os

from repro.obs.metrics import default_registry
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


class TestRegistryWiring:
    def test_attempts_counted(self):
        registry = default_registry()
        batch = run_tasks(
            [Task(key=k, fn=_ok, args=(1,)) for k in ("a", "b", "c")],
            RunnerPolicy(),
            registry=registry,
        )
        assert len(batch.results) == 3
        assert registry.get("runner.attempts").total() == 3
        assert registry.get("runner.retries").total() == 0

    def test_retries_and_failures_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "BACKOFF_BASE_S", 0.0)
        registry = default_registry()
        tasks = [
            Task(key="flaky", fn=_flaky, args=(str(tmp_path), 1)),
            Task(key="dead", fn=_boom, args=(1,)),
        ]
        batch = run_tasks(
            tasks,
            RunnerPolicy(retries=1),
            registry=registry,
        )
        assert batch.results["flaky"] == 101
        assert "dead" in batch.failures
        # flaky: 2 attempts (1 retry); dead: 2 attempts (1 retry), fails.
        assert registry.get("runner.attempts").total() == 4
        assert registry.get("runner.retries").total() == 2
        assert registry.get("runner.failures").total() == 1

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
