"""Tests for the seeded chaos engine and drill (sim/chaos.py).

Kill-flavoured kinds (worker_kill, journal_torn_tail) SIGKILL the
injecting process, so their direct injection paths are exercised in
subprocesses (here and in test_journal_v2.py); everything else is
unit-tested in-process through :func:`repro.sim.chaos.install`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim import chaos
from repro.sim.chaos import (
    DRILL_WORKLOADS,
    FAULT_KINDS,
    KIND_SIDECAR_CORRUPT,
    KIND_SIMCACHE_CORRUPT,
    KIND_TO_SITE,
    KIND_WORKER_EXCEPTION,
    PLAN_ENV,
    REQUIRED_KINDS,
    SITE_JOURNAL_APPEND,
    SITE_SIDECAR_STORE,
    SITE_SIMCACHE_STORE,
    SITE_TASK,
    STATE_ENV,
    ChaosEngine,
    ChaosInjectedError,
    ChaosPlan,
    DrillReport,
    FaultEvent,
    _check_invariants,
    _damage_file,
    run_drill,
)
from repro.sim.journal import Journal


@pytest.fixture(autouse=True)
def _no_leftover_engine(monkeypatch):
    """Each test starts and ends with chaos disarmed."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


def _engine(tmp_path, *events, registry=None):
    plan = ChaosPlan(seed=0, events=tuple(events))
    return ChaosEngine(plan, tmp_path / "state", registry=registry)


class TestPlan:
    def test_same_seed_same_schedule(self):
        keys = ["numa-gpu/Lulesh", "numa-gpu/Euler"]
        assert ChaosPlan.generate(7, keys=keys) == ChaosPlan.generate(
            7, keys=keys
        )

    def test_different_seeds_differ(self):
        # Not guaranteed in principle, but these two do — a seed that
        # does not influence the schedule would break drill coverage.
        assert ChaosPlan.generate(1) != ChaosPlan.generate(2)

    def test_required_trio_always_scheduled(self):
        for seed in range(20):
            plan = ChaosPlan.generate(seed)
            kinds = [e.kind for e in plan.events]
            for required in REQUIRED_KINDS:
                assert required in kinds

    def test_save_load_round_trip(self, tmp_path):
        plan = ChaosPlan.generate(42, keys=["a", "b"])
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ChaosPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent.from_payload({"kind": "meteor_strike"})

    def test_simcache_events_are_never_key_scoped(self):
        # The sim-cache site fires with a workload name, not a task key,
        # so a key-scoped simcache_corrupt event could never match.
        keys = [f"numa-gpu/{w}" for w in DRILL_WORKLOADS]
        events = [
            e for seed in range(64)
            for e in ChaosPlan.generate(seed, keys=keys).events
            if e.kind == KIND_SIMCACHE_CORRUPT
        ]
        assert events and all(e.match == "" for e in events)

    def test_every_kind_has_a_site(self):
        # One kind per recovery mechanism the byte-identity drill needs.
        assert KIND_TO_SITE == {
            "worker_kill": SITE_TASK,
            "worker_exception": SITE_TASK,
            "journal_torn_tail": SITE_JOURNAL_APPEND,
            "sidecar_corrupt": SITE_SIDECAR_STORE,
            "simcache_corrupt": SITE_SIMCACHE_STORE,
        }
        assert FAULT_KINDS == tuple(KIND_TO_SITE)

    def test_ci_seed_schedules_every_kind(self):
        # The CI chaos job's seed: one drill exercises all five kinds.
        keys = [f"numa-gpu/{w}" for w in DRILL_WORKLOADS]
        kinds = [e.kind for e in ChaosPlan.generate(1302, keys=keys).events]
        assert sorted(kinds) == sorted([
            "worker_kill", "journal_torn_tail", "sidecar_corrupt",
            "simcache_corrupt", "worker_exception", "worker_exception",
        ])


class TestEngineSemantics:
    def test_nth_counts_matching_calls(self, tmp_path):
        eng = _engine(
            tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=2)
        )
        eng.fire(SITE_TASK, "k1")  # tick 1 < nth: no injection
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k2")  # tick 2: fires

    def test_fires_at_most_once(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k")
        eng.fire(SITE_TASK, "k")  # already injected: no-op

    def test_once_only_across_engine_instances(self, tmp_path):
        # Two engines sharing a state directory model two processes of
        # the same batch: the second must observe the first's injection.
        ev = FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1)
        first = _engine(tmp_path, ev)
        with pytest.raises(ChaosInjectedError):
            first.fire(SITE_TASK, "k")
        second = ChaosEngine(first.plan, first.state_dir)
        second.fire(SITE_TASK, "k")  # no re-injection

    def test_fires_late_if_claimer_died(self, tmp_path):
        # A process that claims tick nth and dies before injecting must
        # not lose the event: the next matching call (tick > nth) fires.
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        eng.state_dir.mkdir(parents=True)
        (eng.state_dir / "ev0.tick1").touch()  # the dead claimer's tick
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "k")

    def test_match_scopes_to_key_substring(self, tmp_path):
        eng = _engine(
            tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "victim", nth=1)
        )
        eng.fire(SITE_TASK, "bystander")  # no match: not even a tick
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "numa-gpu/victim")

    def test_site_mismatch_ignored(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        eng.fire(SITE_SIDECAR_STORE, "k")  # wrong site entirely
        assert ChaosEngine.injected(eng.state_dir) == []

    def test_audit_record_written_with_metrics(self, tmp_path):
        registry = MetricsRegistry()
        eng = _engine(
            tmp_path,
            FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1),
            registry=registry,
        )
        with pytest.raises(ChaosInjectedError):
            eng.fire(SITE_TASK, "numa-gpu/Lulesh")
        (rec,) = ChaosEngine.injected(eng.state_dir)
        assert rec["kind"] == KIND_WORKER_EXCEPTION
        assert rec["site"] == SITE_TASK
        assert rec["key"] == "numa-gpu/Lulesh"
        assert rec["pid"] == os.getpid()
        assert rec["tick"] == 1
        counter = registry.get("chaos.injected")
        assert counter.value(kind=KIND_WORKER_EXCEPTION) == 1


class TestFaultKinds:
    @pytest.mark.parametrize("kind", [KIND_SIDECAR_CORRUPT])
    def test_sidecar_damage_is_quarantined_on_load(self, tmp_path, kind,
                                                   monkeypatch):
        from repro.sim import durable

        monkeypatch.setattr(durable, "_warned_kinds", set())
        registry = MetricsRegistry()
        chaos.install(
            _engine(tmp_path, FaultEvent(kind, "", nth=1),
                    registry=registry)
        )
        journal = Journal(tmp_path / "j.jsonl", registry=registry)
        journal.store_result("k", {"payload": list(range(100))})
        chaos.uninstall()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert journal.load_result("k") is None
        assert list(journal.results_dir.glob("*.corrupt"))
        assert not list(journal.results_dir.glob("*.pkl"))
        assert registry.get("journal.sidecar_quarantined").value() == 1

    def test_simcache_corrupt_rots_the_entry(self, tmp_path):
        entry = tmp_path / "entry.pkl"
        original = b"\x80\x04" + b"payload" * 20
        entry.write_bytes(original)
        eng = _engine(
            tmp_path, FaultEvent(KIND_SIMCACHE_CORRUPT, "", nth=1)
        )
        eng.fire(SITE_SIMCACHE_STORE, "k", path=entry)
        assert entry.read_bytes() != original
        assert len(entry.read_bytes()) == len(original)

    def test_damage_file_truncate_and_corrupt(self, tmp_path):
        # Damage never truncates: the rot is in place, keeps the length,
        # and is the same for the same seed.
        target = tmp_path / "f"
        data = bytes(range(256))
        target.write_bytes(data)
        _damage_file(target, seed=0)
        rotten = target.read_bytes()
        assert rotten != data and len(rotten) == len(data)
        assert rotten[: len(data) // 3] == data[: len(data) // 3]
        target.write_bytes(data)
        _damage_file(target, seed=0)
        assert target.read_bytes() == rotten
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        _damage_file(empty, seed=0)
        assert empty.read_bytes() == b""


class TestHookPlumbing:
    def test_fire_is_noop_when_disarmed(self, tmp_path):
        chaos.fire(SITE_TASK, "k")  # must not raise or create state

    def test_env_bootstrap_arms_and_memoizes(self, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=0, events=(FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1),)
        )
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        engine = chaos.active()
        assert engine is not None and engine.plan == plan
        assert chaos.active() is engine  # memoized on the env values
        with pytest.raises(ChaosInjectedError):
            chaos.fire(SITE_TASK, "k")

    def test_unreadable_plan_leaves_chaos_off(self, tmp_path, monkeypatch):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json", encoding="utf-8")
        monkeypatch.setenv(PLAN_ENV, str(bad))
        monkeypatch.setenv(STATE_ENV, str(tmp_path / "state"))
        assert chaos.active() is None
        chaos.fire(SITE_TASK, "k")  # still a no-op

    def test_attach_registry_fills_missing_only(self, tmp_path):
        eng = _engine(tmp_path, FaultEvent(KIND_WORKER_EXCEPTION, "", nth=1))
        chaos.install(eng)
        registry = MetricsRegistry()
        chaos.attach_registry(registry)
        assert eng.registry is registry
        chaos.attach_registry(MetricsRegistry())
        assert eng.registry is registry  # first one sticks


_KILL_CHILD = """
import os, sys
from repro.sim import chaos
from repro.sim.chaos import ChaosEngine, ChaosPlan, FaultEvent, SITE_TASK

plan = ChaosPlan(seed=0, events=(FaultEvent("worker_kill", "", 1),))
chaos.install(ChaosEngine(plan, sys.argv[1]))
chaos.fire(SITE_TASK, "doomed")
print("survived")  # must be unreachable
"""


class TestKillKinds:
    def test_worker_kill_sigkills_and_is_audited(self, tmp_path):
        state = tmp_path / "state"
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, str(state)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                   / "src")},
        )
        assert proc.returncode == -9  # SIGKILL, not a clean exit
        assert "survived" not in proc.stdout
        (rec,) = ChaosEngine.injected(state)
        assert rec["kind"] == "worker_kill"  # recorded before dying


def group_alive(pgid: int) -> bool:
    """True while process group *pgid* has a member that has not exited.

    SIGKILLed orphans are reaped by init rather than by the drill, so a
    dead member can linger briefly as a zombie; zombies do not count.
    """
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # exited while being read
        if int(group) == pgid and state != "Z":
            return True
    return False


class TestDrill:
    def test_rejects_single_workload(self, tmp_path):
        with pytest.raises(ValueError):
            run_drill(tmp_path, workloads=("Lulesh",))

    def test_default_workloads_are_plausible(self):
        assert len(DRILL_WORKLOADS) >= 2

    def test_simcache_quarantines_bounded_by_injected_faults(self, tmp_path):
        cache = tmp_path / "cache-chaos"
        cache.mkdir()
        (cache / "entry.corrupt").write_bytes(b"rotted")
        report = DrillReport(seed=0, system="s", workloads=(), jobs=1,
                             pin=False, root=str(tmp_path))
        _check_invariants(report, ChaosPlan(seed=0), tmp_path / "state", [],
                          tmp_path / "ref.jsonl", tmp_path / "chaos.jsonl",
                          cache)
        assert report.quarantined == {"sidecar": 0, "sim-cache": 1}
        assert any("1 sim-cache file(s) quarantined but only 0" in p
                   for p in report.problems)

    @pytest.mark.slow
    def test_end_to_end_drill_passes(self, tmp_path, monkeypatch):
        # Every round runs in its own session; record each group id.
        pgids = []
        popen = subprocess.Popen

        class RecordingPopen(popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("start_new_session"):
                    pgids.append(self.pid)

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        report = run_drill(
            tmp_path / "drill", seed=1, rounds=2, jobs=2,
            workloads=("Lulesh", "Euler"),
        )
        assert report.ok, report.render()
        # No round (nor a pool worker it forked) outlives the drill.  A
        # short grace covers SIGKILL delivery to the last round's group.
        assert len(pgids) == len(report.rounds)
        deadline = time.monotonic() + 5.0
        while any(map(group_alive, pgids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pgid for pgid in pgids if group_alive(pgid)]
        assert report.injected  # something actually fired
        rendered = report.render()
        assert "PASS" in rendered and "byte-identical" in rendered
        # The audit trail on disk matches what the report carries.
        state_records = ChaosEngine.injected(
            Path(tmp_path / "drill" / "chaos-state")
        )
        assert state_records == report.injected


class TestCli:
    def test_chaos_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "--seed", "9", "--rounds", "2", "--jobs", "4",
             "--pin", "--workloads", "Lulesh", "Euler"]
        )
        assert args.seed == 9
        assert args.rounds == 2
        assert args.jobs == 4
        assert args.pin is True
        assert args.workloads == ["Lulesh", "Euler"]
