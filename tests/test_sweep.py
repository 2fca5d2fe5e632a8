"""Tests for the parameter-sweep utilities."""

import json
from dataclasses import replace

import pytest

from repro.config import ConfigError, LinkConfig, baseline_config
from repro.sim.chaos import KIND_WORKER_KILL, PLAN_ENV, FaultEvent
from repro.sim.journal import Journal
from repro.sim.runner import KIND_CRASH, RunnerPolicy
from repro.sim.sweep import point_key, reprice_sweep, run_sweep
from repro.workloads.base import WorkloadSpec
from tests.conftest import arm_chaos, count_generations

GB = 2**30


def fast_spec():
    return WorkloadSpec(
        name="sweep", abbr="sweep", suite="HPC",
        footprint_bytes=2**20 * 1024,
        n_kernels=2, warmup_kernels=1, n_ctas=8,
        coverage=0.6, min_accesses=1500, max_accesses=2500,
        shared_page_frac=0.5, shared_access_frac=0.6,
        rw_page_frac=0.8, instr_per_access=5.0,
    )


WL = [fast_spec()]
WL_NAMES = [fast_spec()]  # run_workload accepts specs directly


class TestRunSweep:
    def test_rdc_size_sweep_monotone(self):
        base = baseline_config()
        sweep = run_sweep(
            "rdc",
            [0.25 * GB, 2 * GB],
            lambda v: base.with_rdc(int(v)),
            WL_NAMES,
            use_cache=False,
        )
        spec = WL_NAMES[0]
        t_small = sweep.time(0.25 * GB, spec.abbr)
        t_big = sweep.time(2 * GB, spec.abbr)
        assert t_big <= t_small * 1.05

    def test_series_and_points(self):
        base = baseline_config()
        sweep = run_sweep(
            "gpus", [2, 4], lambda v: base.replace(n_gpus=int(v)),
            WL_NAMES, use_cache=False,
        )
        series = sweep.series(WL_NAMES[0].abbr)
        assert set(series) == {2, 4}
        assert all(t > 0 for t in series.values())

    def test_geomean_speedup_vs_pinned_baseline(self):
        base = baseline_config()
        numa = run_sweep("numa", [0.0], lambda v: base, WL_NAMES,
                         use_cache=False)
        carve = run_sweep(
            "rdc", [2 * GB], lambda v: base.with_rdc(int(v)), WL_NAMES,
            use_cache=False,
        )
        sp = carve.geomean_speedup_vs(numa, baseline_value=0.0)
        assert sp[2 * GB] > 1.0


class TestFaultTolerantSweep:
    """The runner-backed sweep path: parallelism, crashes, resume."""

    def _run(self, runner=None):
        base = baseline_config()
        return run_sweep(
            "rdc", [0.5 * GB, 2 * GB],
            lambda v: base.with_rdc(int(v)),
            WL_NAMES, use_cache=False, runner=runner,
        )

    def test_parallel_sweep_bit_identical_to_serial(self, tmp_path):
        serial = self._run(RunnerPolicy(journal_path=tmp_path / "s.jsonl"))
        parallel = self._run(
            RunnerPolicy(jobs=2, journal_path=tmp_path / "p.jsonl")
        )
        assert parallel.ok
        assert set(parallel.points) == set(serial.points)
        for key, point in serial.points.items():
            assert parallel.points[key].time_s == point.time_s
            assert parallel.points[key].result == point.result
        # Both journals record the same metric digest for every point.
        done = [
            {rec["key"]: rec["metrics"]
             for rec in Journal(tmp_path / name).records()
             if rec["event"] == "done"}
            for name in ("s.jsonl", "p.jsonl")
        ]
        assert set(done[0]) == set(done[1])
        assert len(done[0]) == len(serial.points)
        for key, metrics in done[0].items():
            assert metrics, key
            assert set(metrics) == set(done[1][key]), key
            for name, value in metrics.items():
                assert done[1][key][name] == value, (key, name)

    def test_injected_crash_fails_only_that_point(self, monkeypatch, tmp_path):
        """Acceptance: a crashed worker yields a completed SweepResult
        with a FailureReport for exactly the affected point, and a
        resume pass re-runs only that point."""
        journal = tmp_path / "sweep.jsonl"
        abbr = WL_NAMES[0].abbr
        victim = point_key("rdc", 0.5 * GB, abbr)
        arm_chaos(monkeypatch, tmp_path / "chaos",
                  FaultEvent(KIND_WORKER_KILL, victim))
        sweep = self._run(RunnerPolicy(jobs=2, journal_path=journal))

        assert not sweep.ok
        assert set(sweep.failures) == {(0.5 * GB, abbr)}
        report = sweep.failures[(0.5 * GB, abbr)]
        assert report.kind == KIND_CRASH
        assert victim in sweep.failure_summary()
        # The healthy point completed despite its neighbour crashing.
        assert sweep.time(2 * GB, abbr) > 0

        # Clear the fault; resume re-runs only the crashed point.
        monkeypatch.delenv(PLAN_ENV)
        resumed = self._run(
            RunnerPolicy(jobs=2, journal_path=journal, resume=True)
        )
        assert resumed.ok
        assert resumed.time(0.5 * GB, abbr) > 0
        with journal.open() as f:
            starts = [
                json.loads(line)["key"] for line in f
                if json.loads(line)["event"] == "start"
            ]
        assert starts.count(victim) == 2  # crashed run + resume run
        other = point_key("rdc", 2 * GB, abbr)
        assert starts.count(other) == 1  # never re-executed

    def test_bad_factory_rejected_before_any_simulation(self):
        import dataclasses

        base = baseline_config()
        # dataclasses.replace bypasses SystemConfig.replace's own eager
        # validation, so the sweep's up-front check is what catches it.
        with pytest.raises(ConfigError, match="value -1"):
            run_sweep(
                "gpus", [4, -1],
                lambda v: dataclasses.replace(base, n_gpus=int(v)),
                WL_NAMES, use_cache=False,
            )


class TestRepriceSweep:
    def test_link_bandwidth_repricing(self):
        base = baseline_config()

        def priced(bw):
            return base.replace(link=LinkConfig(inter_gpu_bytes_per_s=bw))

        sweep = reprice_sweep(
            "bw", [32e9, 256e9], base, priced, WL_NAMES, use_cache=False
        )
        abbr = WL_NAMES[0].abbr
        assert sweep.time(32e9, abbr) > sweep.time(256e9, abbr)

    def test_repricing_shares_one_simulation(self):
        base = baseline_config()

        def priced(bw):
            return base.replace(link=LinkConfig(inter_gpu_bytes_per_s=bw))

        sweep = reprice_sweep(
            "bw", [32e9, 64e9], base, priced, WL_NAMES, use_cache=False
        )
        abbr = WL_NAMES[0].abbr
        assert (
            sweep.points[(32e9, abbr)].result
            is sweep.points[(64e9, abbr)].result
        )

    def test_traffic_affecting_change_rejected(self):
        base = baseline_config()
        with pytest.raises(ValueError):
            reprice_sweep(
                "bad", [2.0], base,
                lambda v: base.replace(n_gpus=2),
                WL_NAMES, use_cache=False,
            )

    def test_rdc_change_rejected(self):
        base = baseline_config().with_rdc()
        with pytest.raises(ValueError):
            reprice_sweep(
                "bad", [1.0], base,
                lambda v: base.with_rdc(int(v * GB)),
                WL_NAMES, use_cache=False,
            )


class TestSweepOrder:
    def test_inline_sweep_generates_each_trace_once(self, monkeypatch):
        # Three values x two workloads, submitted workload-major: the
        # three points of a workload share one generated trace.
        calls = count_generations(monkeypatch)
        specs = [fast_spec(), replace(fast_spec(), name="other",
                                      abbr="other")]
        base = baseline_config()
        sweep = run_sweep("rdc", [0.5 * GB, 1 * GB, 2 * GB],
                          lambda v: base.with_rdc(int(v)), specs,
                          use_cache=False)
        assert sweep.ok and len(sweep.points) == 6
        assert calls == ["sweep", "other"]
