"""Tests for the experiment configuration registry and figure helpers."""

import pytest

from repro.config import (
    COHERENCE_HARDWARE,
    COHERENCE_NONE,
    COHERENCE_SOFTWARE,
    REPLICATE_ALL,
    REPLICATE_READ_ONLY,
)
from repro.sim import experiments as E
from repro.sim.chaos import KIND_WORKER_EXCEPTION, FaultEvent
from repro.sim.runner import BatchFailed
from tests.conftest import arm_chaos, count_generations


class TestConfigRegistry:
    def test_all_eight_configs(self):
        cfgs = E.experiment_configs()
        assert len(cfgs) == 8

    def test_single_gpu(self):
        cfg = E.config_for(E.SINGLE_GPU)
        assert cfg.n_gpus == 1 and not cfg.has_rdc

    def test_numa_gpu_baseline(self):
        cfg = E.config_for(E.NUMA_GPU)
        assert cfg.n_gpus == 4 and not cfg.has_rdc
        assert cfg.replication == "none" and not cfg.migration

    def test_migration_config(self):
        assert E.config_for(E.NUMA_MIGRATION).migration

    def test_replication_configs(self):
        assert E.config_for(E.NUMA_REPL_RO).replication == REPLICATE_READ_ONLY
        assert E.config_for(E.IDEAL).replication == REPLICATE_ALL

    def test_carve_coherence_variants(self):
        assert E.config_for(E.CARVE_NOC).rdc.coherence == COHERENCE_NONE
        assert E.config_for(E.CARVE_SWC).rdc.coherence == COHERENCE_SOFTWARE
        assert E.config_for(E.CARVE_HWC).rdc.coherence == COHERENCE_HARDWARE

    def test_rdc_size_parameter(self):
        cfg = E.config_for(E.CARVE_HWC, rdc_bytes=2**30)
        assert cfg.rdc.size_bytes == 2**30

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            E.config_for("quantum-gpu")


class TestSuiteHelpers:
    @pytest.fixture(scope="class")
    def runs(self):
        wl = ["Lulesh"]
        # Class-scoped: simulate each config once for all tests below.
        return {
            name: E.run_suite(name, workloads=wl, use_cache=False)
            for name in (E.SINGLE_GPU, E.NUMA_GPU, E.IDEAL, E.CARVE_HWC)
        }

    def test_run_suite_covers_requested_workloads(self, runs):
        assert set(runs[E.NUMA_GPU].results) == {"Lulesh"}

    def test_speedups_vs_single(self, runs):
        sp = E.speedups_vs(runs[E.IDEAL], runs[E.SINGLE_GPU])
        assert 2.0 < sp["Lulesh"] < 4.2

    def test_relative_performance_bounded(self, runs):
        rel = E.relative_performance(runs[E.NUMA_GPU], runs[E.IDEAL])
        assert 0.0 < rel["Lulesh"] < 1.1

    def test_paper_ordering_on_lulesh(self, runs):
        """numa < carve <= ideal for a read-write-shared workload."""
        sp = {
            name: E.speedups_vs(run, runs[E.SINGLE_GPU])["Lulesh"]
            for name, run in runs.items()
            if name != E.SINGLE_GPU
        }
        assert sp[E.NUMA_GPU] < sp[E.CARVE_HWC] <= sp[E.IDEAL] * 1.02

    def test_suite_run_time_helper(self, runs):
        assert runs[E.NUMA_GPU].time_s("Lulesh") > 0


class TestBatchOrder:
    def test_figure_generates_each_trace_once(self, monkeypatch):
        # Five systems x two workloads, run workload-major: every system
        # of a workload reuses the trace generated for its first point.
        calls = count_generations(monkeypatch)
        rows = E.figure11(["Nekbone", "OverFeat"], use_cache=False)
        assert calls == ["Nekbone", "OverFeat"]
        assert all(set(row) == {"Nekbone", "OverFeat"}
                   for row in rows.values())


class TestFailedPoints:
    def test_run_suite_without_policy_raises(self, monkeypatch, tmp_path):
        arm_chaos(monkeypatch, tmp_path,
                  FaultEvent(KIND_WORKER_EXCEPTION, "numa-gpu/OverFeat"))
        with pytest.raises(BatchFailed, match="numa-gpu/OverFeat") as info:
            E.run_suite(E.NUMA_GPU, workloads=["Nekbone", "OverFeat"],
                        use_cache=False)
        assert info.value.report.kind == "exception"
        assert "ChaosInjectedError" in str(info.value)  # the traceback

    def test_figure_raises_instead_of_a_short_row(self, monkeypatch,
                                                  tmp_path):
        arm_chaos(monkeypatch, tmp_path,
                  FaultEvent(KIND_WORKER_EXCEPTION, "carve-hwc/OverFeat"))
        with pytest.raises(BatchFailed, match="carve-hwc/OverFeat"):
            E.figure8(["Nekbone", "OverFeat"], use_cache=False)
