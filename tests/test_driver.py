"""Tests for the simulation driver and result cache."""

import dataclasses

import pytest

from repro.config import COHERENCE_DIRECTORY, REPLICATE_ALL
from repro.perf.model import PerformanceModel
from repro.sim import cache as simcache
from repro.sim import driver
from repro.sim.driver import resolve_workload, run_time, run_workload, time_of
from repro.sim.experiments import experiment_configs
from repro.workloads import suite
from repro.workloads.base import WorkloadSpec, generate_trace, trace_key
from tests.conftest import small_config


def fast_spec(**kw) -> WorkloadSpec:
    base = dict(
        name="fast", abbr="fast", suite="HPC",
        footprint_bytes=2**20 * 1024,
        n_kernels=2, warmup_kernels=1, n_ctas=8,
        coverage=0.5, min_accesses=1500, max_accesses=2500,
        shared_page_frac=0.4, shared_access_frac=0.4,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestResolve:
    def test_resolves_abbr(self):
        assert resolve_workload("Lulesh") is suite.get("Lulesh")

    def test_passes_spec_through(self):
        s = fast_spec()
        assert resolve_workload(s) is s


class TestRunWorkload:
    def test_produces_measured_kernels(self):
        r = run_workload(fast_spec(), small_config(), use_cache=False)
        assert len(r.measured_kernels()) == 2
        assert r.total().accesses > 0

    def test_page_heat_attached(self):
        r = run_workload(fast_spec(), small_config(), use_cache=False)
        assert r.page_access_counts
        assert r.page_access_counts == sorted(
            r.page_access_counts, reverse=True
        )

    def test_replication_plan_built_when_policy_active(self):
        cfg = small_config(replication=REPLICATE_ALL)
        r = run_workload(fast_spec(), cfg, use_cache=False)
        assert sum(r.pages_replicated) > 0

    def test_label_recorded(self):
        r = run_workload(fast_spec(), small_config(), label="mylabel",
                         use_cache=False)
        assert r.config_label == "mylabel"

    def test_explicit_trace_bypasses_generation(self):
        from repro.workloads.base import generate_trace

        cfg = small_config()
        trace = generate_trace(fast_spec(), cfg)
        r = run_workload(fast_spec(), cfg, trace=trace)
        assert r.total().accesses > 0


class TestTiming:
    def test_time_positive(self):
        cfg = small_config()
        r = run_workload(fast_spec(), cfg, use_cache=False)
        assert time_of(r, cfg) > 0

    def test_run_time_breakdown(self):
        cfg = small_config()
        r = run_workload(fast_spec(), cfg, use_cache=False)
        rt = run_time(r, cfg)
        assert len(rt.kernels) == 2
        assert rt.total_s == pytest.approx(time_of(r, cfg))

    def test_time_matches_model(self):
        cfg = small_config()
        r = run_workload(fast_spec(), cfg, use_cache=False)
        assert time_of(r, cfg) == PerformanceModel(cfg).total_time_s(r)


class TestDiskCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = small_config()
        spec = fast_spec()
        r1 = run_workload(spec, cfg)
        assert list(tmp_path.glob("*.pkl"))
        r2 = run_workload(spec, cfg)
        assert r2.total().accesses == r1.total().accesses

    def test_key_distinguishes_configs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        spec = fast_spec()
        run_workload(spec, small_config())
        run_workload(spec, small_config(n_gpus=2))
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_workload(fast_spec(), small_config())
        assert not list(tmp_path.glob("*.pkl"))

    def test_corrupt_entry_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = small_config()
        spec = fast_spec()
        run_workload(spec, cfg)
        for p in tmp_path.glob("*.pkl"):
            p.write_bytes(b"not a pickle")
        r = run_workload(spec, cfg)  # recomputes without raising
        assert r.total().accesses > 0

    def test_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        run_workload(fast_spec(), small_config())
        assert simcache.clear() >= 1
        assert not list(tmp_path.glob("*.pkl"))


def _trace_bytes(trace) -> list:
    return [
        (k.kernel_id, k.warmup, k.lines.tobytes(), k.is_write.tobytes(),
         k.cta_ids.tobytes())
        for k in trace.kernels
    ]


@pytest.fixture
def generations(monkeypatch):
    """Start from an empty trace memo; record every real generation."""
    calls = []
    real = driver.generate_trace

    def counting(spec, config):
        calls.append(spec.abbr)
        return real(spec, config)

    monkeypatch.setattr(driver, "generate_trace", counting)
    monkeypatch.setattr(driver, "_trace_memo", driver._TraceMemo())
    return calls


class TestTraceMemo:
    def test_equal_key_means_identical_trace(self):
        base = small_config()
        configs = list(experiment_configs(base).values()) + [
            base.replace(link=dataclasses.replace(
                base.link, inter_gpu_bytes_per_s=256.0e9)),
            base.with_rdc(2 * 2**30, coherence=COHERENCE_DIRECTORY),
            base.replace(migration=True, migration_threshold=4),
        ]
        for spec in (fast_spec(), suite.get("SSSP")):
            assert len({trace_key(spec, c) for c in configs}) == 1
            want = _trace_bytes(generate_trace(spec, configs[0]))
            for cfg in configs[1:]:
                assert _trace_bytes(generate_trace(spec, cfg)) == want

    @pytest.mark.parametrize("change", [
        {"scale": 512}, {"page_bytes": 4 * 2**20},
    ])
    def test_geometry_changes_key_and_trace(self, change):
        spec = fast_spec()
        base = small_config()
        other = base.replace(**change)
        assert trace_key(spec, other) != trace_key(spec, base)
        assert _trace_bytes(generate_trace(spec, other)) != _trace_bytes(
            generate_trace(spec, base))

    def test_consecutive_systems_generate_once(self, generations):
        spec = fast_spec()
        run_workload(spec, small_config(), use_cache=False)
        run_workload(spec, small_config().with_rdc(2 * 2**30),
                     use_cache=False)
        assert generations == ["fast"]

    def test_switching_workloads_regenerates(self, generations):
        a, b = fast_spec(), fast_spec(abbr="other", seed=2)
        for spec in (a, b, a):
            run_workload(spec, small_config(), use_cache=False)
        assert generations == ["fast", "other", "fast"]

    def test_memoised_run_matches_fresh_trace(self, generations):
        spec = fast_spec()
        cfg = small_config(replication=REPLICATE_ALL)
        run_workload(spec, small_config(), use_cache=False)
        memoised = run_workload(spec, cfg, use_cache=False)
        fresh = run_workload(spec, cfg, trace=generate_trace(spec, cfg))
        assert len(generations) == 1
        assert memoised == fresh

    def test_memoised_arrays_reject_writes(self, generations):
        trace = driver._memoised_trace(fast_spec(), small_config())
        kernel = trace.kernels[0]
        for arr in (kernel.lines, kernel.is_write, kernel.cta_ids):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
