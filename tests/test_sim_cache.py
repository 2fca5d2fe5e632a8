"""Tests for sim-cache corruption handling (quarantine, not silent miss)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.perf.stats import RunResult
from repro.sim import cache as simcache
from repro.sim import driver, durable
from repro.sim.experiments import run_suite
from repro.sim.runner import RunnerPolicy
from repro.workloads.base import WorkloadSpec, trace_key

from .conftest import count_generations


def cache_spec():
    return WorkloadSpec(
        name="cache", abbr="cache", suite="HPC",
        footprint_bytes=2**20 * 512,
        n_kernels=1, warmup_kernels=0, n_ctas=4,
        coverage=0.5, min_accesses=100, max_accesses=200,
        shared_page_frac=0.5, shared_access_frac=0.5,
        rw_page_frac=0.5, instr_per_access=5.0,
    )


@pytest.fixture
def live_cache(monkeypatch, tmp_path):
    """Point the cache at a tmp dir and re-enable it (conftest disables)."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(durable, "_warned_kinds", set())
    return tmp_path


def _entry_path(spec, config):
    return simcache.cache_dir() / f"{simcache._key(spec, config)}.pkl"


def _result(spec, config):
    return RunResult(
        workload=spec.abbr, config_label="test", n_gpus=config.n_gpus
    )


class TestQuarantine:
    def test_roundtrip_still_works(self, live_cache, config):
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        hit = simcache.load(spec, config)
        assert isinstance(hit, RunResult)
        assert hit.workload == spec.abbr

    def test_corrupt_entry_quarantined_with_warning(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert simcache.load(spec, config) is None  # a miss, not a crash
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_truncated_pickle_quarantined(self, live_cache, config):
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        path = _entry_path(spec, config)
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert simcache.load(spec, config) is None
        assert path.with_suffix(".corrupt").exists()

    def test_wrong_type_quarantined(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(durable.seal(pickle.dumps({"not": "a RunResult"})))
        with pytest.warns(RuntimeWarning, match="not RunResult"):
            assert simcache.load(spec, config) is None
        assert path.with_suffix(".corrupt").exists()

    def test_bit_flips_never_load_a_different_result(self, live_cache,
                                                     config):
        """A damaged entry is a quarantined miss, never a wrong hit."""
        spec = cache_spec()
        original = RunResult(
            workload=spec.abbr, config_label="flips", n_gpus=config.n_gpus,
            pages_mapped=[1000 + g for g in range(config.n_gpus)],
            pages_replicated=[7 * g for g in range(config.n_gpus)],
            remote_pages_touched=[300 + g for g in range(config.n_gpus)],
            page_access_counts=list(range(500, 400, -1)),
        )
        simcache.store(spec, config, original)
        path = _entry_path(spec, config)
        clean = path.read_bytes()
        rng = random.Random(1302)
        for _ in range(64):
            bit = rng.randrange(len(clean) * 8)
            damaged = bytearray(clean)
            damaged[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(damaged))
            loaded = simcache.load(spec, config)
            if loaded is None:
                assert not path.exists()
                assert path.with_suffix(".corrupt").exists()
                path.with_suffix(".corrupt").unlink()
            else:
                assert loaded == original

    def test_recompute_after_quarantine(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        calls = []

        def compute():
            calls.append(1)
            return _result(spec, config)

        out = simcache.cached(spec, config, compute)
        assert len(calls) == 1  # quarantine produced a miss -> recompute
        assert isinstance(out, RunResult)
        # The fresh result replaced the entry; the next call is a hit.
        simcache.cached(spec, config, compute)
        assert len(calls) == 1

    def test_clear_sweeps_quarantine_files(self, live_cache, config):
        spec = cache_spec()
        path = _entry_path(spec, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        simcache.load(spec, config)
        assert path.with_suffix(".corrupt").exists()
        assert simcache.clear() >= 1
        assert not path.with_suffix(".corrupt").exists()


class TestDisabled:
    def test_no_cache_env_short_circuits(self, monkeypatch, tmp_path, config):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = cache_spec()
        simcache.store(spec, config, _result(spec, config))
        assert not list(tmp_path.iterdir())
        assert simcache.load(spec, config) is None


def _trace_files(root):
    return sorted((root / simcache.TRACE_DIR).glob("*"))


class TestTraceEntries:
    """Generated traces are sim-cache entries shared by every system."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(driver, "_trace_memo", driver._TraceMemo())

    def test_pooled_batch_loads_traces_it_did_not_generate(
            self, live_cache, monkeypatch):
        names = ["Lulesh", "Euler"]
        reference = run_suite("carve-hwc", workloads=names,
                              use_cache=False)
        # Workers fork with the parent's memo: empty it, so they store.
        monkeypatch.setattr(driver, "_trace_memo", driver._TraceMemo())
        first = run_suite("numa-gpu", workloads=names,
                          runner=RunnerPolicy(jobs=2))
        assert first.ok
        assert len(_trace_files(live_cache)) == 2

        def no_generation(spec, config):
            raise AssertionError(f"regenerated {spec.abbr}")

        # Forked workers inherit the patch: any point that would
        # synthesise a trace fails.
        monkeypatch.setattr(driver, "generate_trace", no_generation)
        second = run_suite("carve-hwc", workloads=names,
                           runner=RunnerPolicy(jobs=2))
        assert second.ok, second.failure_summary()
        assert second.results == reference.results

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_trace_quarantined_and_regenerated(
            self, live_cache, monkeypatch, config, damage):
        spec = cache_spec()
        other = config.replace(n_gpus=2)
        assert trace_key(spec, other) == trace_key(spec, config)
        driver.run_workload(spec, config)
        (path,) = _trace_files(live_cache)
        blob = path.read_bytes()
        path.write_bytes(b"garbage" if damage == "garbage" else blob[:40])
        calls = count_generations(monkeypatch)
        with pytest.warns(RuntimeWarning, match="sim-cache trace") as seen:
            got = driver.run_workload(spec, other)
        assert len([w for w in seen
                    if "quarantined" in str(w.message)]) == 1
        assert calls == [spec.abbr]
        assert path.with_suffix(".corrupt").exists()
        assert path.read_bytes() == blob  # regenerated, byte-identical
        assert got == driver.run_workload(spec, other, use_cache=False)

    def test_uncached_runs_store_no_trace(self, live_cache, monkeypatch,
                                          config):
        spec = cache_spec()
        driver.run_workload(spec, config, use_cache=False)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setattr(driver, "_trace_memo", driver._TraceMemo())
        driver.run_workload(spec, config)
        assert not list(live_cache.iterdir())

    def test_memo_hit_reads_no_entry(self, live_cache, monkeypatch, config):
        spec = cache_spec()
        loads = []
        real = simcache.load_trace
        monkeypatch.setattr(simcache, "load_trace",
                            lambda key: loads.append(key) or real(key))
        driver.run_workload(spec, config)
        driver.run_workload(spec, config.replace(n_gpus=2))
        assert len(loads) == 1
