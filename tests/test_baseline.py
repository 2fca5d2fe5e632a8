"""Tests for run records, the baseline store, and bench stamping."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import subprocess
import warnings
from pathlib import Path

import pytest

from repro.numa.system import ENGINE_VECTORIZED, MultiGpuSystem
from repro.obs import summary
from repro.obs.baseline import (
    DETERMINISTIC_KEYS,
    RECORD_KIND,
    SCHEMA_VERSION,
    BaselineStore,
    environment_fingerprint,
    git_sha,
    make_run_record,
    store_points,
    validate_record,
)
from repro.obs.metrics import default_registry
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from .conftest import tiny_rdc_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def _small_result_and_cfg():
    """A fast real RunResult on a small CARVE system."""
    cfg = tiny_rdc_config()
    spec = dataclasses.replace(
        get("Lulesh"), n_kernels=3, warmup_kernels=1,
        max_accesses=3000, min_accesses=500,
    )
    trace = generate_trace(spec, cfg)
    result = MultiGpuSystem(cfg, engine=ENGINE_VECTORIZED).run(trace)
    return result, cfg


def _record():
    result, cfg = _small_result_and_cfg()
    return make_run_record(
        result, cfg, "carve-hwc", "Lulesh",
        engine=ENGINE_VECTORIZED, modelled_s=1e-4,
    )


class TestFingerprint:
    def test_core_fields(self):
        fp = environment_fingerprint()
        assert fp["schema_version"] == SCHEMA_VERSION
        assert isinstance(fp["code_version"], int)
        assert "python" in fp
        assert "config_hash" not in fp and "engine" not in fp

    def test_config_and_engine_contribute(self, carve_cfg):
        fp = environment_fingerprint(carve_cfg, ENGINE_VECTORIZED)
        assert len(fp["config_hash"]) == 16
        assert fp["engine"] == ENGINE_VECTORIZED

    def test_git_sha_best_effort(self):
        sha = git_sha()
        assert sha is None or (isinstance(sha, str) and len(sha) <= 12)

    def test_git_sha_spawns_once_per_process(self, monkeypatch):
        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        git_sha.cache_clear()
        try:
            first = environment_fingerprint()["git_sha"]
            second = environment_fingerprint()["git_sha"]
        finally:
            git_sha.cache_clear()
        assert first == second
        assert len(spawned) == 1


class TestRunRecord:
    def test_structure(self):
        rec = _record()
        assert rec["kind"] == RECORD_KIND
        assert rec["schema_version"] == SCHEMA_VERSION
        assert set(DETERMINISTIC_KEYS) <= set(rec["deterministic"])
        assert validate_record(rec) == []
        # JSON-safe end to end.
        assert json.loads(json.dumps(rec)) == rec

    def test_link_matrix_consistent_with_digest(self):
        rec = _record()
        matrix = rec["link_matrix"]
        assert sum(sum(row) for row in matrix) == \
            rec["deterministic"]["link.bytes"]
        assert all(matrix[i][i] == 0 for i in range(len(matrix)))

    def test_perf_holds_modelled_time_only(self):
        # No host time: a record reads the same on every machine.
        assert _record()["perf"] == {"modelled_total_s": 1e-4}

    def test_non_result_rejected(self, carve_cfg):
        with pytest.raises(ValueError, match="cannot digest"):
            make_run_record(
                object(), carve_cfg, "s", "w",
                engine=ENGINE_VECTORIZED, modelled_s=1.0,
            )

    def test_validate_flags_problems(self):
        assert validate_record("nope")
        assert any("kind" in p for p in validate_record({}))
        rec = _record()
        rec["schema_version"] = SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_record(rec))


class TestBaselineStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = BaselineStore(tmp_path / "b")
        rec = _record()
        path = store.save(rec)
        assert path == tmp_path / "b" / "carve-hwc" / "Lulesh.json"
        assert store.load("carve-hwc", "Lulesh") == rec
        assert store.load("carve-hwc", "Euler") is None

    def test_entries_sorted(self, tmp_path):
        store = BaselineStore(tmp_path / "b")
        rec = _record()
        for system, workload in (("z-sys", "W"), ("a-sys", "W")):
            store.save({**rec, "system": system, "workload": workload})
        got = [(e.system, e.workload) for e in store.entries()]
        assert got == [("a-sys", "W"), ("z-sys", "W")]

    def test_malformed_record_refused(self, tmp_path):
        store = BaselineStore(tmp_path / "b")
        with pytest.raises(ValueError, match="malformed"):
            store.save({"kind": "wrong"})

    def test_store_points_systems_major(self):
        pts = store_points(BaselineStore("x"), ["s1", "s2"], ["w1", "w2"])
        assert pts == [("s1", "w1"), ("s1", "w2"),
                       ("s2", "w1"), ("s2", "w2")]


class TestCommittedStore:
    """The baselines/ directory shipped in the repository is sound."""

    def test_committed_records_validate(self):
        store = BaselineStore(REPO_ROOT / "baselines")
        entries = store.entries()
        assert len(entries) >= 4
        for entry in entries:
            assert validate_record(entry.record) == [], entry.path
            assert entry.record["system"] == entry.system
            assert entry.record["workload"] == entry.workload


class _ExplodingResult:
    """RunResult-shaped, but the digest blows up mid-way."""

    workload = "boom"
    config_label = "boom"
    kernels = ()

    def total(self):
        raise RuntimeError("synthetic digest failure")


class TestDigestFailureAccounting:
    def test_counts_and_warns_once(self, monkeypatch):
        monkeypatch.setattr(summary, "_warned_digest_failure", False)
        registry = default_registry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert summary.summarize_result(
                _ExplodingResult(), registry=registry) is None
            assert summary.summarize_result(
                _ExplodingResult(), registry=registry) is None
        assert registry.get("obs.digest_errors").total() == 2
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "obs.digest_errors" in str(runtime[0].message)

    def test_duck_type_miss_stays_silent(self, monkeypatch):
        monkeypatch.setattr(summary, "_warned_digest_failure", False)
        registry = default_registry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert summary.summarize_result(None, registry=registry) is None
            assert summary.summarize_result({}, registry=registry) is None
        assert registry.get("obs.digest_errors").total() == 0
        assert not caught

    def test_failure_never_propagates_without_registry(self, monkeypatch):
        monkeypatch.setattr(summary, "_warned_digest_failure", True)
        assert summary.summarize_result(_ExplodingResult()) is None


def _load_bench_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", REPO_ROOT / "benchmarks" / "_common.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchStamping:
    def test_payload_is_stamped(self, tmp_path):
        common = _load_bench_common()
        out = tmp_path / "BENCH_x.json"
        common.save_bench_json(out, {"bench": "x", "speedup": 2.0})
        doc = json.loads(out.read_text())
        assert doc["speedup"] == 2.0
        stamp = doc["provenance"]
        assert stamp["schema_version"] == common.BENCH_SCHEMA_VERSION
        assert isinstance(stamp["code_version"], int)
        assert "generated_at" in stamp and "git_sha" in stamp

    def test_shipped_bench_payload_is_stamped(self):
        path = REPO_ROOT / "BENCH_hotpath.json"
        doc = json.loads(path.read_text())
        stamp = doc["provenance"]
        assert stamp["schema_version"] >= 1
        assert isinstance(stamp["code_version"], int)
        assert stamp["generated_at"] and stamp["git_sha"]
