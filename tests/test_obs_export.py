"""Tests for the Perfetto document builder and writers (repro.obs.export)."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.config import COHERENCE_HARDWARE, COHERENCE_SOFTWARE, WRITE_BACK
from repro.numa.replication import ReplicationPlan
from repro.numa.system import MultiGpuSystem
from repro.obs import Observability
from repro.obs.export import (
    build_chrome_trace,
    write_metrics_json,
    write_trace,
)
from repro.obs.metrics import METRIC_NAMES
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from .conftest import make_kernel, make_trace, small_config, tiny_rdc_config


def _lulesh(cfg):
    spec = dataclasses.replace(
        get("Lulesh"), n_kernels=3, warmup_kernels=1,
        max_accesses=3000, min_accesses=500,
    )
    return generate_trace(spec, cfg)


@pytest.fixture(scope="module")
def observed_run():
    cfg = tiny_rdc_config(coherence=COHERENCE_HARDWARE)
    obs = Observability(trace=True)
    result = MultiGpuSystem(cfg, obs=obs).run(_lulesh(cfg))
    return result, cfg, obs


class TestChromeTrace:
    def test_document_is_json_serializable(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        json.loads(json.dumps(doc))

    def test_schema_essentials(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["n_gpus"] == result.n_gpus
        events = doc["traceEvents"]
        assert events, "empty trace"
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev and ev["ts"] >= 0

    def test_kernel_slices_cover_every_kernel_and_gpu(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(result.kernels) * result.n_gpus
        assert all(e["dur"] >= 0 for e in slices)

    def test_counter_tracks_use_registered_names(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        counter_names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "C"
        }
        assert counter_names, "no counter tracks"
        assert counter_names <= METRIC_NAMES

    def test_slices_are_ordered_per_gpu(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        by_gpu: dict = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                by_gpu.setdefault(e["pid"], []).append(e["ts"])
        for starts in by_gpu.values():
            assert starts == sorted(starts)

    def test_write_chrome_trace_roundtrip(self, observed_run, tmp_path):
        result, cfg, obs = observed_run
        path = tmp_path / "t.trace.json"
        doc = build_chrome_trace(result, cfg, obs)
        assert write_trace(path, doc) == path
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))


class TestMetricsJson:
    def test_accepts_observability(self, observed_run, tmp_path):
        _result, _cfg, obs = observed_run
        path = tmp_path / "m.json"
        write_metrics_json(path, obs, extra={"workload": "Lulesh"})
        doc = json.loads(path.read_text())
        assert doc["workload"] == "Lulesh"
        assert "sim.accesses" in doc["metrics"]
        assert len(doc["kernel_snapshots"]) \
            == len(obs.registry.kernel_snapshots)

    def test_unobserved_run_writes_its_totals(self, tmp_path):
        obs = Observability()
        obs.registry.get("trace.dropped").inc(3)
        path = tmp_path / "m.json"
        doc = write_metrics_json(path, obs)
        assert doc["metrics"]["trace.dropped"]["values"] == {"": 3}
        assert doc["kernel_snapshots"] == []


def _migration_run():
    cfg = small_config(migration=True, migration_threshold=2)
    # CTA 0 (GPU 0) first-touches page 0; GPU 1's CTAs then walk it.
    trace = make_trace([make_kernel([0] + list(range(1, 9)),
                                    cta_ids=[0] + [1] * 8, n_ctas=4)])
    return cfg, trace, None


def _replication_run():
    plan = ReplicationPlan(policy="read_only",
                           replica_holders={0: [0, 1, 2, 3]})
    trace = make_trace([make_kernel(list(range(8)), n_ctas=4)])
    return small_config(), trace, plan


def _software_coherence_run():
    cfg = tiny_rdc_config(coherence=COHERENCE_SOFTWARE,
                          write_policy=WRITE_BACK)
    return cfg, _lulesh(cfg), None


class TestNothingLost:
    """The Perfetto document carries everything the run observed."""

    @pytest.mark.parametrize("scenario", [
        _migration_run, _replication_run, _software_coherence_run,
    ])
    def test_every_ring_event_is_one_instant(self, scenario):
        cfg, trace, plan = scenario()
        obs = Observability(trace=True)
        result = MultiGpuSystem(cfg, plan, obs=obs).run(trace)
        assert len(obs.tracer), "scenario recorded no events"
        doc = build_chrome_trace(result, cfg, obs)

        def key(name, pid, args):
            return name, pid, json.dumps(args, sort_keys=True)

        retained = Counter(
            key(ev.kind, ev.gpu + 1 if ev.gpu >= 0 else 0, ev.payload)
            for ev in obs.tracer.events()
        )
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert Counter(
            key(e["name"], e["pid"], e["args"]) for e in instants
        ) == retained
        # each instant sits at the start of a kernel slice
        starts = {e["ts"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert all(e["ts"] in starts for e in instants)

    def test_per_kernel_volumes_stay_on_counter_tracks(self, observed_run):
        result, cfg, obs = observed_run
        doc = build_chrome_trace(result, cfg, obs)
        tracks = Counter(
            e["name"] for e in doc["traceEvents"] if e["ph"] == "C"
        )
        expected = Counter(
            name for snap in obs.registry.kernel_snapshots
            for name in snap.counters
        )
        assert tracks == expected
        for prefix in ("rdc.", "coh.invalidate", "imst."):
            assert any(name.startswith(prefix) for name in tracks), prefix


class TestAtomicWrites:
    """A failed write leaves the previous file intact and no tmp."""

    def test_metrics_json_serialisation_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"previous": true}')
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_metrics_json(path, Observability(),
                               extra={"bad": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_trace_serialisation_error(self, observed_run, tmp_path):
        result, cfg, obs = observed_run
        path = tmp_path / "t.trace.json"
        write_trace(path, build_chrome_trace(result, cfg, obs))
        before = path.read_bytes()
        doc = build_chrome_trace(result, cfg, obs)
        doc["otherData"]["bad"] = object()
        with pytest.raises(TypeError):
            write_trace(path, doc)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
