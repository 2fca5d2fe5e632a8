"""Observability vs the simulator: fidelity, alignment, and hooks.

The two load-bearing contracts (see docs/observability.md):

* **Bit-identity** — attaching an :class:`Observability` must not change
  the ``RunResult``, on either execution engine.
* **Alignment** — registry totals must equal the run's own counters,
  remembering that the registry includes warmup kernels
  (``RunResult.total(include_warmup=True)``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    COHERENCE_HARDWARE,
    COHERENCE_SOFTWARE,
    WRITE_BACK,
)
from repro.numa.replication import ReplicationPlan
from repro.numa.system import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    MultiGpuSystem,
)
from repro.obs import Observability
from repro.obs.events import (
    EVENT_EPOCH_FLUSH,
    EVENT_MIGRATION,
    EVENT_REPLICATION,
)
from repro.obs.summary import summarize_result
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from .conftest import make_kernel, make_trace, small_config, tiny_rdc_config


def _small_trace_and_cfg(cfg=None):
    """A short real workload on a small system, warmup included."""
    cfg = cfg or tiny_rdc_config(coherence=COHERENCE_HARDWARE)
    spec = dataclasses.replace(
        get("Lulesh"), n_kernels=3, warmup_kernels=1,
        max_accesses=3000, min_accesses=500,
    )
    return generate_trace(spec, cfg), cfg


def _run(cfg, trace, engine=ENGINE_VECTORIZED, obs=None):
    return MultiGpuSystem(cfg, engine=engine, obs=obs).run(trace)


class TestBitIdentity:
    @pytest.mark.parametrize("engine", [ENGINE_VECTORIZED, ENGINE_REFERENCE])
    def test_observed_run_identical(self, engine):
        trace, cfg = _small_trace_and_cfg()
        bare = _run(cfg, trace, engine)
        observed = _run(cfg, trace, engine, obs=Observability(trace=True))
        assert bare == observed

    def test_baseline_config_identical(self):
        trace, cfg = _small_trace_and_cfg(small_config())
        assert _run(cfg, trace) == _run(cfg, trace, obs=Observability())


class TestAlignment:
    def test_counters_match_run_totals_including_warmup(self):
        trace, cfg = _small_trace_and_cfg()
        obs = Observability()
        result = _run(cfg, trace, obs=obs)
        total = result.total(include_warmup=True)
        r = obs.registry
        assert r.get("sim.accesses").total() == total.accesses
        assert r.get("rdc.hit").total() == total.rdc_hits
        assert r.get("mem.remote.read").total() == total.remote_reads
        assert r.get("coh.invalidate").total() == total.invalidates_sent

    def test_link_bytes_matches_matrices(self):
        trace, cfg = _small_trace_and_cfg()
        obs = Observability()
        result = _run(cfg, trace, obs=obs)
        expected = sum(
            ks.link_bytes[s][d]
            for ks in result.kernels
            for s in range(result.n_gpus)
            for d in range(result.n_gpus)
        )
        assert sum(obs.registry.get("link.bytes").values().values()) \
            == expected

    def test_one_snapshot_per_kernel(self):
        trace, cfg = _small_trace_and_cfg()
        obs = Observability()
        result = _run(cfg, trace, obs=obs)
        snaps = obs.registry.kernel_snapshots
        assert len(snaps) == len(result.kernels)
        per_kernel = [
            sum(s.counters.get("sim.accesses", {}).values()) for s in snaps
        ]
        assert per_kernel == [
            sum(g.accesses for g in ks.gpus) for ks in result.kernels
        ]


class TestHooks:
    def test_migration_counted_and_traced(self):
        cfg = small_config(migration=True, migration_threshold=2)
        lpp = cfg.lines_per_page
        # CTA 0 (GPU 0) touches page 0 first; CTAs on GPU 1 then walk its
        # lines (distinct lines, so caches can't absorb the remote reads).
        lines = [0] + list(range(1, 9))
        cta_ids = [0] + [1] * 8
        trace = make_trace([make_kernel(lines, cta_ids=cta_ids, n_ctas=4,
                                        kernel_id=0)])
        obs = Observability(trace=True)
        result = _run(cfg, trace, obs=obs)
        moved = result.total(include_warmup=True).migrations
        assert moved >= 1
        assert obs.registry.get("mig.page_moves").total() == moved
        kinds = [ev.kind for ev in obs.tracer.events()]
        assert kinds.count(EVENT_MIGRATION) == moved
        assert lpp >= 1  # geometry sanity: lines 0/1 share page 0

    def test_epoch_flush_counted_under_software_coherence(self):
        cfg = tiny_rdc_config(
            coherence=COHERENCE_SOFTWARE, write_policy=WRITE_BACK
        )
        trace, cfg = _small_trace_and_cfg(cfg)
        obs = Observability(trace=True)
        _run(cfg, trace, obs=obs)
        flushed = obs.registry.get("epoch.flush_lines").total()
        flush_events = [
            ev for ev in obs.tracer.events() if ev.kind == EVENT_EPOCH_FLUSH
        ]
        assert flushed == sum(ev.payload["flushed"] for ev in flush_events)

    def test_replication_installs_traced(self):
        cfg = small_config()
        plan = ReplicationPlan(policy="read_only",
                               replica_holders={0: [0, 1, 2, 3]})
        lines = list(range(8))
        trace = make_trace([make_kernel(lines, n_ctas=4, kernel_id=0)])
        obs = Observability(trace=True)
        system = MultiGpuSystem(cfg, plan, obs=obs)
        result = system.run(trace)
        replicated = obs.registry.get("repl.pages").total()
        assert replicated >= 1
        installs = [
            ev for ev in obs.tracer.events() if ev.kind == EVENT_REPLICATION
        ]
        assert sum(len(ev.payload["holders"]) for ev in installs) \
            == replicated
        assert result.total(include_warmup=True).accesses == len(lines)

    def test_end_of_run_gauges(self):
        trace, cfg = _small_trace_and_cfg()
        obs = Observability(trace=True)
        _run(cfg, trace, obs=obs)
        mapped = obs.registry.get("mem.pages_mapped")
        assert sum(mapped.values().values()) > 0
        occ = obs.registry.get("rdc.occupancy")
        assert all(0.0 <= v <= 1.0 for v in occ.values().values())


class TestSummary:
    def test_digest_shape(self):
        trace, cfg = _small_trace_and_cfg()
        result = _run(cfg, trace)
        digest = summarize_result(result)
        assert digest is not None
        total = result.total()
        assert digest["kernels"] == len(result.kernels)
        assert digest["sim.accesses"] == total.accesses
        assert digest["mem.remote.read"] == total.remote_reads
        assert 0.0 <= digest["remote_fraction"] <= 1.0

    def test_non_result_returns_none(self):
        assert summarize_result(None) is None
        assert summarize_result({"not": "a result"}) is None
