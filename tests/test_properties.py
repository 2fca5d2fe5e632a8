"""Hypothesis property tests over the full system model.

These drive randomly generated access streams through differently
configured systems and assert conservation laws and invariants the
simulator must uphold regardless of workload.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    COHERENCE_HARDWARE,
    COHERENCE_NONE,
    COHERENCE_SOFTWARE,
)
from repro.memory.cache import DIRTY
from repro.numa.system import MultiGpuSystem
from tests.conftest import make_kernel, make_trace, small_config, tiny_rdc_config

# A compact access-stream strategy: (cta, line, is_write) triples.
ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=255),
        st.booleans(),
    ),
    min_size=1,
    max_size=300,
)


def run_stream(cfg, accesses, n_kernels=2):
    ctas = [a[0] for a in accesses]
    lines = [a[1] for a in accesses]
    writes = [a[2] for a in accesses]
    kernels = [
        make_kernel(lines, writes=writes, cta_ids=ctas, n_ctas=4, kernel_id=k)
        for k in range(n_kernels)
    ]
    system = MultiGpuSystem(cfg)
    return system, system.run(make_trace(kernels))


class TestConservationLaws:
    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_every_access_is_accounted(self, accesses):
        _, result = run_stream(small_config(), accesses)
        total = result.total(include_warmup=True)
        assert total.accesses == 2 * len(accesses)

    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_demand_split_partitions_memory_accesses(self, accesses):
        """local + remote = accesses that reached the memory system."""
        _, result = run_stream(small_config(), accesses)
        t = result.total(include_warmup=True)
        served_by_memory = (
            t.local_reads + t.local_writes + t.remote_reads + t.remote_writes
        )
        cache_hits = t.l1_hits + t.l2_hits
        # Writes always reach memory accounting (write-through L1), reads
        # are absorbed by cache hits.
        assert served_by_memory + cache_hits >= t.accesses
        assert served_by_memory <= t.accesses

    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_remote_fraction_bounded(self, accesses):
        _, result = run_stream(small_config(), accesses)
        assert 0.0 <= result.remote_fraction <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_link_traffic_iff_remote_accesses(self, accesses):
        _, result = run_stream(small_config(), accesses)
        t = result.total(include_warmup=True)
        link_total = sum(
            sum(sum(row) for row in k.link_bytes) for k in result.kernels
        )
        if t.remote_reads + t.remote_writes == 0:
            assert link_total == 0
        else:
            assert link_total > 0

    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_pages_mapped_equals_touched_pages(self, accesses):
        cfg = small_config()
        system, result = run_stream(cfg, accesses)
        pages = {a[1] // cfg.lines_per_page for a in accesses}
        assert sum(result.pages_mapped) == len(pages)


class TestRdcInvariants:
    @settings(max_examples=25, deadline=None)
    @given(ACCESSES)
    def test_rdc_only_holds_remote_lines(self, accesses):
        cfg = tiny_rdc_config(coherence=COHERENCE_NONE)
        system, _ = run_stream(cfg, accesses)
        for node in system.nodes:
            rdc = node.carve.rdc
            for line in rdc.tags:  # the allocated sets
                if line < 0:
                    continue
                page = line // system.amap.lines_per_page
                assert system.pagetable.peek_home(page) != node.gpu_id

    @settings(max_examples=20, deadline=None)
    @given(ACCESSES)
    def test_write_through_rdc_never_dirty(self, accesses):
        cfg = tiny_rdc_config(coherence=COHERENCE_HARDWARE)
        system, _ = run_stream(cfg, accesses)
        for node in system.nodes:
            assert not any(node.carve.rdc._dirty)

    @settings(max_examples=20, deadline=None)
    @given(ACCESSES)
    def test_swc_rdc_empty_after_final_boundary(self, accesses):
        cfg = tiny_rdc_config(coherence=COHERENCE_SOFTWARE)
        system, _ = run_stream(cfg, accesses)
        for node in system.nodes:
            assert node.carve.rdc.occupancy() == 0.0


class TestCacheInvariants:
    @settings(max_examples=20, deadline=None)
    @given(ACCESSES)
    def test_l2_dirty_lines_are_locally_homed(self, accesses):
        cfg = small_config()
        ctas = [a[0] for a in accesses]
        lines = [a[1] for a in accesses]
        writes = [a[2] for a in accesses]
        system = MultiGpuSystem(cfg)
        k = make_kernel(lines, writes=writes, cta_ids=ctas, n_ctas=4)
        # Drive the accesses without the end-of-kernel invalidation so the
        # caches stay populated for inspection.
        for gpu, ls, ws in __import__(
            "repro.gpu.scheduler", fromlist=["schedule_kernel"]
        ).schedule_kernel(k, cfg):
            from repro.perf.stats import KernelStats

            ks = KernelStats(0, cfg.n_gpus, 1.0, 32.0)
            system._process_chunk(gpu, ls, ws, ks)
        for node in system.nodes:
            for s in node.l2._sets:
                for line, state in s.items():
                    if state & DIRTY:
                        page = line // system.amap.lines_per_page
                        assert system.pagetable.peek_home(page) == node.gpu_id

    @settings(max_examples=20, deadline=None)
    @given(ACCESSES)
    def test_deterministic_given_stream(self, accesses):
        cfg = small_config()
        _, r1 = run_stream(cfg, accesses)
        _, r2 = run_stream(cfg, accesses)
        t1, t2 = r1.total(include_warmup=True), r2.total(include_warmup=True)
        assert t1 == t2


class TestTimingProperties:
    @settings(max_examples=20, deadline=None)
    @given(ACCESSES)
    def test_time_is_finite_and_positive(self, accesses):
        from repro.perf.model import PerformanceModel

        cfg = small_config()
        _, result = run_stream(cfg, accesses)
        t = PerformanceModel(cfg).total_time_s(result)
        assert np.isfinite(t) and t > 0
