"""The multi-GPU NUMA system model.

This module wires every substrate together — per-GPU cache hierarchies,
DRAM, the page table and placement/replication/migration runtime, the
interconnect, and (when enabled) the CARVE controllers with their
coherence protocol — and implements the per-access semantics:

read:  L1 -> L2 -> {local DRAM | RDC probe -> remote fetch (+RDC fill)}
write: write-through L1 -> {local L2/DRAM | RDC update + home write}
       -> coherence consult at the home node (possible invalidations)

Kernel boundaries apply the GPU software-coherence contract (invalidate
L1s, drop remote lines from LLCs) and, under CARVE-SWC, epoch-invalidate
the RDCs.

The simulator produces *counters* (see :mod:`repro.perf.stats`); timing is
priced separately by :mod:`repro.perf.model`.

Two execution engines implement the identical per-access semantics:

* ``vectorized`` (default) — the production hot path.  Per kernel it
  precomputes NumPy arrays of derived per-access quantities (page ids,
  cache set indices, DRAM bank/row coordinates), resolves page homes at
  the access site through a per-GPU memo, and drives a tight loop per
  scheduled chunk with every invariant hoisted into per-GPU context
  tuples, caches/DRAM operated on directly (L1 sets are lists of
  lines, L2 sets are insertion-ordered dicts of ``DIRTY``/``REMOTE``
  flag ints, both LRU first), and counters tallied in locals that
  persist across chunks and flush once per kernel.
* ``reference`` — the straightforward per-access loop, kept as the
  executable specification.  The equivalence test suite asserts the two
  engines produce bit-identical :class:`~repro.perf.stats.RunResult`
  counters across the workload suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import (
    COHERENCE_SOFTWARE,
    LINE_BYTES,
    LINK_HEADER_BYTES,
    INVALIDATE_MSG_BYTES,
    WRITE_BACK,
    SystemConfig,
)
from repro.core.carve import CarveController
from repro.core.coherence import make_protocol
from repro.core.rdc import DIRTY_MAP_REGION_LINES
from repro.gpu.cta import KernelTrace, WorkloadTrace
from repro.gpu.scheduler import schedule_kernel
from repro.memory.address import AddressMap
from repro.memory.cache import DIRTY, REMOTE, SetAssociativeCache, TagCache
from repro.memory.dram import DramModel
from repro.memory.tlb import TlbHierarchy
from repro.numa.interconnect import FaultSchedule, Interconnect
from repro.numa.migration import SHOOTDOWN_LATENCY_NS, MigrationEngine
from repro.numa.pagetable import PageTable
from repro.numa.replication import ReplicationPlan
from repro.perf.stats import GpuKernelStats, KernelStats, RunResult


class GpuNode:
    """One GPU: aggregate L1, LLC slice, local DRAM, TLBs, optional RDC."""

    def __init__(self, gpu_id: int, config: SystemConfig, amap: AddressMap) -> None:
        self.gpu_id = gpu_id
        self.l1 = TagCache(
            config.l1_lines, config.gpu.l1_ways, name=f"gpu{gpu_id}.l1"
        )
        self.l2 = SetAssociativeCache(
            config.l2_lines, config.gpu.l2_ways, name=f"gpu{gpu_id}.l2"
        )
        self.dram = DramModel(config.memory, amap)
        self.tlb = TlbHierarchy() if config.model_tlb else None
        self.carve: Optional[CarveController] = None
        if config.has_rdc:
            assert config.rdc is not None
            self.carve = CarveController(gpu_id, config.rdc_lines, config.rdc)


#: Execution-engine names (see the module docstring).
ENGINE_VECTORIZED = "vectorized"
ENGINE_REFERENCE = "reference"


@dataclass
class _KernelPrecompute:
    """Per-access quantities derived once per kernel (or chunk) in bulk.

    The per-access members are plain Python lists (``ndarray.tolist()``
    output) so the inner loop pays C-speed list indexing instead of
    NumPy scalar boxing.  Cache geometry is identical across GPUs and
    the DRAM bank/row mapping depends only on the line number, so one
    precompute serves every chunk of a kernel regardless of which GPU
    runs it.  ``max_line`` (-1 for no accesses) bounds the RDC sets the
    kernel can reach.
    """

    __slots__ = ("lines", "writes", "pages", "l1_idx", "l2_idx", "banks",
                 "rows", "max_line")

    lines: list
    writes: list
    pages: list
    l1_idx: list
    l2_idx: list
    banks: list
    rows: list
    max_line: int


class MultiGpuSystem:
    """A configured NUMA multi-GPU executing workload traces."""

    def __init__(
        self,
        config: SystemConfig,
        replication_plan: Optional[ReplicationPlan] = None,
        label: Optional[str] = None,
        engine: str = ENGINE_VECTORIZED,
        obs=None,
    ) -> None:
        config.validate()
        if engine not in (ENGINE_VECTORIZED, ENGINE_REFERENCE):
            raise ValueError(f"unknown execution engine {engine!r}")
        self.engine = engine
        #: Optional :class:`repro.obs.Observability`.  Duck-typed (no
        #: import of repro.obs here) and consulted only on rare paths —
        #: kernel boundaries, migrations, replica installs — so an
        #: observed run stays bit-identical to an unobserved one.
        self.obs = obs
        self.config = config
        self.label = label or _default_label(config)
        self.amap = AddressMap(
            lines_per_page=config.lines_per_page,
            n_channels=config.memory.n_channels,
            row_bytes=max(LINE_BYTES, config.memory.row_bytes),
        )
        self.nodes = [GpuNode(g, config, self.amap) for g in range(config.n_gpus)]
        self.pagetable = PageTable(config.n_gpus, config.placement)
        faults = (
            FaultSchedule(config.n_gpus, config.link_faults)
            if config.link_faults is not None and config.link_faults.active
            else None
        )
        self.interconnect = Interconnect(config.n_gpus, config.link, faults)
        #: Index of the next kernel to execute (fault-epoch clock; counts
        #: every kernel including warmup).
        self._kernel_index = 0
        if config.has_rdc:
            assert config.rdc is not None
            self.protocol = make_protocol(
                config.rdc.coherence, config.n_gpus, config.rdc
            )
        else:
            # Baseline NUMA-GPU relies on GPU software coherence.
            self.protocol = make_protocol(COHERENCE_SOFTWARE, config.n_gpus)
        self.migration = (
            MigrationEngine(self.pagetable, config.migration_threshold)
            if config.migration
            else None
        )
        self._replica_holders: dict[int, list[int]] = (
            dict(replication_plan.replica_holders) if replication_plan else {}
        )
        #: Distinct remote pages each GPU has fetched (Fig. 5 measurement).
        self._remote_pages: list[set[int]] = [set() for _ in range(config.n_gpus)]
        self._stream = 0

    # ------------------------------------------------------------------
    # Trace execution
    # ------------------------------------------------------------------

    def run(self, trace: WorkloadTrace) -> RunResult:
        """Execute a whole workload; returns the accumulated counters."""
        result = RunResult(
            workload=trace.name, config_label=self.label, n_gpus=self.config.n_gpus
        )
        for kernel in trace.kernels:
            result.kernels.append(self.run_kernel(kernel))
        result.pages_mapped = [
            self.pagetable.pages_homed(g) for g in range(self.config.n_gpus)
        ]
        result.pages_replicated = [
            self.pagetable.replicas_held(g) for g in range(self.config.n_gpus)
        ]
        result.remote_pages_touched = [len(s) for s in self._remote_pages]
        if self.obs is not None:
            self.obs.end_run(result, self)
        return result

    def run_kernel(self, kernel: KernelTrace) -> KernelStats:
        """Execute one kernel launch, then apply the kernel boundary."""
        cfg = self.config
        ks = KernelStats(
            kernel_id=kernel.kernel_id,
            n_gpus=cfg.n_gpus,
            instr_per_access=kernel.instr_per_access,
            concurrency_per_sm=kernel.concurrency_per_sm,
            warmup=kernel.warmup,
        )
        self._stream = kernel.stream
        if self.obs is not None:
            self.obs.begin_kernel(self._kernel_index, kernel.kernel_id)
        self.interconnect.begin_kernel(self._kernel_index)
        self._kernel_index += 1
        dram_before = [
            (n.dram.stats.reads, n.dram.stats.writes,
             n.dram.stats.row_hits, n.dram.stats.row_misses)
            for n in self.nodes
        ]
        chunks = schedule_kernel(kernel, cfg)
        if self.engine == ENGINE_REFERENCE:
            for gpu, lines, is_write in chunks:
                self._process_chunk_reference(gpu, lines, is_write, ks)
        elif chunks:
            # One bulk precompute for the whole kernel, amortising the
            # NumPy fixed costs across every chunk.
            pre = self._precompute(
                np.concatenate([c[1] for c in chunks]),
                np.concatenate([c[2] for c in chunks]),
            )
            spans = []
            offset = 0
            for gpu, lines, _ in chunks:
                n = len(lines)
                spans.append((gpu, offset, offset + n))
                offset += n
            self._run_kernel_vectorized(ks, pre, spans)
        for st in ks.gpus:
            st.instructions = st.accesses * kernel.instr_per_access
        # The kernel boundary belongs to the kernel that just ended: its
        # write-back flush traffic (link bytes, home DRAM writes) must be
        # captured before the per-kernel snapshots below, not leak into
        # the next kernel — or vanish entirely after the last one.
        self.kernel_boundary(ks, stream=kernel.stream)
        self._capture_dram_deltas(ks, dram_before)
        if self.interconnect.faults is not None:
            ks.link_bytes, ks.link_scale = (
                self.interconnect.snapshot_faulted_and_reset()
            )
        else:
            ks.link_bytes = self.interconnect.snapshot_and_reset()
        if self.obs is not None:
            # After the boundary + snapshots: ks is complete, including
            # flush traffic and the (possibly faulted) link matrix.
            self.obs.end_kernel(ks, self)
        return ks

    def kernel_boundary(self, ks: Optional[KernelStats] = None, stream: int = 0) -> None:
        """Apply end-of-kernel software-coherence actions."""
        for node in self.nodes:
            node.l1.invalidate_all()
            node.l2.invalidate_remote()
            if node.carve is not None and self.protocol.flush_rdc_at_kernel_boundary:
                dirty_lines = (
                    node.carve.rdc.dirty_lines()
                    if node.carve.defers_home_writes
                    else []
                )
                flushed = node.carve.kernel_boundary(stream)
                if self.obs is not None:
                    self.obs.on_epoch_flush(node.gpu_id, flushed)
                # A write-back RDC must push its dirty lines home.
                for line in dirty_lines:
                    home = self.pagetable.peek_home(line // self.amap.lines_per_page)
                    if home < 0 or home == node.gpu_id:
                        continue
                    self.interconnect.send(
                        node.gpu_id, home, LINK_HEADER_BYTES + LINE_BYTES
                    )
                    self.nodes[home].dram.access(line, True)
                    if ks is not None:
                        ks.gpus[node.gpu_id].remote_writes += 1

    # ------------------------------------------------------------------
    # Per-access semantics
    # ------------------------------------------------------------------

    def access(self, gpu: int, line: int, is_write: bool) -> KernelStats:
        """Single-access entry point (tests and interactive use)."""
        ks = KernelStats(kernel_id=-1, n_gpus=self.config.n_gpus,
                         instr_per_access=1.0, concurrency_per_sm=32.0)
        dram_before = [
            (n.dram.stats.reads, n.dram.stats.writes,
             n.dram.stats.row_hits, n.dram.stats.row_misses)
            for n in self.nodes
        ]
        self._process_chunk(
            gpu,
            np.asarray([line], dtype=np.int64),
            np.asarray([is_write], dtype=bool),
            ks,
        )
        self._capture_dram_deltas(ks, dram_before)
        if self.interconnect.faults is not None:
            ks.link_bytes, ks.link_scale = (
                self.interconnect.snapshot_faulted_and_reset()
            )
        else:
            ks.link_bytes = self.interconnect.snapshot_and_reset()
        return ks

    def _capture_dram_deltas(self, ks: KernelStats, before) -> None:
        for g, st in enumerate(ks.gpus):
            r0, w0, h0, m0 = before[g]
            d = self.nodes[g].dram.stats
            st.dram_reads = d.reads - r0
            st.dram_writes = d.writes - w0
            st.dram_row_hits = d.row_hits - h0
            st.dram_row_misses = d.row_misses - m0

    def _on_first_touch(self, page: int, home: int) -> None:
        """Install planned replicas once the page's home is known."""
        holders = self._replica_holders.get(page)
        if holders:
            installed = [g for g in holders if g != home]
            for g in installed:
                self.pagetable.add_replica(page, g)
            if installed and self.obs is not None:
                self.obs.on_replication(page, installed)

    def _precompute(self, lines: np.ndarray, is_write) -> _KernelPrecompute:
        """Derive every per-access quantity that is pure line arithmetic."""
        cfg = self.config
        amap = self.amap
        n_channels = amap.n_channels
        in_channel = lines // n_channels
        channels = lines % n_channels
        bpc = cfg.memory.banks_per_channel
        l1_sets = self.nodes[0].l1.n_sets
        l2_sets = self.nodes[0].l2.n_sets
        return _KernelPrecompute(
            lines=lines.tolist(),
            writes=np.asarray(is_write, dtype=bool).tolist(),
            pages=(lines // amap.lines_per_page).tolist(),
            l1_idx=(lines % l1_sets).tolist(),
            l2_idx=(lines % l2_sets).tolist(),
            banks=(channels * bpc + in_channel % bpc).tolist(),
            rows=(in_channel // amap.lines_per_row).tolist(),
            max_line=int(lines.max()) if len(lines) else -1,
        )

    def _process_chunk(self, gpu: int, lines, is_write, ks: KernelStats) -> None:
        """Execute one scheduled chunk of accesses (engine dispatch)."""
        if self.engine == ENGINE_REFERENCE:
            self._process_chunk_reference(gpu, lines, is_write, ks)
            return
        pre = self._precompute(np.asarray(lines, dtype=np.int64), is_write)
        self._run_kernel_vectorized(ks, pre, [(gpu, 0, len(pre.lines))])

    def _run_kernel_vectorized(
        self, ks: KernelStats, pre: _KernelPrecompute,
        spans: list[tuple[int, int, int]],
    ) -> None:
        """Vectorized engine: one whole kernel of interleaved chunk spans.

        Counter-for-counter identical to :meth:`_process_chunk_reference`
        (asserted by tests/test_hotpath_equivalence.py).  *spans* lists
        ``(gpu, start, stop)`` half-open ranges covering *pre* contiguously
        in global issue order — the scheduler's chunked round-robin
        interleaving.  Structure: per-GPU invariants hoisted into context
        tuples built once per kernel, then a tight loop per span over the
        partition {read, write} x {local, remote} with all per-access stat
        bumps batched into locals that persist across spans and flush once
        per kernel.

        Pages are resolved at the access site, only where the outcome
        needs the home (writes, and reads that miss L1 and L2), through a
        per-GPU ``page -> (home, is_local)`` memo.  That is exact: a line
        can sit in L1 or L2 only after its page was resolved, so the first
        access to an unmapped page always reaches resolution, and
        first-touch mapping and replica installs happen in issue order as
        in the reference engine.  A migration evicts the moved page from
        every GPU's memo.
        """
        if not spans:
            return
        cfg = self.config
        pt = self.pagetable
        protocol = self.protocol
        send = self.interconnect.send
        nodes = self.nodes
        ks_gpus = ks.gpus
        stream = self._stream
        migration = self.migration
        l2_lat = cfg.gpu.l2_hit_latency_ns
        link_lat = self.interconnect.config.latency_ns

        # Kernel-level precompute, indexed absolutely.
        lines_c = pre.lines
        writes_c = pre.writes
        pages_c = pre.pages
        l1i_c = pre.l1_idx
        l2i_c = pre.l2_idx
        banks_c = pre.banks
        rows_c = pre.rows

        # Hoisted structure aliases (each owner documents the contract).
        # Cache geometry and DRAM timing are uniform across nodes.
        l1_ways = nodes[0].l1.ways
        l2_ways = nodes[0].l2.ways
        hit_lat = cfg.memory.row_hit_latency_ns
        miss_lat = cfg.memory.row_miss_latency_ns
        may_invalidate = protocol.may_invalidate
        tracks_reads = protocol.tracks_remote_reads
        invalidation_targets = protocol.invalidation_targets
        note_remote_read = protocol.note_remote_read
        hdr = LINK_HEADER_BYTES
        hdr_line = LINK_HEADER_BYTES + LINE_BYTES
        n_gpus = cfg.n_gpus
        # Migration inline fast path: count remote accesses against the
        # live table; only a counter reaching the threshold pays a call.
        if migration is not None:
            mig_counts = migration.counts
            mig_threshold = migration.threshold
        else:
            mig_counts = None
            mig_threshold = 0
        l2_sets_by_node = [n.l2.sets for n in nodes]
        open_rows_by_node = [n.dram.open_rows for n in nodes]
        ic = self.interconnect.rows
        link2 = 2 * link_lat
        link2_l2 = link2 + l2_lat

        # Per-GPU execution contexts and counter accumulators, built once
        # per kernel (spans revisit each GPU every interleave round, so
        # re-deriving these per span would dominate small-chunk runs).
        # The RDC is inlined (direct-mapped tag/epoch arrays) only
        # without a hit predictor — predictor configs keep the
        # CarveController method path.
        ctx = []
        acc = []
        for g in range(n_gpus):
            node = nodes[g]
            carve = node.carve
            c_read = carve.remote_read if carve is not None else None
            c_write = carve.remote_write if carve is not None else None
            defers = carve.defers_home_writes if carve is not None else False
            rdc_tags = rdc_eps = rdc_dirty = dirty_regions = None
            rdc_nsets = cur_epoch = 0
            rdc_wb = False
            if carve is not None and carve.predictor is None:
                rdc = carve.rdc
                # Allocate every set this kernel's lines can reach
                # before aliasing the lists.
                rdc.reserve(pre.max_line + 1)
                rdc_tags = rdc.tags
                rdc_eps = rdc.line_epochs
                rdc_dirty = rdc.dirty_flags
                dirty_regions = rdc.dirty_regions
                rdc_nsets = rdc.n_sets
                # Epochs only advance at kernel boundaries, never
                # mid-kernel, so the snapshot is exact for this kernel.
                cur_epoch = rdc.epochs.current(stream)
                rdc_wb = rdc.write_policy == WRITE_BACK
            ctx.append((
                ks_gpus[g], node.l1.sets, node.l2.sets,
                node.dram.open_rows, node.dram.access,
                self._remote_pages[g], node.tlb,
                c_read, c_write, defers, rdc_tags, rdc_eps, rdc_dirty,
                dirty_regions, rdc_nsets, cur_epoch, rdc_wb,
            ))
            # Accumulator layout (kept in lockstep with the unpack below):
            # [accesses, writes, l1_hits, l2_hits, local_reads,
            #  local_writes, remote_reads, remote_writes, rdc_hits,
            #  rdc_misses, rdc_inserts, rdc_bypasses, invalidates_sent,
            #  latency_ns, c1_hits, c1_misses, c2_hits, c2_misses,
            #  dram_reads, dram_writes, dram_row_hits, dram_row_misses,
            #  dram_latency, rdc_probes, rdc_stat_hits, rdc_stale,
            #  rdc_stat_inserts, rdc_stat_writes]
            acc.append([0] * 13 + [0.0] + [0] * 8 + [0.0] + [0] * 5)

        # Home-node DRAM deltas, indexed by node: peer landings from any
        # requester accumulate here; requesters' own deltas merge in at
        # the flush.
        p_reads = [0] * n_gpus
        p_writes = [0] * n_gpus
        p_rh = [0] * n_gpus
        p_rm = [0] * n_gpus
        p_lat = [0.0] * n_gpus
        m_obs = 0

        memos = [{} for _ in range(n_gpus)]
        mapped_get = pt._home.get  # hot-path alias; PageTable owns it
        home_of = pt.home_of
        replicas = pt._replicas
        on_first_touch = self._on_first_touch

        for gpu, cs, ce in spans:
            (st, l1_sets, l2_sets, open_rows, dram_access, remote_pages,
             tlb, carve_read, carve_write, defers, rdc_tags, rdc_eps,
             rdc_dirty, dirty_regions, rdc_nsets, cur_epoch,
             rdc_wb) = ctx[gpu]
            (acc0, wr, l1h, l2h, lr, lw, rr, rw, rdch, rdcm, rdci,
             rdcb, inv_sent, lat, c1h, c1m, c2h, c2m, d_reads,
             d_writes, d_rh, d_rm, d_lat, r_probes, r_hits, r_stale,
             r_ins, r_wr) = acc[gpu]
            memo = memos[gpu]
            memo_get = memo.get
            for j in range(cs, ce):
                line = lines_c[j]
                if tlb is not None:
                    tlb.translate(pages_c[j])
                s1 = l1_sets[l1i_c[j]]

                if writes_c[j]:
                    # ---- write path (write-through L1, no allocate) ----
                    wr += 1
                    page = pages_c[j]
                    ent = memo_get(page)
                    if ent is not None:
                        home = ent[0]
                        is_local = ent[1]
                    else:
                        home = mapped_get(page)
                        if home is None:
                            home = home_of(page, gpu)
                            on_first_touch(page, home)
                        if home == gpu:
                            is_local = True
                        elif replicas:
                            holders = replicas.get(page)
                            is_local = holders is not None and gpu in holders
                        else:
                            is_local = False
                        memo[page] = (home, is_local)
                    if line in s1:
                        c1h += 1
                        l1h += 1
                        s1.remove(line)
                        s1.append(line)
                    else:
                        c1m += 1
                    if is_local:
                        lw += 1
                        s2 = l2_sets[l2i_c[j]]
                        state = s2.pop(line, None)
                        if state is not None:
                            s2[line] = state | DIRTY
                        else:
                            # Local DRAM write (inlined dram.access).
                            b = banks_c[j]
                            r = rows_c[j]
                            if open_rows[b] == r:
                                d_rh += 1
                                d_lat += hit_lat
                            else:
                                open_rows[b] = r
                                d_rm += 1
                                d_lat += miss_lat
                            d_writes += 1
                    else:
                        rw += 1
                        remote_pages.add(page)
                        deferred = False
                        if rdc_tags is not None:
                            # Inlined rdc.write: refresh a resident copy.
                            sr = line % rdc_nsets
                            if (
                                rdc_tags[sr] == line
                                and rdc_eps[sr] == cur_epoch
                            ):
                                r_wr += 1
                                if rdc_wb:
                                    rdc_dirty[sr] = True
                                    dirty_regions.add(
                                        line // DIRTY_MAP_REGION_LINES
                                    )
                                updated = True
                            else:
                                updated = False
                        else:
                            updated = carve_write is not None and (
                                carve_write(line, stream)
                            )
                        if updated:
                            # RDC copy refresh: a local DRAM write.
                            b = banks_c[j]
                            r = rows_c[j]
                            if open_rows[b] == r:
                                d_rh += 1
                                d_lat += hit_lat
                            else:
                                open_rows[b] = r
                                d_rm += 1
                                d_lat += miss_lat
                            d_writes += 1
                            deferred = defers
                        if not deferred:
                            ic[gpu][home] += hdr_line
                            lat += link_lat
                            # Inlined home-store landing: the home LLC
                            # absorbs it if the line is resident, else
                            # its DRAM does (bank/row math is identical
                            # across nodes).
                            s2h = l2_sets_by_node[home][l2i_c[j]]
                            hstate = s2h.pop(line, None)
                            if hstate is not None:
                                s2h[line] = hstate | DIRTY
                            else:
                                orh = open_rows_by_node[home]
                                b = banks_c[j]
                                r = rows_c[j]
                                if orh[b] == r:
                                    p_rh[home] += 1
                                    p_lat[home] += hit_lat
                                else:
                                    orh[b] = r
                                    p_rm[home] += 1
                                    p_lat[home] += miss_lat
                                p_writes[home] += 1
                        if mig_counts is not None:
                            # Inlined migration.note_remote_access.
                            m_obs += 1
                            key = (page, gpu)
                            cnt = mig_counts.get(key, 0) + 1
                            mig_counts[key] = cnt
                            if cnt >= mig_threshold and (
                                migration.attempt_migration(page, gpu)
                            ):
                                self._do_migration(page, gpu, home, st)
                                # The page's home (and locality for every
                                # GPU) changed: evict it from all memos.
                                for mm in memos:
                                    mm.pop(page, None)
                    # Coherence: the home controller sees the store.
                    if may_invalidate:
                        targets = invalidation_targets(home, gpu, line)
                        if targets:
                            for p in targets:
                                if p != home:
                                    # Invalidates to the home's own
                                    # caches stay on-chip; only remote
                                    # targets cost a message.
                                    send(home, p, INVALIDATE_MSG_BYTES)
                                pn = nodes[p]
                                pn.l1.invalidate_line(line)
                                pn.l2.invalidate_line(line)
                                if pn.carve is not None:
                                    pn.carve.invalidate(line)
                                ks_gpus[p].invalidates_received += 1
                            inv_sent += len(targets)
                            protocol.note_invalidated(home, line)
                    continue

                # ---- read path ----
                if line in s1:
                    c1h += 1
                    l1h += 1
                    s1.remove(line)
                    s1.append(line)
                    continue
                c1m += 1
                s2 = l2_sets[l2i_c[j]]
                if line in s2:
                    c2h += 1
                    l2h += 1
                    s2[line] = s2.pop(line)
                    lat += l2_lat
                    if len(s1) >= l1_ways:
                        del s1[0]
                    s1.append(line)
                    continue
                c2m += 1
                page = pages_c[j]
                ent = memo_get(page)
                if ent is not None:
                    home = ent[0]
                    is_local = ent[1]
                else:
                    home = mapped_get(page)
                    if home is None:
                        home = home_of(page, gpu)
                        on_first_touch(page, home)
                    if home == gpu:
                        is_local = True
                    elif replicas:
                        holders = replicas.get(page)
                        is_local = holders is not None and gpu in holders
                    else:
                        is_local = False
                    memo[page] = (home, is_local)
                if is_local:
                    lr += 1
                    # Local DRAM read (inlined dram.access).
                    b = banks_c[j]
                    r = rows_c[j]
                    if open_rows[b] == r:
                        d_rh += 1
                        d_lat += hit_lat
                        lat += hit_lat
                    else:
                        open_rows[b] = r
                        d_rm += 1
                        d_lat += miss_lat
                        lat += miss_lat
                    d_reads += 1
                    # L2 fill; a displaced dirty (always local) line
                    # writes back to this GPU's DRAM.
                    if len(s2) >= l2_ways:
                        vline = next(iter(s2))
                        if s2.pop(vline) & DIRTY:
                            dram_access(vline, True)
                    s2[line] = 0
                    if len(s1) >= l1_ways:
                        del s1[0]
                    s1.append(line)
                    continue

                # Remote line, LLC miss.
                lat += l2_lat  # own-LLC miss detection
                remote_pages.add(page)
                serviced_locally = False
                if rdc_tags is not None:
                    # Inlined rdc.probe + (on miss) rdc.insert.
                    sr = line % rdc_nsets
                    r_probes += 1
                    if rdc_tags[sr] == line:
                        if rdc_eps[sr] == cur_epoch:
                            rdc_hit = True
                        else:
                            r_stale += 1
                            rdc_hit = False
                    else:
                        rdc_hit = False
                    # Alloy probe: one local DRAM access (tag+data).
                    b = banks_c[j]
                    r = rows_c[j]
                    if open_rows[b] == r:
                        d_rh += 1
                        d_lat += hit_lat
                        lat += hit_lat
                    else:
                        open_rows[b] = r
                        d_rm += 1
                        d_lat += miss_lat
                        lat += miss_lat
                    d_reads += 1
                    if rdc_hit:
                        r_hits += 1
                        rdch += 1
                        lr += 1
                        serviced_locally = True
                    else:
                        rdcm += 1
                        rdc_tags[sr] = line
                        rdc_eps[sr] = cur_epoch
                        rdc_dirty[sr] = False
                        r_ins += 1
                elif carve_read is not None:
                    outcome = carve_read(line, stream)
                    if outcome.probed:
                        # Alloy probe: one local DRAM access (tag+data).
                        b = banks_c[j]
                        r = rows_c[j]
                        if open_rows[b] == r:
                            d_rh += 1
                            d_lat += hit_lat
                            lat += hit_lat
                        else:
                            open_rows[b] = r
                            d_rm += 1
                            d_lat += miss_lat
                            lat += miss_lat
                        d_reads += 1
                    else:
                        rdcb += 1
                    if outcome.kind == "rdc_hit":
                        rdch += 1
                        lr += 1
                        serviced_locally = True
                    else:
                        rdcm += 1
                if not serviced_locally:
                    rr += 1
                    ic[gpu][home] += hdr
                    # Inlined home fetch: home-LLC presence check, else
                    # home DRAM read (same line -> bank/row mapping).
                    s2h = l2_sets_by_node[home][l2i_c[j]]
                    if line in s2h:
                        lat += link2_l2
                    else:
                        orh = open_rows_by_node[home]
                        b = banks_c[j]
                        r = rows_c[j]
                        if orh[b] == r:
                            p_rh[home] += 1
                            p_lat[home] += hit_lat
                            lat += link2 + hit_lat
                        else:
                            orh[b] = r
                            p_rm[home] += 1
                            p_lat[home] += miss_lat
                            lat += link2 + miss_lat
                        p_reads[home] += 1
                    ic[home][gpu] += hdr_line
                    if tracks_reads:
                        note_remote_read(home, gpu, line)
                    if carve_read is not None:
                        # RDC fill: a local DRAM write off the critical
                        # path.
                        b = banks_c[j]
                        r = rows_c[j]
                        if open_rows[b] == r:
                            d_rh += 1
                            d_lat += hit_lat
                        else:
                            open_rows[b] = r
                            d_rm += 1
                            d_lat += miss_lat
                        d_writes += 1
                        rdci += 1
                    if mig_counts is not None:
                        # Inlined migration.note_remote_access.  The page
                        # may move under us; the fetched copy stays valid
                        # either way.
                        m_obs += 1
                        key = (page, gpu)
                        cnt = mig_counts.get(key, 0) + 1
                        mig_counts[key] = cnt
                        if cnt >= mig_threshold and (
                            migration.attempt_migration(page, gpu)
                        ):
                            self._do_migration(page, gpu, home, st)
                            # Home/locality changed for every GPU: evict
                            # the page from all memos.
                            for mm in memos:
                                mm.pop(page, None)
                # L2 fill (remote) + L1 fill.
                if len(s2) >= l2_ways:
                    vline = next(iter(s2))
                    if s2.pop(vline) & DIRTY:
                        dram_access(vline, True)
                s2[line] = REMOTE
                if len(s1) >= l1_ways:
                    del s1[0]
                s1.append(line)

            # ---- bank the span's batched counters ----
            acc[gpu] = [
                acc0 + (ce - cs), wr, l1h, l2h, lr, lw, rr, rw, rdch,
                rdcm, rdci, rdcb, inv_sent, lat, c1h, c1m, c2h, c2m,
                d_reads, d_writes, d_rh, d_rm, d_lat, r_probes,
                r_hits, r_stale, r_ins, r_wr,
            ]

        # ---- flush the kernel's batched counters ----
        for g in range(n_gpus):
            a = acc[g]
            if not a[0]:
                continue
            node = nodes[g]
            ks_gpus[g].add_counts(
                accesses=a[0], writes=a[1], l1_hits=a[2], l2_hits=a[3],
                local_reads=a[4], local_writes=a[5], remote_reads=a[6],
                remote_writes=a[7], rdc_hits=a[8], rdc_misses=a[9],
                rdc_inserts=a[10], rdc_bypasses=a[11],
                invalidates_sent=a[12], latency_ns=a[13],
            )
            node.l1.add_lookup_counts(a[14], a[15])
            node.l2.add_lookup_counts(a[16], a[17])
            p_reads[g] += a[18]
            p_writes[g] += a[19]
            p_rh[g] += a[20]
            p_rm[g] += a[21]
            p_lat[g] += a[22]
            if a[23] or a[26] or a[27]:
                node.carve.rdc.stats.add_counts(
                    probes=a[23], hits=a[24], stale_epoch_misses=a[25],
                    inserts=a[26], writes=a[27],
                )
        for g in range(n_gpus):
            if p_reads[g] or p_writes[g]:
                nodes[g].dram.add_batch(
                    p_reads[g], p_writes[g], p_rh[g], p_rm[g], p_lat[g]
                )
        if m_obs:
            migration.add_observed(m_obs)

    def _process_chunk_reference(
        self, gpu: int, lines, is_write, ks: KernelStats
    ) -> None:
        """Reference engine: the executable per-access specification."""
        cfg = self.config
        node = self.nodes[gpu]
        st = ks.gpus[gpu]
        pt = self.pagetable
        lpp = self.amap.lines_per_page
        l1, l2 = node.l1, node.l2
        carve = node.carve
        protocol = self.protocol
        send = self.interconnect.send
        nodes = self.nodes
        stream = self._stream
        migration = self.migration
        remote_pages = self._remote_pages[gpu]
        l2_lat = cfg.gpu.l2_hit_latency_ns
        tlb = node.tlb

        mapped = pt._home  # hot-path alias; PageTable owns the dict
        for line, write in zip(lines.tolist(), is_write.tolist()):
            page = line // lpp
            home = mapped.get(page)
            if home is None:
                home = pt.home_of(page, gpu)
                self._on_first_touch(page, home)
            if tlb is not None:
                tlb.translate(page)
            st.accesses += 1
            local = home == gpu or pt.has_replica(page, gpu)

            if write:
                st.writes += 1
                if l1.lookup(line):
                    st.l1_hits += 1
                # Write-through L1: the store always proceeds to the L2
                # (local lines) or toward the home node (remote lines).
                if local:
                    st.local_writes += 1
                    if not l2.mark_dirty(line):
                        node.dram.access(line, True)
                else:
                    st.remote_writes += 1
                    remote_pages.add(page)
                    deferred = False
                    if carve is not None:
                        if carve.remote_write(line, stream):
                            node.dram.access(line, True)  # RDC copy refresh
                            deferred = carve.defers_home_writes
                    if not deferred:
                        send(gpu, home, LINK_HEADER_BYTES + LINE_BYTES)
                        st.latency_ns += self.interconnect.config.latency_ns
                        hnode = nodes[home]
                        if not hnode.l2.mark_dirty(line):
                            hnode.dram.access(line, True)
                    if migration is not None:
                        self._maybe_migrate(page, gpu, home, st)
                # Coherence: the home controller sees the store.
                targets = protocol.invalidation_targets(home, gpu, line)
                if targets:
                    for p in targets:
                        if p != home:
                            # Invalidates to the home's own caches stay
                            # on-chip; only remote targets cost a message.
                            send(home, p, INVALIDATE_MSG_BYTES)
                        pn = nodes[p]
                        pn.l1.invalidate_line(line)
                        pn.l2.invalidate_line(line)
                        if pn.carve is not None:
                            pn.carve.invalidate(line)
                        ks.gpus[p].invalidates_received += 1
                    st.invalidates_sent += len(targets)
                    protocol.note_invalidated(home, line)
                continue

            # ---- read path ----
            if l1.lookup(line):
                st.l1_hits += 1
                continue
            if l2.lookup(line):
                st.l2_hits += 1
                st.latency_ns += l2_lat
                l1.insert(line)
                continue
            if local:
                st.local_reads += 1
                st.latency_ns += node.dram.access(line, False)
                self._fill_l2(node, st, line, remote=False)
                l1.insert(line)
                continue

            # Remote line, LLC miss.
            st.latency_ns += l2_lat  # own-LLC miss detection
            remote_pages.add(page)
            serviced_locally = False
            if carve is not None:
                outcome = carve.remote_read(line, stream)
                if outcome.probed:
                    # Alloy probe: one local DRAM access reads tag+data.
                    st.latency_ns += node.dram.access(line, False)
                else:
                    st.rdc_bypasses += 1
                if outcome.kind == "rdc_hit":
                    st.rdc_hits += 1
                    st.local_reads += 1
                    serviced_locally = True
                else:
                    st.rdc_misses += 1
            if not serviced_locally:
                st.remote_reads += 1
                link_lat = self.interconnect.config.latency_ns
                send(gpu, home, LINK_HEADER_BYTES)
                hnode = nodes[home]
                if hnode.l2.contains(line):
                    st.latency_ns += 2 * link_lat + l2_lat
                else:
                    st.latency_ns += 2 * link_lat + hnode.dram.access(line, False)
                send(home, gpu, LINK_HEADER_BYTES + LINE_BYTES)
                protocol.note_remote_read(home, gpu, line)
                if carve is not None:
                    # RDC fill: a local DRAM write off the critical path.
                    node.dram.access(line, True)
                    st.rdc_inserts += 1
                if migration is not None:
                    # The page may move under us; the fetched copy stays
                    # valid either way.
                    self._maybe_migrate(page, gpu, home, st)
            self._fill_l2(node, st, line, remote=True)
            l1.insert(line)

    def _fill_l2(self, node: GpuNode, st: GpuKernelStats, line: int,
                 remote: bool) -> None:
        victim = node.l2.insert(line, remote=remote)
        if victim is not None and victim.dirty:
            # Dirty L2 lines are always locally homed (writes to remote
            # lines write through), so the writeback hits this GPU's DRAM.
            node.dram.access(victim.line, True)

    def _maybe_migrate(self, page: int, gpu: int, home: int,
                       st: GpuKernelStats) -> bool:
        """Migrate *page* to *gpu* if the engine's threshold trips.

        Returns True when the page actually moved (the vectorized engine
        must then recompute its precomputed homes for the rest of the
        chunk).
        """
        assert self.migration is not None
        if home == gpu or not self.migration.note_remote_access(page, gpu):
            return False
        self._do_migration(page, gpu, home, st)
        return True

    def _do_migration(self, page: int, gpu: int, home: int,
                      st: GpuKernelStats) -> None:
        """Execute a decided migration: transfer, shootdown, accounting."""
        lpp = self.amap.lines_per_page
        # Transfer the whole page over the old-home -> gpu link.
        self.interconnect.send(
            home, gpu, lpp * LINE_BYTES + LINK_HEADER_BYTES
        )
        first = page * lpp
        hnode, gnode = self.nodes[home], self.nodes[gpu]
        hnode.dram.access_run(first, lpp, False)
        gnode.dram.access_run(first, lpp, True)
        # TLB shootdown: every GPU drops the stale translation; cached
        # copies of the page's lines are invalidated everywhere else.
        # The requester keeps its L1/L2 copies (the data is unchanged and
        # now local) but must drop its *RDC* entries: the page is no
        # longer remote, so a stale remote-cache copy would shadow the
        # now-authoritative local DRAM and dodge future invalidations.
        for n in self.nodes:
            if n.tlb is not None:
                n.tlb.shootdown(page)
            if n.gpu_id != gpu:
                for ln in range(first, first + lpp):
                    n.l1.invalidate_line(ln)
                    n.l2.invalidate_line(ln)
                    if n.carve is not None:
                        n.carve.invalidate(ln)
            elif n.carve is not None:
                for ln in range(first, first + lpp):
                    n.carve.invalidate(ln)
        st.latency_ns += SHOOTDOWN_LATENCY_NS
        st.migrations += 1
        if self.obs is not None:
            self.obs.on_migration(page, gpu, home)


def _default_label(config: SystemConfig) -> str:
    if config.n_gpus == 1:
        return "single-gpu"
    if config.has_rdc:
        assert config.rdc is not None
        gb = config.rdc.size_bytes / 2**30
        return f"carve-{config.rdc.coherence}-{gb:g}GB"
    parts = ["numa-gpu"]
    if config.replication != "none":
        parts.append(f"repl-{config.replication}")
    if config.migration:
        parts.append("mig")
    return "+".join(parts)


__all__ = [
    "ENGINE_REFERENCE",
    "ENGINE_VECTORIZED",
    "GpuNode",
    "MultiGpuSystem",
]
