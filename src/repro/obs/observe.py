"""The :class:`Observability` facade: one object the simulator talks to.

``MultiGpuSystem`` (and the driver/runner around it) never touch metric
or tracer internals — they hold an optional ``obs`` and call the hook
methods below at *rare-path* moments only:

* ``begin_kernel`` / ``end_kernel`` — once per kernel launch; the end
  hook bulk-copies the kernel's already-computed
  :class:`~repro.perf.stats.KernelStats` into the registry (one
  ``inc_many`` per metric, never one call per access).
* ``on_epoch_flush`` / ``on_migration`` / ``on_replication`` /
  ``on_link_fault`` — at the corresponding rare events.
* ``end_run`` — once per workload, to set end-of-run gauges.

This placement is what keeps the observed run *bit-identical* to an
unobserved one: the hooks read simulator state, they never steer it, and
the vectorized inner loop contains no obs code at all.  The <5% overhead
budget is enforced by ``benchmarks/bench_hotpath.py --obs-check``.
"""

from __future__ import annotations

from repro.obs import events as ev
from repro.obs.metrics import default_registry
from repro.obs.tracer import Tracer


class Observability:
    """Metrics registry + event tracer, pre-wired to the metric contract.

    ``trace=False`` (the default) gives metrics-only observation: the
    tracer is constructed disabled and every event hook short-circuits.
    Pass ``trace=True`` to also capture the discrete events.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self.registry = default_registry()
        self.tracer = Tracer(enabled=trace)
        r = self.registry
        # Cached handles: end_kernel runs once per kernel but touches ~20
        # metrics; skipping the name lookup keeps it cheap.
        self._c_accesses = r.get("sim.accesses")
        self._c_writes = r.get("sim.writes")
        self._c_instructions = r.get("sim.instructions")
        self._c_l1 = r.get("cache.l1.hit")
        self._c_l2 = r.get("cache.l2.hit")
        self._c_lr = r.get("mem.local.read")
        self._c_lw = r.get("mem.local.write")
        self._c_rr = r.get("mem.remote.read")
        self._c_rw = r.get("mem.remote.write")
        self._c_dr = r.get("dram.read")
        self._c_dw = r.get("dram.write")
        self._c_drh = r.get("dram.row_hit")
        self._c_drm = r.get("dram.row_miss")
        self._c_rdc_hit = r.get("rdc.hit")
        self._c_rdc_miss = r.get("rdc.miss")
        self._c_rdc_ins = r.get("rdc.insert")
        self._c_rdc_byp = r.get("rdc.bypass")
        self._c_rdc_stale = r.get("rdc.stale")
        self._c_inv = r.get("coh.invalidate")
        self._c_inv_recv = r.get("coh.invalidate_recv")
        self._c_epoch = r.get("epoch.flush_lines")
        self._c_imst_bc = r.get("imst.broadcast")
        self._c_imst_av = r.get("imst.broadcast_avoided")
        self._c_imst_dem = r.get("imst.demotion")
        self._c_mig = r.get("mig.page_moves")
        self._c_repl = r.get("repl.pages")
        self._c_link = r.get("link.bytes")
        self._c_dropped = r.get("trace.dropped")
        self._g_mapped = r.get("mem.pages_mapped")
        self._g_replicated = r.get("mem.pages_replicated")
        self._g_occupancy = r.get("rdc.occupancy")
        self._g_fault = r.get("fault.link_scale")
        self._h_accesses = r.get("kernel.accesses")
        self._h_latency = r.get("kernel.latency_ns")
        #: Kernel index currently executing (-1 outside any kernel).
        self._kernel = -1
        # Run-long baselines for stats the simulator accumulates itself
        # (RDC stale counters, IMST counters): end_kernel records deltas.
        self._rdc_stale_base: dict = {}
        self._imst_base: dict = {}
        self._dropped_synced = 0

    # -- kernel lifecycle -----------------------------------------------

    def begin_kernel(self, kernel_index: int, kernel_id: int) -> None:
        self._kernel = kernel_index
        self.registry.begin_kernel(kernel_id)

    def end_kernel(self, ks, system) -> None:
        """Absorb one finished kernel's counters into the registry.

        ``ks`` is the kernel's :class:`~repro.perf.stats.KernelStats`
        (complete: the caller invokes this *after* the kernel boundary
        and link snapshot), ``system`` the
        :class:`~repro.numa.system.MultiGpuSystem` that ran it.
        """
        gpus = ks.gpus

        def bulk(counter, values) -> None:
            counter.inc_many(
                ((g,), v) for g, v in enumerate(values) if v
            )

        bulk(self._c_accesses, [st.accesses for st in gpus])
        bulk(self._c_writes, [st.writes for st in gpus])
        bulk(self._c_instructions, [st.instructions for st in gpus])
        bulk(self._c_l1, [st.l1_hits for st in gpus])
        bulk(self._c_l2, [st.l2_hits for st in gpus])
        bulk(self._c_lr, [st.local_reads for st in gpus])
        bulk(self._c_lw, [st.local_writes for st in gpus])
        bulk(self._c_rr, [st.remote_reads for st in gpus])
        bulk(self._c_rw, [st.remote_writes for st in gpus])
        bulk(self._c_dr, [st.dram_reads for st in gpus])
        bulk(self._c_dw, [st.dram_writes for st in gpus])
        bulk(self._c_drh, [st.dram_row_hits for st in gpus])
        bulk(self._c_drm, [st.dram_row_misses for st in gpus])
        bulk(self._c_rdc_hit, [st.rdc_hits for st in gpus])
        bulk(self._c_rdc_miss, [st.rdc_misses for st in gpus])
        bulk(self._c_rdc_ins, [st.rdc_inserts for st in gpus])
        bulk(self._c_rdc_byp, [st.rdc_bypasses for st in gpus])
        bulk(self._c_inv, [st.invalidates_sent for st in gpus])
        bulk(self._c_inv_recv, [st.invalidates_received for st in gpus])
        self._c_link.inc_many(
            ((s, d), b)
            for s, row in enumerate(ks.link_bytes)
            for d, b in enumerate(row)
            if b
        )

        # RDC stale-epoch misses live on the RDC's own run-long stats,
        # not on KernelStats — record the delta since the last kernel.
        stale = []
        for g, node in enumerate(system.nodes):
            if node.carve is None:
                stale.append(0)
                continue
            now = node.carve.rdc.stats.stale_epoch_misses
            stale.append(now - self._rdc_stale_base.get(g, 0))
            self._rdc_stale_base[g] = now
        bulk(self._c_rdc_stale, stale)

        # IMST counters likewise accumulate per home node across the run.
        imst = getattr(system.protocol, "imst", None)
        imst_deltas = []
        if imst is not None:
            for g, tracker in enumerate(imst):
                s = tracker.stats
                base = self._imst_base.get(g, (0, 0, 0))
                delta = (
                    s.broadcasts - base[0],
                    s.broadcasts_avoided - base[1],
                    s.demotions - base[2],
                )
                self._imst_base[g] = (
                    s.broadcasts, s.broadcasts_avoided, s.demotions
                )
                imst_deltas.append(delta)
            bulk(self._c_imst_bc, [d[0] for d in imst_deltas])
            bulk(self._c_imst_av, [d[1] for d in imst_deltas])
            bulk(self._c_imst_dem, [d[2] for d in imst_deltas])

        total = sum(st.accesses for st in gpus)
        self._h_accesses.observe(total)
        for g, st in enumerate(gpus):
            if st.accesses:
                self._h_latency.observe(st.latency_ns, gpu=g)

        if ks.link_scale is not None:
            self.on_link_fault(ks.link_scale)

        self.registry.end_kernel()
        self._kernel = -1

    # -- rare-event hooks -------------------------------------------------

    def on_epoch_flush(self, gpu: int, flushed_lines: int) -> None:
        """A kernel-boundary epoch advance flushed *flushed_lines* home."""
        if flushed_lines:
            self._c_epoch.inc(flushed_lines, gpu=gpu)
        if self.tracer.enabled:
            self.tracer.record(
                ev.EVENT_EPOCH_FLUSH, kernel=self._kernel, gpu=gpu,
                flushed=flushed_lines,
            )

    def on_migration(self, page: int, dst_gpu: int, src_gpu: int) -> None:
        """A page migrated src -> dst (charged to the receiving GPU)."""
        self._c_mig.inc(1, gpu=dst_gpu)
        if self.tracer.enabled:
            self.tracer.record(
                ev.EVENT_MIGRATION, kernel=self._kernel, gpu=dst_gpu,
                page=page, src=src_gpu,
            )

    def on_replication(self, page: int, holders) -> None:
        """Read-only replicas of *page* were installed on *holders*."""
        for g in holders:
            self._c_repl.inc(1, gpu=g)
        if self.tracer.enabled:
            self.tracer.record(
                ev.EVENT_REPLICATION, kernel=self._kernel,
                page=page, holders=list(holders),
            )

    def on_link_fault(self, scale) -> None:
        """A kernel ran under a fault epoch; *scale* is its matrix."""
        faulted = []
        for s, row in enumerate(scale):
            for d, f in enumerate(row):
                if s != d and f != 1.0:
                    self._g_fault.set(f, src=s, dst=d)
                    faulted.append([s, d, f])
        if faulted and self.tracer.enabled:
            self.tracer.record(
                ev.EVENT_LINK_FAULT, kernel=self._kernel, links=faulted,
            )

    # -- run lifecycle -----------------------------------------------------

    def end_run(self, result, system) -> None:
        """Set end-of-run gauges and sync tracer self-accounting."""
        for g, pages in enumerate(result.pages_mapped):
            self._g_mapped.set(pages, gpu=g)
        for g, pages in enumerate(result.pages_replicated):
            self._g_replicated.set(pages, gpu=g)
        if self.tracer.enabled:
            # occupancy() walks the whole tag store — affordable on a
            # traced run, too slow for the metrics-only overhead budget.
            for g, node in enumerate(system.nodes):
                if node.carve is not None:
                    self._g_occupancy.set(
                        node.carve.rdc.occupancy(system._stream), gpu=g
                    )
        new_drops = self.tracer.dropped - self._dropped_synced
        if new_drops:
            self._c_dropped.inc(new_drops)
            self._dropped_synced = self.tracer.dropped


__all__ = ["Observability"]
