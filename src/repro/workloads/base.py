"""Workload specification and trace generation.

The paper drives its simulator with traces of 20 proprietary CUDA
applications.  We cannot have those traces, so each benchmark is replaced
by a :class:`WorkloadSpec` — a parameterised generator reproducing the
*observable characteristics* every figure depends on:

* memory footprint (Table II, scaled by the system config),
* the fraction of pages shared between GPUs, and of those how many are
  written (page- vs line-granularity read-write sharing, Fig. 4),
* the dynamic fraction of accesses hitting shared data (Fig. 8's remote
  fraction after first-touch placement),
* intra- vs inter-kernel reuse of the shared working set (the CARVE-SWC
  vs CARVE-HWC distinction of Fig. 11),
* compute intensity and memory-level parallelism (which roofline term
  dominates; RandAccess's latency sensitivity).

The memory layout is: per-CTA private slices first, then a shared region.
Private slices are *not* page aligned, so CTA batches on different GPUs
falsely share boundary pages exactly as large pages cause in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.gpu.cta import KernelTrace, WorkloadTrace
from repro.workloads import patterns


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesise one benchmark's trace."""

    name: str
    abbr: str
    suite: str
    #: Real memory footprint (Table II), scaled down at generation time.
    footprint_bytes: int
    n_kernels: int = 6
    n_ctas: int = 64
    #: Dynamic accesses per kernel ~= coverage x footprint lines, clamped
    #: to [min_accesses, max_accesses].
    coverage: float = 1.5
    min_accesses: int = 8_000
    max_accesses: int = 80_000
    #: Fraction of footprint pages in the shared region.
    shared_page_frac: float = 0.3
    #: Fraction of dynamic accesses that target the shared region.
    shared_access_frac: float = 0.3
    #: Of shared pages, the fraction that ever receive a write.
    rw_page_frac: float = 0.5
    #: Of the lines in a written shared page, the fraction actually
    #: written (low values = false sharing at page granularity).
    line_write_frac: float = 0.1
    #: Store fraction of *private* accesses.
    write_frac: float = 0.25
    #: Store fraction of *shared* accesses.  Kept low for the read-write
    #: shared workloads: most page-level read-write sharing is false
    #: sharing, so line-granularity stores to shared data are rare
    #: (Fig. 4) — this is precisely what makes a write-through RDC and
    #: IMST-filtered invalidates cheap.
    shared_write_frac: float = 0.05
    #: Scaled footprints below this floor are padded up to it: a workload
    #: must stay large enough for first-touch page placement and cache
    #: statistics to be meaningful (documented fidelity trade-off).
    min_footprint_lines: int = 8192
    private_pattern: str = "stream"
    shared_pattern: str = "uniform"
    zipf_alpha: float = 1.2
    #: 0 = every kernel reuses the whole shared region; 1 = each kernel
    #: touches a disjoint slice (no inter-kernel shared reuse).
    inter_kernel_shift: float = 0.0
    instr_per_access: float = 10.0
    concurrency_per_sm: float = 32.0
    #: Extra leading kernels executed to warm caches/RDC/page tables but
    #: excluded from measurement (cold-start amortisation; the paper's
    #: 4-billion-instruction runs amortise cold misses that our short
    #: traces would otherwise over-count).
    warmup_kernels: int = 3
    #: Relative spread of per-CTA work (real grids are never perfectly
    #: balanced; this is what keeps the ideal system below a 4x speedup).
    cta_imbalance: float = 0.10
    #: Fraction of each CTA's private slice that is *cold* (initialisation
    #: data, lookup tails) and the share of private accesses it receives.
    #: Real applications have strongly skewed page heat — the property the
    #: Unified-Memory spill model of Table V(b) relies on.
    cold_page_frac: float = 0.30
    cold_access_frac: float = 0.03
    seed: int = 1

    def __post_init__(self) -> None:
        for frac_name in (
            "shared_page_frac",
            "shared_access_frac",
            "rw_page_frac",
            "line_write_frac",
            "write_frac",
            "shared_write_frac",
            "inter_kernel_shift",
        ):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{frac_name} must be in [0, 1], got {value}")
        if self.footprint_bytes <= 0:
            raise ValueError("footprint must be positive")
        if self.n_kernels <= 0 or self.n_ctas <= 0:
            raise ValueError("kernel and CTA counts must be positive")
        if self.warmup_kernels < 0:
            raise ValueError("warmup kernel count cannot be negative")
        if self.coverage <= 0:
            raise ValueError("coverage must be positive")
        if self.min_accesses <= 0 or self.max_accesses < self.min_accesses:
            raise ValueError("access clamp range is invalid")
        if self.private_pattern not in patterns.PATTERNS:
            raise ValueError(f"unknown private pattern {self.private_pattern!r}")
        if self.shared_pattern not in patterns.PATTERNS:
            raise ValueError(f"unknown shared pattern {self.shared_pattern!r}")
        if not 0.0 <= self.cta_imbalance <= 1.0:
            raise ValueError("cta_imbalance must be in [0, 1]")
        if not 0.0 <= self.cold_page_frac < 1.0:
            raise ValueError("cold_page_frac must be in [0, 1)")
        if not 0.0 <= self.cold_access_frac <= 1.0:
            raise ValueError("cold_access_frac must be in [0, 1]")

    def scaled(self, **changes) -> "WorkloadSpec":
        """A copy with fields replaced (convenience for sweeps/tests)."""
        return replace(self, **changes)


@dataclass
class _Layout:
    """Resolved scaled memory layout of a workload."""

    footprint_lines: int
    lines_per_page: int
    private_lines: int
    cta_slice_lines: int
    shared_start: int
    shared_lines: int
    persistent_shared_lines: int
    #: writable lines inside RW shared pages (the false-sharing targets).
    writable_shared: np.ndarray = field(default_factory=lambda: np.empty(0))


def trace_key(spec: WorkloadSpec, config: SystemConfig) -> tuple:
    """The inputs :func:`generate_trace` depends on, as a hashable key.

    The trace is a pure function of the spec and the two geometry values
    :func:`_resolve_layout` reads, so equal keys yield byte-identical
    traces (systems differing only in caches, RDC, coherence, links or
    placement share one trace).
    """
    return (spec, config.lines_per_page, config.lines(spec.footprint_bytes))


def _resolve_layout(spec: WorkloadSpec, config: SystemConfig) -> _Layout:
    lpp = config.lines_per_page
    footprint_lines = max(
        config.lines(spec.footprint_bytes), 4 * lpp, spec.min_footprint_lines
    )
    n_pages = max(4, footprint_lines // lpp)
    shared_pages = max(1, int(round(n_pages * spec.shared_page_frac)))
    if spec.shared_page_frac == 0.0:
        shared_pages = 1  # a token shared page keeps the layout total
    private_pages = max(1, n_pages - shared_pages)
    private_lines = private_pages * lpp
    shared_lines = shared_pages * lpp
    persistent = max(
        1, int(round(shared_lines * (1.0 - spec.inter_kernel_shift)))
    )
    rw_pages = int(round(shared_pages * spec.rw_page_frac))
    writable: list[int] = []
    writable_per_page = max(1, int(round(lpp * spec.line_write_frac)))
    shared_start = private_lines
    for p in range(rw_pages):
        page_first = shared_start + p * lpp
        # Spread writable lines across the page with a fixed stride.
        step = max(1, lpp // writable_per_page)
        for i in range(writable_per_page):
            writable.append(page_first + (i * step) % lpp)
    return _Layout(
        footprint_lines=private_lines + shared_lines,
        lines_per_page=lpp,
        private_lines=private_lines,
        cta_slice_lines=max(1, private_lines // spec.n_ctas),
        shared_start=shared_start,
        shared_lines=shared_lines,
        persistent_shared_lines=persistent,
        writable_shared=np.asarray(writable, dtype=np.int64)
        if writable
        else np.empty(0, dtype=np.int64),
    )


def _accesses_per_kernel(spec: WorkloadSpec, layout: _Layout) -> int:
    raw = int(spec.coverage * layout.footprint_lines)
    return int(min(max(raw, spec.min_accesses), spec.max_accesses))


def _shared_window(
    spec: WorkloadSpec, layout: _Layout, kernel: int
) -> tuple[int, int]:
    """Shared sub-region accessed by *kernel*: persistent + its own slice."""
    if spec.inter_kernel_shift == 0.0:
        return layout.shared_start, layout.shared_lines
    transient_total = layout.shared_lines - layout.persistent_shared_lines
    if transient_total <= 0:
        return layout.shared_start, layout.shared_lines
    slice_lines = max(1, transient_total // spec.n_kernels)
    start = (
        layout.shared_start
        + layout.persistent_shared_lines
        + (kernel % spec.n_kernels) * slice_lines
    )
    end = min(start + slice_lines, layout.shared_start + layout.shared_lines)
    return start, max(1, end - start)


def generate_trace(
    spec: WorkloadSpec, config: SystemConfig, trace_seed: Optional[int] = None
) -> WorkloadTrace:
    """Synthesise the full workload trace of *spec* under *config*."""
    layout = _resolve_layout(spec, config)
    per_kernel = _accesses_per_kernel(spec, layout)
    per_cta = max(1, per_kernel // spec.n_ctas)
    seed = spec.seed if trace_seed is None else trace_seed
    kernels = []
    total_kernels = spec.warmup_kernels + spec.n_kernels
    for k in range(total_kernels):
        rng = np.random.default_rng((seed << 16) + k)
        kernel = _generate_kernel(spec, layout, k, per_cta, rng)
        kernel.warmup = k < spec.warmup_kernels
        kernels.append(kernel)
    return WorkloadTrace(name=spec.abbr, kernels=kernels)


def _generate_kernel(
    spec: WorkloadSpec,
    layout: _Layout,
    kernel_id: int,
    per_cta: int,
    rng: np.random.Generator,
) -> KernelTrace:
    cta_blocks: list[np.ndarray] = []
    write_blocks: list[np.ndarray] = []
    cta_id_blocks: list[np.ndarray] = []
    shared_start, shared_lines = _shared_window(spec, layout, kernel_id)
    win_writable = layout.writable_shared
    if win_writable.size:
        in_window = (win_writable >= shared_start) & (
            win_writable < shared_start + shared_lines
        )
        win_writable = win_writable[in_window]
    for cta in range(spec.n_ctas):
        cta_work = per_cta
        if spec.cta_imbalance:
            factor = 1.0 + spec.cta_imbalance * float(rng.uniform(-1.0, 1.0))
            cta_work = max(1, int(round(per_cta * factor)))
        n_shared = rng.binomial(cta_work, spec.shared_access_frac)
        n_private = cta_work - n_shared
        pieces: list[np.ndarray] = []
        wpieces: list[np.ndarray] = []
        if n_private:
            slice_start = (cta * layout.cta_slice_lines) % max(
                1, layout.private_lines
            )
            slice_len = max(
                1,
                min(layout.cta_slice_lines, layout.private_lines - slice_start),
            )
            # Carve the tail of the slice out as cold data: it keeps its
            # footprint but receives only cold_access_frac of the traffic.
            cold_len = int(slice_len * spec.cold_page_frac)
            hot_len = max(1, slice_len - cold_len)
            n_cold = (
                rng.binomial(n_private, spec.cold_access_frac) if cold_len else 0
            )
            n_hot = n_private - n_cold
            if n_hot:
                lines = patterns.generate(
                    spec.private_pattern,
                    slice_start,
                    hot_len,
                    n_hot,
                    rng,
                    offset=kernel_id * 7,  # different sweep phase per kernel
                    alpha=spec.zipf_alpha,
                )
                pieces.append(lines)
                wpieces.append(rng.random(n_hot) < spec.write_frac)
            if n_cold:
                lines = patterns.uniform(
                    slice_start + hot_len, cold_len, n_cold, rng
                )
                pieces.append(lines)
                wpieces.append(rng.random(n_cold) < spec.write_frac)
        if n_shared:
            writes = rng.random(n_shared) < spec.shared_write_frac
            reads_lines = patterns.generate(
                spec.shared_pattern,
                shared_start,
                shared_lines,
                n_shared,
                rng,
                offset=kernel_id * 3,
                alpha=spec.zipf_alpha,
            )
            if win_writable.size:
                # Shared stores only touch the designated writable lines
                # (false sharing: few written lines per RW page).
                n_writes = int(writes.sum())
                if n_writes:
                    reads_lines = reads_lines.copy()
                    reads_lines[writes] = rng.choice(
                        win_writable, size=n_writes
                    )
            else:
                writes[:] = False  # read-only shared region
            pieces.append(reads_lines)
            wpieces.append(writes)
        if not pieces:
            continue
        lines = np.concatenate(pieces)
        writes = np.concatenate(wpieces)
        # Interleave private and shared accesses within the CTA.
        order = rng.permutation(len(lines))
        cta_blocks.append(lines[order])
        write_blocks.append(writes[order])
        cta_id_blocks.append(np.full(len(lines), cta, dtype=np.int32))
    return KernelTrace(
        kernel_id=kernel_id,
        n_ctas=spec.n_ctas,
        cta_ids=np.concatenate(cta_id_blocks),
        lines=np.concatenate(cta_blocks),
        is_write=np.concatenate(write_blocks),
        instr_per_access=spec.instr_per_access,
        concurrency_per_sm=spec.concurrency_per_sm,
    )


def expected_footprint_bytes(spec: WorkloadSpec, config: SystemConfig) -> int:
    """Scaled footprint the generator will lay out (diagnostics)."""
    layout = _resolve_layout(spec, config)
    return layout.footprint_lines * 128


def trace_cost_estimate(spec: WorkloadSpec, config: SystemConfig) -> int:
    """Total dynamic accesses a full trace will contain (incl. warmup)."""
    layout = _resolve_layout(spec, config)
    per_kernel = _accesses_per_kernel(spec, layout)
    per_cta = max(1, per_kernel // spec.n_ctas)
    return per_cta * spec.n_ctas * (spec.n_kernels + spec.warmup_kernels)
