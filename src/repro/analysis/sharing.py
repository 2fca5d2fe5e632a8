"""Sharing classification of pages and cache lines (Figs. 4 and 5).

Given a workload trace and a CTA schedule, every page (and line) is
classified by *which GPUs read and wrote it* over the whole execution:

* ``private``   — accessed by exactly one GPU;
* ``ro_shared`` — accessed by two or more GPUs, never written;
* ``rw_shared`` — accessed by two or more GPUs and written by someone.

The page-vs-line comparison exposes *false sharing*: with 2 MB pages a
single written line makes the whole page read-write shared, while at
128 B granularity most of those lines are read-only.  This observation is
what makes a fine-grain RDC (and its cheap coherence) viable.

The same profile drives the software replication policies: read-only
shared pages are replicable; an ideal system replicates every shared page.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig
from repro.gpu.cta import WorkloadTrace
from repro.gpu.scheduler import assign_ctas

PRIVATE = "private"
RO_SHARED = "ro_shared"
RW_SHARED = "rw_shared"

CATEGORIES = (PRIVATE, RO_SHARED, RW_SHARED)


@dataclass
class AccessDistribution:
    """Fraction of dynamic accesses landing in each sharing category."""

    private: float = 0.0
    ro_shared: float = 0.0
    rw_shared: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            PRIVATE: self.private,
            RO_SHARED: self.ro_shared,
            RW_SHARED: self.rw_shared,
        }

    @property
    def shared(self) -> float:
        return self.ro_shared + self.rw_shared


@dataclass
class SharingProfile:
    """Complete sharing metadata of one (workload, schedule) pairing."""

    workload: str
    n_gpus: int
    lines_per_page: int
    page_bytes: int
    #: page -> bitmask of GPUs that accessed / wrote it.
    page_accessors: dict[int, int] = field(default_factory=dict)
    page_writers: dict[int, int] = field(default_factory=dict)
    #: line -> bitmask of GPUs that accessed / wrote it.
    line_accessors: dict[int, int] = field(default_factory=dict)
    line_writers: dict[int, int] = field(default_factory=dict)
    #: page -> total dynamic accesses (drives the UM spill model).
    page_access_counts: dict[int, int] = field(default_factory=dict)
    #: line -> total dynamic accesses.
    line_access_counts: dict[int, int] = field(default_factory=dict)

    # -- classification -----------------------------------------------------

    def classify_page(self, page: int) -> str:
        return self._classify(
            self.page_accessors.get(page, 0), self.page_writers.get(page, 0)
        )

    def classify_line(self, line: int) -> str:
        return self._classify(
            self.line_accessors.get(line, 0), self.line_writers.get(line, 0)
        )

    @staticmethod
    def _classify(accessors_mask: int, writers_mask: int) -> str:
        n_accessors = bin(accessors_mask).count("1")
        if n_accessors <= 1:
            return PRIVATE
        return RW_SHARED if writers_mask else RO_SHARED

    # -- policy inputs ------------------------------------------------------

    def ro_shared_pages(self) -> set[int]:
        return {p for p in self.page_accessors if self.classify_page(p) == RO_SHARED}

    def shared_pages(self) -> set[int]:
        return {p for p in self.page_accessors if self.classify_page(p) != PRIVATE}

    def accessors_of_page(self, page: int) -> list[int]:
        mask = self.page_accessors.get(page, 0)
        return [g for g in range(self.n_gpus) if mask >> g & 1]

    # -- Fig. 4: dynamic access distribution ---------------------------------

    def access_distribution(self, granularity: str = "page") -> AccessDistribution:
        if granularity == "page":
            counts, classify = self.page_access_counts, self.classify_page
        elif granularity == "line":
            counts, classify = self.line_access_counts, self.classify_line
        else:
            raise ValueError(f"unknown granularity {granularity!r}")
        totals = {c: 0 for c in CATEGORIES}
        for unit, n in counts.items():
            totals[classify(unit)] += n
        total = sum(totals.values())
        if not total:
            return AccessDistribution()
        return AccessDistribution(
            private=totals[PRIVATE] / total,
            ro_shared=totals[RO_SHARED] / total,
            rw_shared=totals[RW_SHARED] / total,
        )

    # -- Fig. 5: shared working-set footprint ---------------------------------

    def shared_footprint_bytes(self) -> int:
        """Memory needed system-wide to cover the shared working set.

        Each shared page must be held by every accessor beyond its home,
        so the cover cost is ``(accessors - 1) * page_bytes`` summed over
        shared pages — the paper's "total number of unique remote pages
        fetched by the different GPUs".

        The result is in *real* (unscaled) bytes: capacity scaling shrinks
        the page size and the footprint together, so the page count is
        scale-invariant and pricing each page at the real ``page_bytes``
        recovers the real footprint.
        """
        total = 0
        for page, mask in self.page_accessors.items():
            n = bin(mask).count("1")
            if n > 1:
                total += (n - 1) * self.page_bytes
        return total

    def footprint_bytes(self) -> int:
        return len(self.page_accessors) * self.page_bytes

    def sorted_page_access_counts(self) -> list[int]:
        """Per-page access counts, hottest first (UM spill model input)."""
        return sorted(self.page_access_counts.values(), reverse=True)


#: A dense (unit x GPU) table is used while the largest unit id is below
#: this many times the access count; sparser or negative ids are first
#: compacted with ``np.unique``, so table size tracks the trace, not the
#: address range.
_DENSE_SLACK = 8


def profile_sharing(trace: WorkloadTrace, config: SystemConfig) -> SharingProfile:
    """Build the :class:`SharingProfile` of *trace* under *config*.

    One array pass over the whole trace: sharing is a union over kernels
    and counts are sums, so the kernels' ``(line, GPU, is_write)`` arrays
    are concatenated and tabulated at page and at line granularity.
    """
    n_gpus = config.n_gpus
    kernels = trace.kernels
    lines = np.concatenate([k.lines for k in kernels])
    gpus = np.concatenate(
        [assign_ctas(k, n_gpus, config.scheduling)[k.cta_ids] for k in kernels]
    )
    writes = np.concatenate([k.is_write for k in kernels])
    pa, pw, pc = _tabulate(lines // config.lines_per_page, gpus, writes, n_gpus)
    la, lw, lc = _tabulate(lines, gpus, writes, n_gpus)
    return SharingProfile(
        workload=trace.name,
        n_gpus=n_gpus,
        lines_per_page=config.lines_per_page,
        page_bytes=config.page_bytes,
        page_accessors=pa,
        page_writers=pw,
        line_accessors=la,
        line_writers=lw,
        page_access_counts=pc,
        line_access_counts=lc,
    )


def _tabulate(
    keys: np.ndarray, gpus: np.ndarray, writes: np.ndarray, n_gpus: int
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """``(accessors, writers, counts)`` dicts of one unit granularity.

    Accesses are binned into (unit x GPU) tables, one over all accesses
    and one over writes; a row's nonzero columns are its GPU bitmask.
    Writers only holds units that were written.
    """
    n = len(keys)
    if n and (keys.min() < 0 or keys.max() >= _DENSE_SLACK * n):
        units, index = np.unique(keys, return_inverse=True)
    else:
        units = np.arange(int(keys.max()) + 1 if n else 0)
        index = keys
    cells = index * n_gpus + gpus
    size = len(units) * n_gpus
    accessed = np.bincount(cells, minlength=size).reshape(-1, n_gpus)
    written = np.bincount(cells[writes], minlength=size).reshape(-1, n_gpus)
    bits = 1 << np.arange(n_gpus, dtype=np.int64)
    counts = accessed.sum(axis=1)
    accessor_masks = (accessed > 0) @ bits
    writer_masks = (written > 0) @ bits
    seen = counts > 0
    was_written = writer_masks > 0
    seen_units = units[seen].tolist()
    return (
        dict(zip(seen_units, accessor_masks[seen].tolist())),
        dict(zip(units[was_written].tolist(), writer_masks[was_written].tolist())),
        dict(zip(seen_units, counts[seen].tolist())),
    )
