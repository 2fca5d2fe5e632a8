"""Page table and page placement for the multi-GPU address space.

NUMA-GPU places pages with a First-Touch (FT) policy: a page is homed at
the GPU that first accesses it, so private data ends up local when CTA
scheduling is locality-aware.  Round-robin and static-interleaved
placements are provided for ablation.  The table also tracks software
*replicas* (read-only page replication) and supports re-homing (page
migration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    PLACEMENT_FIRST_TOUCH,
    PLACEMENT_INTERLEAVED,
    PLACEMENT_ROUND_ROBIN,
)


@dataclass
class PageTableStats:
    """Mapping, migration and replication totals for the page table."""
    pages_mapped: int = 0
    migrations: int = 0
    replicas_created: int = 0
    replicas_collapsed: int = 0


class PageTable:
    """Global page -> home-GPU map with replica tracking."""

    def __init__(self, n_gpus: int, placement: str = PLACEMENT_FIRST_TOUCH) -> None:
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        if placement not in (
            PLACEMENT_FIRST_TOUCH,
            PLACEMENT_ROUND_ROBIN,
            PLACEMENT_INTERLEAVED,
        ):
            raise ValueError(f"unknown placement policy {placement!r}")
        self.n_gpus = n_gpus
        self.placement = placement
        self._home: dict[int, int] = {}
        self._replicas: dict[int, set[int]] = {}
        self._rr_next = 0
        self.stats = PageTableStats()

    # -- placement ------------------------------------------------------------

    def home_of(self, page: int, accessor: int) -> int:
        """Home GPU of *page*, mapping it on first touch."""
        home = self._home.get(page)
        if home is not None:
            return home
        if self.placement == PLACEMENT_FIRST_TOUCH:
            home = accessor
        elif self.placement == PLACEMENT_ROUND_ROBIN:
            home = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.n_gpus
        else:  # PLACEMENT_INTERLEAVED: static hash of the page number
            home = page % self.n_gpus
        self._home[page] = home
        self.stats.pages_mapped += 1
        return home

    def is_mapped(self, page: int) -> bool:
        return page in self._home

    def peek_home(self, page: int) -> int:
        """Home of a mapped page (-1 if unmapped); no side effects."""
        return self._home.get(page, -1)

    # -- replication ------------------------------------------------------------

    def add_replica(self, page: int, gpu: int) -> bool:
        """Give *gpu* a local replica of *page*; True if newly created."""
        if not 0 <= gpu < self.n_gpus:
            raise ValueError(f"gpu {gpu} out of range")
        holders = self._replicas.setdefault(page, set())
        if gpu in holders:
            return False
        holders.add(gpu)
        self.stats.replicas_created += 1
        return True

    def has_replica(self, page: int, gpu: int) -> bool:
        holders = self._replicas.get(page)
        return holders is not None and gpu in holders

    def collapse_replicas(self, page: int) -> int:
        """Destroy all replicas of *page* (write to an RO-replicated page).

        Returns how many replicas were collapsed.  The (prohibitive)
        software cost of doing this is exactly why the paper restricts
        replication to read-only pages.
        """
        holders = self._replicas.pop(page, None)
        if not holders:
            return 0
        self.stats.replicas_collapsed += len(holders)
        return len(holders)

    # -- migration ------------------------------------------------------------

    def migrate(self, page: int, new_home: int) -> int:
        """Re-home a mapped page; returns the previous home."""
        if page not in self._home:
            raise KeyError(f"page {page} is not mapped")
        if not 0 <= new_home < self.n_gpus:
            raise ValueError(f"gpu {new_home} out of range")
        old = self._home[page]
        if old != new_home:
            self._home[page] = new_home
            self.stats.migrations += 1
        return old

    # -- capacity accounting ------------------------------------------------------

    def pages_homed(self, gpu: int) -> int:
        return sum(1 for h in self._home.values() if h == gpu)

    def replicas_held(self, gpu: int) -> int:
        return sum(1 for holders in self._replicas.values() if gpu in holders)

    def capacity_pages(self, gpu: int) -> int:
        """Pages of physical memory *gpu* must provide (homed + replicas)."""
        return self.pages_homed(gpu) + self.replicas_held(gpu)

    @property
    def total_pages(self) -> int:
        return len(self._home)

    @property
    def total_replicas(self) -> int:
        return sum(len(h) for h in self._replicas.values())

    def replication_pressure(self) -> float:
        """Total capacity (incl. replicas) over application footprint."""
        if not self._home:
            return 1.0
        return (self.total_pages + self.total_replicas) / self.total_pages


__all__ = [
    "PageTable",
    "PageTableStats",
]
