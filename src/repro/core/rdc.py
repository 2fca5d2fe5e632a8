"""The Remote Data Cache (RDC): an Alloy-style DRAM cache in video memory.

CARVE statically carves a region of local GPU memory and organises it as a
direct-mapped, tags-with-data cache of *remote* lines (Fig. 6/7).  One
DRAM access retrieves tag+data together (the tag lives in spare ECC bits),
so a probe costs exactly one local-memory access whether it hits or
misses, and an insert costs one local-memory write.

Sets are interleaved across all memory channels (``set % n_channels``),
which the DRAM model sees because RDC accesses are issued to it like any
other local access.

The RDC supports both write policies discussed in Section IV-B:

* ``write_through`` (the paper's choice): dirty data propagates to the
  home node immediately; a kernel-boundary flush is free.
* ``write_back``: lines dirty locally; a *dirty-map* of written regions
  bounds the kernel-boundary flush to regions actually written.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import WRITE_BACK, WRITE_THROUGH
from repro.core.epoch import EpochCounters


@dataclass
class RdcStats:
    """RDC probe/fill/write totals, incl. stale-epoch misses (§IV-B)."""
    probes: int = 0
    hits: int = 0
    stale_epoch_misses: int = 0
    inserts: int = 0
    writes: int = 0
    physical_resets: int = 0

    @property
    def misses(self) -> int:
        return self.probes - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def add_counts(
        self,
        probes: int = 0,
        hits: int = 0,
        stale_epoch_misses: int = 0,
        inserts: int = 0,
        writes: int = 0,
    ) -> None:
        """Batched counter update (vectorized-engine flush)."""
        self.probes += probes
        self.hits += hits
        self.stale_epoch_misses += stale_epoch_misses
        self.inserts += inserts
        self.writes += writes


#: Region granularity of the write-back dirty-map, in lines.
DIRTY_MAP_REGION_LINES = 64


class RemoteDataCache:
    """The paper's Remote Data Cache (RDC, Section III): an
    Alloy-style direct-mapped, tags-with-data cache over line numbers."""

    def __init__(
        self,
        n_lines: int,
        write_policy: str = WRITE_THROUGH,
        epoch_bits: int = 20,
    ) -> None:
        if n_lines <= 0:
            raise ValueError("RDC must have a positive line count")
        if write_policy not in (WRITE_THROUGH, WRITE_BACK):
            raise ValueError(f"unknown write policy {write_policy!r}")
        self.n_sets = n_lines
        self.write_policy = write_policy
        # Tag arrays: tag == -1 means the set is empty.  Plain lists, not
        # NumPy: the hot path indexes single elements, where ndarray
        # scalar boxing costs far more than a list load.  They cover only
        # the sets allocated so far (see ``reserve``); a set past their
        # end is empty.  Bulk operations (reserve, flush, reset) are rare
        # and mutate the lists *in place* so that hot-path aliases stay
        # valid.
        self._tags: list = []
        self._epochs: list = []
        self._dirty: list = []
        self.epochs = EpochCounters(bits=epoch_bits)
        self.stats = RdcStats()
        # Write-back dirty map: region ids that have been written.
        self._dirty_regions: set[int] = set()

    # -- geometry ---------------------------------------------------------

    def set_of(self, line: int) -> int:
        return line % self.n_sets

    def reserve(self, n: int) -> None:
        """Allocate sets ``0 .. n-1`` (at most ``n_sets``), in place.

        Sets are allocated on demand: a large RDC that a workload's lines
        never fill costs no memory beyond the sets they reach.
        """
        grow = min(n, self.n_sets) - len(self._tags)
        if grow > 0:
            self._tags += [-1] * grow
            self._epochs += [0] * grow
            self._dirty += [False] * grow

    # -- hot-path views ----------------------------------------------------
    # The vectorized execution engine inlines probe/insert/write against
    # these live structures, after reserving every set its kernel can
    # reach; any mutation must preserve the contracts of those methods
    # (tag/epoch pairing, dirty-map upkeep, counters flushed through
    # ``stats.add_counts``).

    @property
    def tags(self) -> list:
        """Per allocated set, the resident line tag (-1 = empty)."""
        return self._tags

    @property
    def line_epochs(self) -> list:
        """Per allocated set, the install epoch (valid only where a tag
        is set)."""
        return self._epochs

    @property
    def dirty_flags(self) -> list:
        """Per allocated set, the dirty bit (write-back policy only)."""
        return self._dirty

    @property
    def dirty_regions(self) -> set:
        """Write-back dirty-map region ids."""
        return self._dirty_regions

    # -- cache operations ---------------------------------------------------

    def probe(self, line: int, stream: int = 0) -> bool:
        """One Alloy access: read tag+data, hit iff tag and epoch match."""
        s = line % self.n_sets
        self.stats.probes += 1
        if s < len(self._tags) and self._tags[s] == line:
            if self.epochs.is_current(self._epochs[s], stream):
                self.stats.hits += 1
                return True
            self.stats.stale_epoch_misses += 1
        return False

    def contains(self, line: int, stream: int = 0) -> bool:
        """Side-effect-free presence check (no counters)."""
        s = line % self.n_sets
        return (
            s < len(self._tags)
            and self._tags[s] == line
            and self.epochs.is_current(self._epochs[s], stream)
        )

    def insert(self, line: int, stream: int = 0, dirty: bool = False) -> None:
        """Install *line*, displacing whatever occupied its set."""
        s = line % self.n_sets
        self.reserve(s + 1)
        self._tags[s] = line
        self._epochs[s] = self.epochs.current(stream)
        self._dirty[s] = dirty
        self.stats.inserts += 1
        if dirty:
            self._note_write(line)

    def write(self, line: int, stream: int = 0) -> bool:
        """Update a resident copy of *line*; returns True if it was present.

        Under write-through the copy stays clean (data also goes to the
        home); under write-back it becomes dirty and its region is marked
        in the dirty-map.
        """
        s = line % self.n_sets
        if s >= len(self._tags) or self._tags[s] != line \
                or not self.epochs.is_current(
            self._epochs[s], stream
        ):
            return False
        self.stats.writes += 1
        if self.write_policy == WRITE_BACK:
            self._dirty[s] = True
            self._note_write(line)
        return True

    def invalidate_line(self, line: int) -> bool:
        """Coherence invalidation of one line; True if it was resident."""
        s = line % self.n_sets
        if s < len(self._tags) and self._tags[s] == line:
            self._tags[s] = -1
            self._dirty[s] = False
            return True
        return False

    # -- kernel-boundary machinery -----------------------------------------

    def _note_write(self, line: int) -> None:
        self._dirty_regions.add(line // DIRTY_MAP_REGION_LINES)

    def kernel_boundary_flush(self, stream: int = 0) -> int:
        """Software-coherence boundary: advance the epoch; flush dirty data.

        Returns the number of dirty lines written back to their home nodes
        (zero for a write-through RDC).  A counter rollover forces a
        physical reset of the tag store.
        """
        flushed = 0
        if self.write_policy == WRITE_BACK:
            flushed = sum(self._dirty)
            self._dirty[:] = [False] * len(self._dirty)
            self._dirty_regions.clear()
        rolled = self.epochs.advance(stream)
        if rolled:
            self.physical_reset()
        return flushed

    def dirty_lines(self) -> list[int]:
        """Resident dirty lines (write-back flush targets via dirty-map)."""
        return [t for t, d in zip(self._tags, self._dirty) if d and t >= 0]

    def dirty_map_regions(self) -> int:
        """How many dirty-map regions would be scanned at a flush."""
        return len(self._dirty_regions)

    def physical_reset(self) -> None:
        """Full tag-store reset (epoch rollover path)."""
        n = len(self._tags)
        self._tags[:] = [-1] * n
        self._epochs[:] = [0] * n
        self._dirty[:] = [False] * n
        self._dirty_regions.clear()
        self.stats.physical_resets += 1

    # -- introspection ------------------------------------------------------

    def occupancy(self, stream: int = 0) -> float:
        """Fraction of all ``n_sets`` sets holding a currently valid line."""
        cur = self.epochs.current(stream)
        valid = sum(
            1 for t, e in zip(self._tags, self._epochs) if t >= 0 and e == cur
        )
        return valid / self.n_sets


__all__ = [
    "DIRTY_MAP_REGION_LINES",
    "RdcStats",
    "RemoteDataCache",
]
