"""Set-associative caches used for the GPU L1 and L2/LLC.

These are functional (hit/miss) models with true LRU replacement.  They know
nothing about timing; the performance model converts the traffic they emit
into time.

:class:`SetAssociativeCache` (the L2/LLC and the TLB levels) keeps each
set as a plain ``dict`` whose insertion order is the LRU order: a refresh
deletes the key and inserts it again, an eviction removes the first key.
Each resident line carries the metadata the NUMA machinery needs as an
int of flag bits, :data:`DIRTY` and :data:`REMOTE`; a plain int costs no
allocation per fill, which matters on the engine's hot path.

:class:`TagCache` (the write-through, no-allocate L1, whose lines never
carry state) keeps each set as a ``list`` of lines, LRU first: at the
L1's few ways a list scan beats dict upkeep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

#: Line-state flag: the line holds data newer than its home DRAM.
DIRTY = 1
#: Line-state flag: the line is homed on another GPU.
REMOTE = 2


@dataclass
class EvictedLine:
    """Returned when an insertion displaces a resident line."""

    __slots__ = ("line", "dirty", "remote")

    line: int
    dirty: bool
    remote: bool


def _evicted(line: int, state: int) -> EvictedLine:
    return EvictedLine(line, bool(state & DIRTY), bool(state & REMOTE))


class SetAssociativeCache:
    """A classic set-associative, true-LRU cache over line numbers.

    The cache is sized in *lines*; ``n_lines`` must be a multiple of
    ``ways`` (the set count is derived).  When ``n_lines < ways`` the cache
    degenerates to a single fully-associative set, which keeps heavily
    scaled-down configurations functional.
    """

    #: Set container: a ``dict`` of line -> DIRTY|REMOTE flags, LRU first.
    _new_set = dict

    def __init__(self, n_lines: int, ways: int, name: str = "cache") -> None:
        if n_lines <= 0:
            raise ValueError("cache must have a positive line count")
        if ways <= 0:
            raise ValueError("cache must have positive associativity")
        if n_lines < ways:
            ways = n_lines
        if n_lines % ways:
            raise ValueError(
                f"{name}: line count {n_lines} not divisible by {ways} ways"
            )
        self.name = name
        self.n_lines = n_lines
        self.ways = ways
        self.n_sets = n_lines // ways
        self._sets: list = [self._new_set() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    # -- basic operations ------------------------------------------------

    def _set_of(self, line: int):
        return self._sets[line % self.n_sets]

    @property
    def sets(self) -> list:
        """The per-set line tables, LRU-first (hot-path view).

        Each is a ``dict`` mapping a resident line to its state, an int
        of :data:`DIRTY` and :data:`REMOTE` bits, in LRU order (a
        :class:`TagCache` set is a ``list`` of lines instead).  The
        vectorized execution engine operates on these directly to avoid
        per-access method-call overhead; any mutation must preserve the
        :meth:`lookup`/:meth:`insert` contract (LRU order, ``ways``
        bound, counter deltas flushed via :meth:`add_lookup_counts`).
        Refresh = delete then re-insert; evict = remove the first key.
        Assigning to a resident key keeps its LRU position, so a state
        update that must not refresh recency is a plain assignment.
        """
        return self._sets

    def add_lookup_counts(self, hits: int, misses: int) -> None:
        """Batched hit/miss counter update (vectorized-engine flush)."""
        self.hits += hits
        self.misses += misses

    def lookup(self, line: int, update_lru: bool = True) -> bool:
        """Probe for *line*; updates hit/miss counters and recency."""
        s = self._set_of(line)
        if line in s:
            self.hits += 1
            if update_lru:
                s[line] = s.pop(line)
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check with no side effects (no counters, no LRU)."""
        return line in self._set_of(line)

    def insert(
        self, line: int, dirty: bool = False, remote: bool = False
    ) -> Optional[EvictedLine]:
        """Install *line*, returning the victim if one was displaced.

        Re-inserting a resident line refreshes its recency and ORs the
        dirty bit (a write hit never cleans a line).
        """
        s = self._set_of(line)
        flags = (DIRTY if dirty else 0) | (REMOTE if remote else 0)
        state = s.pop(line, None)
        if state is not None:
            s[line] = (state & DIRTY) | flags
            return None
        victim = None
        if len(s) >= self.ways:
            vline = next(iter(s))
            victim = _evicted(vline, s.pop(vline))
        s[line] = flags
        return victim

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; True if it was present."""
        s = self._set_of(line)
        state = s.pop(line, None)
        if state is None:
            return False
        s[line] = state | DIRTY
        return True

    def invalidate_line(self, line: int) -> Optional[EvictedLine]:
        """Remove one line (coherence invalidation); returns its state."""
        s = self._set_of(line)
        state = s.pop(line, None)
        if state is None:
            return None
        return _evicted(line, state)

    # -- bulk operations (software coherence) -----------------------------

    def invalidate_all(self) -> list[EvictedLine]:
        """Drop every line, returning the dirty ones (they need a flush)."""
        dirty = [
            _evicted(line, st)
            for s in self._sets
            for line, st in s.items()
            if st & DIRTY
        ]
        for s in self._sets:
            s.clear()
        return dirty

    def invalidate_remote(self) -> int:
        """Drop only remotely homed lines; returns how many were dropped.

        This models the NUMA-GPU software-coherence rule that remote data
        cached in the LLC must not survive a kernel boundary, while local
        (memory-side, implicitly coherent) lines may.
        """
        dropped = 0
        for s in self._sets:
            stale = [line for line, st in s.items() if st & REMOTE]
            for line in stale:
                del s[line]
            dropped += len(stale)
        return dropped

    def flush_dirty(self) -> list[EvictedLine]:
        """Clean every dirty line, returning them (for writeback traffic)."""
        flushed = []
        for s in self._sets:
            for line, st in s.items():
                if st & DIRTY:
                    flushed.append(_evicted(line, st))
                    # Assigning to a resident key keeps its LRU position.
                    s[line] = st & ~DIRTY
        return flushed

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self) -> Iterator[int]:
        for s in self._sets:
            yield from s

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


class TagCache(SetAssociativeCache):
    """A tag-only set-associative, true-LRU cache (the GPU L1).

    Each set is a ``list`` of resident lines, LRU first.  Lines carry no
    state, so :meth:`insert` refuses ``dirty`` or ``remote``, evicted and
    invalidated lines report both flags clear, and no line is ever
    flushed or dropped as remote.
    """

    _new_set = list

    def lookup(self, line: int, update_lru: bool = True) -> bool:
        s = self._set_of(line)
        if line in s:
            self.hits += 1
            if update_lru:
                s.remove(line)
                s.append(line)
            return True
        self.misses += 1
        return False

    def insert(
        self, line: int, dirty: bool = False, remote: bool = False
    ) -> Optional[EvictedLine]:
        if dirty or remote:
            raise ValueError(f"{self.name}: tag-only lines carry no state")
        s = self._set_of(line)
        if line in s:
            s.remove(line)
            s.append(line)
            return None
        victim = None
        if len(s) >= self.ways:
            victim = EvictedLine(s.pop(0), False, False)
        s.append(line)
        return victim

    def mark_dirty(self, line: int) -> bool:
        raise ValueError(f"{self.name}: tag-only lines carry no state")

    def invalidate_line(self, line: int) -> Optional[EvictedLine]:
        s = self._set_of(line)
        if line not in s:
            return None
        s.remove(line)
        return EvictedLine(line, False, False)

    def invalidate_all(self) -> list[EvictedLine]:
        for s in self._sets:
            s.clear()
        return []

    def invalidate_remote(self) -> int:
        return 0

    def flush_dirty(self) -> list[EvictedLine]:
        return []
