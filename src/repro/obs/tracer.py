"""Ring-buffered event tracer.

The tracer is the *event* half of the observability layer (counters live
in :mod:`repro.obs.registry`, batch attempts in the runner journal).  Design
constraints, in order:

1. **Off means free.**  Tracing defaults off; every call site guards with
   ``if obs is not None`` (and the facade checks :attr:`Tracer.enabled`),
   so the vectorized hot path pays nothing when no one is watching.
2. **Bounded memory.**  Events land in a ring of :data:`RING_CAPACITY`
   events; overflow silently evicts the oldest and bumps
   :attr:`dropped` (also exported as the ``trace.dropped`` counter).
3. **Discrete happenings only.**  Per-kernel volumes belong to the
   registry's kernel snapshots; the ring records the rare events
   (migrations, replications, epoch flushes, link faults), every one of
   them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.obs.events import TraceEvent

#: Events the ring holds before overflow evicts the oldest.
RING_CAPACITY = 65_536


class Tracer:
    """Bounded event sink.

    A disabled tracer drops everything (and records nothing, not even
    drops).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._ring: deque = deque(maxlen=RING_CAPACITY)
        #: Events evicted from the ring by overflow.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    def events(self) -> list:
        """The retained events, oldest first."""
        return list(self._ring)

    def record(self, kind: str, kernel: int = -1, gpu: int = -1,
               **payload) -> None:
        """Record one occurrence of ``kind``."""
        if not self.enabled:
            return
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(TraceEvent(kind, kernel, gpu, payload))

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0


__all__ = ["RING_CAPACITY", "Tracer"]
