"""Ring-buffered event tracer with sampling controls.

The tracer is the *event* half of the observability layer (counters live
in :mod:`repro.obs.registry`, spans in :mod:`repro.obs.trace`).  Design
constraints, in order:

1. **Off means free.**  Tracing defaults off; every call site guards with
   ``if obs is not None`` (and the facade checks :attr:`Tracer.enabled`),
   so the vectorized hot path pays nothing when no one is watching.
2. **Bounded memory.**  Events land in a ``deque(maxlen=capacity)`` ring;
   overflow silently evicts the oldest and bumps :attr:`dropped` (also
   exported as the ``trace.dropped`` counter).
3. **Discrete happenings only.**  Per-kernel volumes belong to the
   registry's kernel snapshots; the ring records the rare events
   (migrations, replications, epoch flushes, link faults).
4. **Sampling.**  ``sample_every=N`` keeps every Nth occurrence of each
   kind.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.obs.events import TraceEvent

DEFAULT_CAPACITY = 65_536


class Tracer:
    """Bounded, sampled event sink.

    ``capacity`` bounds the ring; ``sample_every`` is the per-kind
    sampling stride (1 = keep everything).  A disabled tracer drops
    everything (and records nothing, not even drops).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 enabled: bool = True, sample_every: int = 1) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.sample_every = sample_every
        self._ring: deque = deque(maxlen=capacity)
        self._seen: dict = {}
        #: Events evicted from the ring by overflow (not sampling skips).
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
        """Record one occurrence of ``kind`` (subject to sampling)."""
        if not self.enabled:
            return
        seen = self._seen.get(kind, 0)
        self._seen[kind] = seen + 1
        if seen % self.sample_every:
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(TraceEvent(kind, kernel, gpu, payload))

    def clear(self) -> None:
        self._ring.clear()
        self._seen.clear()
        self.dropped = 0


__all__ = ["DEFAULT_CAPACITY", "Tracer"]
