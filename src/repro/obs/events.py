"""Typed trace events and their kind vocabulary.

A :class:`TraceEvent` is one discrete happening in the tracer's ring
buffer.  ``kind`` comes from the ``EVENT_*`` vocabulary below — like
metric names, event kinds are a documented contract (``docs/metrics.md``
lists them and ``tools/check_docs.py`` enforces the mapping).  Per-kernel
volumes (RDC hits, invalidations, IMST filtering) are not events: the
metrics registry's kernel snapshots already hold them.

Events carry *kernel index* rather than wall-clock time: the simulator is
deterministic and untimed until the roofline model prices a result, so
the exporter assigns real timestamps only at export time (from
:class:`repro.perf.model.PerformanceModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Kernel-boundary epoch flush (software coherence write-back).
EVENT_EPOCH_FLUSH = "epoch.flush"
#: One page migrated between GPUs.
EVENT_MIGRATION = "mig.page"
#: Read-only replica(s) installed on first touch.
EVENT_REPLICATION = "repl.install"
#: A link-fault epoch was active during a kernel.
EVENT_LINK_FAULT = "link.fault"

#: Every contracted event kind (what docs may legally reference).
EVENT_KINDS = frozenset({
    EVENT_EPOCH_FLUSH,
    EVENT_MIGRATION,
    EVENT_REPLICATION,
    EVENT_LINK_FAULT,
})


@dataclass(slots=True)
class TraceEvent:
    """One record in the tracer ring.

    ``kind`` is an ``EVENT_*`` constant; ``kernel`` the zero-based kernel
    index it occurred in (-1 when outside any kernel); ``gpu`` the GPU
    it concerns (-1 for system-wide events); ``payload`` kind-specific
    detail (page numbers, byte counts, fault scales...).
    """

    kind: str
    kernel: int = -1
    gpu: int = -1
    payload: dict = field(default_factory=dict)


__all__ = [
    "EVENT_EPOCH_FLUSH",
    "EVENT_KINDS",
    "EVENT_LINK_FAULT",
    "EVENT_MIGRATION",
    "EVENT_REPLICATION",
    "TraceEvent",
]
