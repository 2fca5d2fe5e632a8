"""Compact per-result metric summaries for the runner journal.

The fault-tolerant runner (:mod:`repro.sim.runner`) journals one record
per attempt.  When an attempt returns a :class:`repro.perf.stats.RunResult`
the journal's ``done`` record is enriched with the dict produced here — a
deliberately small, JSON-safe digest (a dozen scalars, not the full
counter dump) so journals stay greppable and cheap.

The function is duck-typed: task functions can return anything, so a
non-RunResult simply yields ``None`` and the journal stays unchanged.
A RunResult-*shaped* object whose digest computation raises is a
different story — that is data loss, so it is surfaced as a single
:class:`RuntimeWarning` per process instead of being silently
swallowed.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.durable import warn_once


def summarize_result(result) -> Optional[dict]:
    """A small JSON-safe digest of a ``RunResult`` (else ``None``).

    Keys are derived from the metric contract (``sim.accesses``,
    ``rdc.hit`` ...) so journal greps and docs speak the same language.
    A RunResult-shaped object that blows up mid-digest yields ``None``
    and the one-shot warning; the failure never propagates — a
    malformed result must not fail the journal write.
    """
    total = getattr(result, "total", None)
    kernels = getattr(result, "kernels", None)
    if not callable(total) or kernels is None:
        return None  # a foreign result type, by design: no digest
    try:
        agg = total()
        link_bytes = 0
        for ks in kernels:
            for row in ks.link_bytes:
                link_bytes += sum(row)
        # Self-loops (diagonal) never carry fabric bytes, so the sum is
        # exactly the directed off-diagonal traffic.
        return {
            "workload": getattr(result, "workload", None),
            "config": getattr(result, "config_label", None),
            "kernels": len(kernels),
            "sim.accesses": int(agg.accesses),
            "sim.writes": int(agg.writes),
            "mem.remote.read": int(agg.remote_reads),
            "mem.remote.write": int(agg.remote_writes),
            "remote_fraction": round(float(result.remote_fraction), 6),
            "rdc.hit": int(agg.rdc_hits),
            "rdc.miss": int(agg.rdc_misses),
            "coh.invalidate": int(agg.invalidates_sent),
            "mig.page_moves": int(agg.migrations),
            "link.bytes": int(link_bytes),
            "mem.pages_replicated": int(sum(
                getattr(result, "pages_replicated", []) or []
            )),
        }
    except Exception as exc:
        warn_once(
            "metric digest",
            f"metric digest failed and was dropped from the journal "
            f"({type(exc).__name__}: {exc}); further failures drop "
            f"their digest without this warning",
        )
        return None


__all__ = ["summarize_result"]
