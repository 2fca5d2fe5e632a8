"""Tests for the ring-buffered event tracer (repro.obs.tracer/events)."""

from __future__ import annotations

from repro.obs import tracer as tracer_mod
from repro.obs.events import (
    EVENT_EPOCH_FLUSH,
    EVENT_KINDS,
    EVENT_LINK_FAULT,
    EVENT_MIGRATION,
    EVENT_REPLICATION,
)
from repro.obs.tracer import RING_CAPACITY, Tracer


class TestTraceEvent:
    def test_event_kinds_catalogue(self):
        # discrete happenings only: per-kernel volumes live in the
        # registry's kernel snapshots
        assert EVENT_KINDS == {
            EVENT_EPOCH_FLUSH, EVENT_MIGRATION, EVENT_REPLICATION,
            EVENT_LINK_FAULT,
        }

    def test_record_keeps_payload(self):
        t = Tracer()
        t.record(EVENT_MIGRATION, kernel=3, gpu=1, page=7, src=0)
        (ev,) = t.events()
        assert (ev.kind, ev.kernel, ev.gpu) == (EVENT_MIGRATION, 3, 1)
        assert ev.payload == {"page": 7, "src": 0}


class TestRing:
    def test_capacity_evicts_oldest_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracer_mod, "RING_CAPACITY", 3)
        t = Tracer()
        for i in range(5):
            t.record(EVENT_MIGRATION, kernel=i)
        assert len(t) == 3
        assert t.dropped == 2
        assert [ev.kernel for ev in t.events()] == [2, 3, 4]

    def test_default_capacity(self):
        t = Tracer()
        for i in range(RING_CAPACITY + 1):
            t.record(EVENT_MIGRATION, kernel=i)
        assert len(t) == RING_CAPACITY and t.dropped == 1
        assert t.events()[0].kernel == 1

    def test_clear_resets_everything(self, monkeypatch):
        monkeypatch.setattr(tracer_mod, "RING_CAPACITY", 2)
        t = Tracer()
        for i in range(4):
            t.record(EVENT_MIGRATION)
        t.clear()
        assert len(t) == 0 and t.dropped == 0


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(EVENT_MIGRATION)
        assert len(t) == 0 and t.dropped == 0
