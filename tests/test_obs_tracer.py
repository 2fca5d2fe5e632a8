"""Tests for the ring-buffered event tracer (repro.obs.tracer/events)."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    EVENT_EPOCH_FLUSH,
    EVENT_KINDS,
    EVENT_LINK_FAULT,
    EVENT_MIGRATION,
    EVENT_REPLICATION,
)
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer


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
    def test_capacity_evicts_oldest_and_counts_drops(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.record(EVENT_MIGRATION, kernel=i)
        assert len(t) == 3
        assert t.dropped == 2
        assert [ev.kernel for ev in t.events()] == [2, 3, 4]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY

    def test_clear_resets_everything(self):
        t = Tracer(capacity=2)
        for i in range(4):
            t.record(EVENT_MIGRATION)
        t.clear()
        assert len(t) == 0 and t.dropped == 0


class TestSampling:
    def test_stride_keeps_every_nth(self):
        t = Tracer(sample_every=3)
        for i in range(9):
            t.record(EVENT_MIGRATION, kernel=i)
        assert [ev.kernel for ev in t.events()] == [0, 3, 6]

    def test_stride_counts_each_kind_separately(self):
        t = Tracer(sample_every=2)
        for i in range(4):
            t.record(EVENT_MIGRATION, kernel=i)
            t.record(EVENT_EPOCH_FLUSH, kernel=i)
        kept = [(ev.kind, ev.kernel) for ev in t.events()]
        assert kept == [
            (EVENT_MIGRATION, 0), (EVENT_EPOCH_FLUSH, 0),
            (EVENT_MIGRATION, 2), (EVENT_EPOCH_FLUSH, 2),
        ]

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(EVENT_MIGRATION)
        assert len(t) == 0 and t.dropped == 0
