"""Tests for the metrics registry (repro.obs.registry / metrics)."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import METRIC_NAMES, SPECS, default_registry, spec_for
from repro.obs.registry import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricSpec,
    MetricsRegistry,
)


def _registry() -> MetricsRegistry:
    return MetricsRegistry()


def _metric(registry: MetricsRegistry, kind: str, name: str = "x.y",
            labels: tuple = (), **extra):
    """Register one spec, as the contract in repro.obs.metrics does."""
    return registry.register(MetricSpec(name, kind, "n", labels, **extra))


class TestSpec:
    def test_rejects_bad_name(self):
        with pytest.raises(MetricError):
            MetricSpec(name="Bad Name", kind=KIND_COUNTER, unit="x")

    def test_rejects_bad_kind(self):
        with pytest.raises(MetricError):
            MetricSpec(name="a.b", kind="meter", unit="x")

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(MetricError):
            MetricSpec(name="a.b", kind=KIND_HISTOGRAM, unit="x",
                       buckets=(10, 5))


class TestCounter:
    def test_inc_and_total(self):
        r = _registry()
        c = r.register(spec_for("rdc.hit"))
        c.inc(3, gpu=0)
        c.inc(2, gpu=1)
        c.inc(1, gpu=0)
        assert c.value(gpu=0) == 4
        assert c.value(gpu=1) == 2
        assert c.total() == 6

    def test_negative_increment_rejected(self):
        c = _metric(_registry(), KIND_COUNTER)
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_zero_increment_creates_no_cell(self):
        c = _metric(_registry(), KIND_COUNTER, labels=("gpu",))
        c.inc(0, gpu=3)
        assert c.values() == {}

    def test_missing_label_rejected(self):
        c = _metric(_registry(), KIND_COUNTER, labels=("gpu",))
        with pytest.raises(MetricError):
            c.inc(1)

    def test_extra_label_rejected(self):
        c = _metric(_registry(), KIND_COUNTER)
        with pytest.raises(MetricError):
            c.inc(1, gpu=0)

    def test_inc_many_bulk(self):
        c = _metric(_registry(), KIND_COUNTER, labels=("gpu",))
        c.inc_many([((0,), 5), ((1,), 7)])
        assert c.value(gpu=0) == 5
        assert c.value(gpu=1) == 7


class TestGauge:
    def test_set_overwrites(self):
        g = _metric(_registry(), KIND_GAUGE, labels=("gpu",))
        g.set(4, gpu=0)
        g.set(9, gpu=0)
        assert g.value(gpu=0) == 9


class TestHistogram:
    def test_bucket_upper_bounds_inclusive(self):
        h = _metric(_registry(), KIND_HISTOGRAM, buckets=(10, 100))
        h.observe(10)   # first bucket (inclusive)
        h.observe(11)   # second bucket
        h.observe(101)  # overflow
        state = h.values()[()]
        assert state["buckets"] == [1, 1, 1]
        assert state["count"] == 3
        assert state["sum"] == 122


class TestRegistry:
    def test_register_is_get_or_create(self):
        r = _registry()
        a = _metric(r, KIND_COUNTER)
        b = _metric(r, KIND_COUNTER)
        assert a is b

    def test_register_spec_mismatch_raises(self):
        r = _registry()
        _metric(r, KIND_COUNTER)
        with pytest.raises(MetricError):
            _metric(r, KIND_GAUGE)

    def test_contains_and_names(self):
        r = _registry()
        _metric(r, KIND_COUNTER)
        assert "x.y" in r
        assert "z.q" not in r
        assert r.names() == ["x.y"]

    def test_kernel_snapshots_are_deltas(self):
        r = _registry()
        c = _metric(r, KIND_COUNTER, labels=("gpu",))
        r.begin_kernel("k0")
        c.inc(5, gpu=0)
        r.end_kernel()
        r.begin_kernel("k1")
        c.inc(2, gpu=0)
        c.inc(3, gpu=1)
        r.end_kernel()
        snaps = r.kernel_snapshots
        assert [s.kernel_id for s in snaps] == ["k0", "k1"]
        assert snaps[0].counters["x.y"] == {"gpu=0": 5}
        assert snaps[1].counters["x.y"] == {"gpu=0": 2, "gpu=1": 3}

    def test_zero_delta_omitted_from_snapshot(self):
        r = _registry()
        c = _metric(r, KIND_COUNTER)
        r.begin_kernel("k0")
        c.inc(1)
        r.end_kernel()
        r.begin_kernel("k1")
        r.end_kernel()
        assert "x.y" not in r.kernel_snapshots[1].counters

    def test_snapshot_json_safe(self):
        r = default_registry()
        r.get("rdc.hit").inc(2, gpu=0)
        r.get("kernel.accesses").observe(500)
        json.dumps(r.snapshot())  # must not raise


class TestCatalogue:
    def test_all_specs_registered_by_default_registry(self):
        r = default_registry()
        for spec in SPECS:
            assert spec.name in r

    def test_metric_names_matches_specs(self):
        assert METRIC_NAMES == {s.name for s in SPECS}

    def test_spec_for_known_and_unknown(self):
        assert spec_for("link.bytes").labels == ("src", "dst")
        with pytest.raises(KeyError):
            spec_for("no.such.metric")

    def test_every_spec_documents_itself(self):
        for spec in SPECS:
            assert spec.description, spec.name
            assert spec.paper_ref, spec.name
            assert spec.unit, spec.name

    def test_kind_constants_cover_catalogue(self):
        kinds = {s.kind for s in SPECS}
        assert kinds <= {KIND_COUNTER, KIND_GAUGE, KIND_HISTOGRAM}
        by_kind = {
            KIND_COUNTER: Counter, KIND_GAUGE: Gauge,
            KIND_HISTOGRAM: Histogram,
        }
        r = default_registry()
        for spec in SPECS:
            assert isinstance(r.get(spec.name), by_kind[spec.kind])
