"""Named metric primitives and the :class:`MetricsRegistry`.

The observability layer treats metric names as a *stable contract*: every
counter, gauge, and histogram is registered under a dotted name with a
declared unit and label set, `docs/metrics.md` documents each one, and
``tools/check_docs.py`` fails CI when the two drift apart.

Three metric kinds exist:

* :class:`Counter` — monotonically increasing totals.  ``inc`` is the
  *bulk* mutator: the vectorized engine tallies a whole kernel in locals
  and flushes one ``inc(value=N)`` per metric, never one call per access.
* :class:`Gauge` — a point-in-time value (last write wins), e.g. the
  bandwidth scale of a faulted link or end-of-run page occupancy.
* :class:`Histogram` — fixed-bucket distribution; used for per-kernel
  quantities whose spread matters (accesses per kernel, accumulated
  latency) and for job latency.

A registry also provides *per-kernel snapshotting*: :meth:`MetricsRegistry.
begin_kernel` marks a baseline and :meth:`MetricsRegistry.end_kernel`
appends the counter deltas (plus current gauge values) to
:attr:`MetricsRegistry.kernel_snapshots`, which is what the Chrome-trace
exporter turns into per-kernel counter tracks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional


class MetricError(Exception):
    """Misuse of the metrics API (bad labels, name/kind conflicts)."""


#: Metric kinds (the ``kind`` field of :class:`MetricSpec`).
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: Names are dotted lower-case contracts: ``subsystem.metric[.sub]``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


@dataclass(frozen=True)
class MetricSpec:
    """The declared identity of one metric — the documented contract.

    ``name`` is dotted and stable (``rdc.hit``); ``labels`` is the exact
    ordered set of label names every sample must carry (``("gpu",)`` or
    ``("src", "dst")``); ``paper_ref`` names the paper figure/section the
    metric maps to, mirrored into ``docs/metrics.md``.
    """

    name: str
    kind: str
    unit: str
    labels: tuple = ()
    description: str = ""
    paper_ref: str = ""
    #: Histogram bucket upper bounds (ignored for other kinds).
    buckets: tuple = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise MetricError(
                f"metric name {self.name!r} must be dotted lower-case "
                f"(like 'rdc.hit')"
            )
        if self.kind not in (KIND_COUNTER, KIND_GAUGE, KIND_HISTOGRAM):
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if self.kind == KIND_HISTOGRAM:
            if not self.buckets:
                raise MetricError(f"histogram {self.name!r} needs buckets")
            bounds = list(self.buckets)
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise MetricError(
                    f"histogram {self.name!r} buckets must strictly increase"
                )


def label_key(spec: MetricSpec, labels: dict) -> tuple:
    """Canonical sample key: label values in declared order."""
    try:
        key = tuple(labels[name] for name in spec.labels)
    except KeyError as exc:
        raise MetricError(
            f"{spec.name}: missing label {exc.args[0]!r} "
            f"(requires {list(spec.labels)})"
        ) from None
    if len(labels) != len(spec.labels):
        extra = set(labels) - set(spec.labels)
        raise MetricError(f"{spec.name}: unexpected labels {sorted(extra)}")
    return key


def _render_key(spec: MetricSpec, key: tuple) -> str:
    """JSON-safe label key: ``"gpu=0"``, ``"src=0,dst=1"``, ``""``."""
    return ",".join(f"{n}={v}" for n, v in zip(spec.labels, key))


class Metric:
    """Base class: a spec plus per-label-key sample storage."""

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._values: dict = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def values(self) -> dict:
        """Live ``label-key tuple -> value`` mapping (do not mutate)."""
        return self._values

    def value(self, **labels):
        """One sample's value (0 / None when never touched)."""
        return self._values.get(label_key(self.spec, labels), self._zero())

    def _zero(self):
        return 0


class Counter(Metric):
    """Monotonic counter.  ``inc(value=N)`` is the bulk mutator."""

    def inc(self, value: float = 1, **labels) -> None:
        if value < 0:
            raise MetricError(f"{self.name}: counters only increase")
        if not value:
            return
        key = label_key(self.spec, labels)
        self._values[key] = self._values.get(key, 0) + value

    def inc_many(self, samples: Iterable[tuple]) -> None:
        """Bulk-add ``(label-value-tuple, delta)`` pairs in one call."""
        values = self._values
        for key, delta in samples:
            if delta < 0:
                raise MetricError(f"{self.name}: counters only increase")
            if delta:
                values[key] = values.get(key, 0) + delta

    def total(self) -> float:
        return sum(self._values.values())


class Gauge(Metric):
    """Point-in-time value; last ``set`` wins."""

    def set(self, value: float, **labels) -> None:
        self._values[label_key(self.spec, labels)] = value

    def _zero(self):
        return None


class Histogram(Metric):
    """Fixed-bucket histogram.

    ``buckets`` are inclusive upper bounds (their order is checked by
    :class:`MetricSpec`); one implicit overflow bucket catches
    everything above the last bound.  Per label key the state is
    ``[bucket_counts..., overflow]`` plus running count/sum.
    """

    def __init__(self, spec: MetricSpec) -> None:
        super().__init__(spec)
        self.bounds = tuple(spec.buckets)

    def _state(self, key: tuple) -> dict:
        state = self._values.get(key)
        if state is None:
            state = {
                "buckets": [0] * (len(self.bounds) + 1),
                "count": 0,
                "sum": 0.0,
            }
            self._values[key] = state
        return state

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def observe(self, value: float, **labels) -> None:
        state = self._state(label_key(self.spec, labels))
        state["buckets"][self._bucket_index(value)] += 1
        state["count"] += 1
        state["sum"] += value

    def _zero(self):
        return None


_KIND_CLASS = {
    KIND_COUNTER: Counter,
    KIND_GAUGE: Gauge,
    KIND_HISTOGRAM: Histogram,
}


@dataclass
class KernelSnapshot:
    """Counter deltas (and gauge values) for one executed kernel."""

    index: int
    kernel_id: int
    #: name -> {rendered-label-key: counter delta}; zero deltas omitted.
    counters: dict = field(default_factory=dict)
    #: name -> {rendered-label-key: gauge value at end of kernel}.
    gauges: dict = field(default_factory=dict)


class MetricsRegistry:
    """All metrics of one observed run, keyed by stable dotted name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._kernel_base: Optional[dict[str, dict]] = None
        self._kernel_index = -1
        self._kernel_id = -1
        #: One :class:`KernelSnapshot` per observed kernel, in order.
        self.kernel_snapshots: list[KernelSnapshot] = []

    # -- registration ---------------------------------------------------

    def register(self, spec: MetricSpec) -> Metric:
        """Create (or fetch, if the spec is identical) a metric."""
        existing = self._metrics.get(spec.name)
        if existing is not None:
            if existing.spec != spec:
                raise MetricError(
                    f"metric {spec.name!r} already registered with a "
                    f"different spec"
                )
            return existing
        metric = _KIND_CLASS[spec.kind](spec)
        self._metrics[spec.name] = metric
        return metric

    # -- access ---------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- per-kernel snapshotting ----------------------------------------

    def _counter_state(self) -> dict[str, dict]:
        return {
            name: dict(m.values())
            for name, m in self._metrics.items()
            if m.spec.kind == KIND_COUNTER
        }

    def begin_kernel(self, kernel_id: int) -> None:
        """Mark the counter baseline for the kernel about to execute."""
        self._kernel_index += 1
        self._kernel_id = kernel_id
        self._kernel_base = self._counter_state()

    def end_kernel(self) -> KernelSnapshot:
        """Append (and return) the delta snapshot since ``begin_kernel``."""
        if self._kernel_base is None:
            raise MetricError("end_kernel without a matching begin_kernel")
        snap = KernelSnapshot(index=self._kernel_index,
                              kernel_id=self._kernel_id)
        base = self._kernel_base
        for name, metric in self._metrics.items():
            spec = metric.spec
            if spec.kind == KIND_COUNTER:
                before = base.get(name, {})
                deltas = {}
                for key, value in metric.values().items():
                    delta = value - before.get(key, 0)
                    if delta:
                        deltas[_render_key(spec, key)] = delta
                if deltas:
                    snap.counters[name] = deltas
            elif spec.kind == KIND_GAUGE and metric.values():
                snap.gauges[name] = {
                    _render_key(spec, k): v
                    for k, v in metric.values().items()
                }
        self._kernel_base = None
        self.kernel_snapshots.append(snap)
        return snap

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric's current state."""
        out = {}
        for name in self.names():
            metric = self._metrics[name]
            spec = metric.spec
            if spec.kind == KIND_HISTOGRAM:
                values = {
                    _render_key(spec, k): {
                        "buckets": list(st["buckets"]),
                        "count": st["count"],
                        "sum": st["sum"],
                    }
                    for k, st in metric.values().items()
                }
            else:
                values = {
                    _render_key(spec, k): v
                    for k, v in metric.values().items()
                }
            out[name] = {
                "kind": spec.kind,
                "unit": spec.unit,
                "labels": list(spec.labels),
                "description": spec.description,
                "paper_ref": spec.paper_ref,
                "values": values,
            }
            if spec.kind == KIND_HISTOGRAM:
                out[name]["buckets"] = list(spec.buckets)
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KIND_COUNTER",
    "KIND_GAUGE",
    "KIND_HISTOGRAM",
    "KernelSnapshot",
    "Metric",
    "MetricError",
    "MetricSpec",
    "MetricsRegistry",
    "label_key",
]
