"""``repro.obs`` — low-overhead instrumentation & tracing for the simulator.

The observability layer answers the paper's *traffic-shape* questions —
who hits in the RDC (§3), how many bytes cross which NVLink (§2.1), when
GPU-VI invalidations fire (§4.3) — as first-class, documented data
instead of end-of-run aggregates.  It has one home per kind of data:

* :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges,
  and histograms with per-kernel snapshotting.  The metric *names* are a
  stable contract declared in :mod:`repro.obs.metrics` and documented in
  ``docs/metrics.md`` (CI keeps the two in sync).
* :class:`~repro.obs.tracer.Tracer` — a ring-buffered, sampled stream of
  discrete events (:mod:`repro.obs.events`): epoch flushes, page
  migrations/replications, link-fault epochs.
* :mod:`repro.obs.export` — the one ``trace_event`` writer: an observed
  run on modelled time, or every batch of a runner journal on wall
  time (each journalled attempt one slice; ``docs/tracing.md``), both
  loadable in Perfetto; see ``docs/observability.md``.
* The :class:`~repro.obs.observe.Observability` facade — the one object
  the simulator holds.  All hooks fire on rare paths (per kernel, per
  migration), so an observed run is bit-identical to an unobserved one
  and, with tracing off, within the <5% overhead budget enforced by
  ``benchmarks/bench_hotpath.py --obs-check``.

On top of the live layer sits the *run-over-run* layer (see
``docs/regression.md``):

* :mod:`repro.obs.baseline` — schema-versioned run records (metric
  digest + perf-model times + environment fingerprint) and the
  committed ``baselines/`` store (``python -m repro baseline``).
* :mod:`repro.obs.regress` — the two-tier regression checker: bit-exact
  gates for deterministic traffic counters, tolerance bands for
  throughput/latency.
* :mod:`repro.obs.report` — ``python -m repro report``: journals +
  metrics dumps + stamped benchmark payloads rendered as one
  markdown/HTML dashboard.

Quickstart::

    from repro import carve_config, run_workload
    from repro.obs import Observability
    from repro.obs.export import build_chrome_trace, write_trace

    obs = Observability(trace=True)
    cfg = carve_config(rdc_bytes=2 << 30)
    result = run_workload("Lulesh", cfg, use_cache=False, obs=obs)
    print(obs.registry.get("rdc.hit").total())
    write_trace("lulesh.trace.json", build_chrome_trace(result, cfg, obs))

or from the CLI: ``python -m repro trace Lulesh --system carve-hwc``.
"""

from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.metrics import METRIC_NAMES, SPECS, default_registry
from repro.obs.observe import Observability
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    KernelSnapshot,
    MetricError,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.summary import summarize_result
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "KernelSnapshot",
    "METRIC_NAMES",
    "MetricError",
    "MetricSpec",
    "MetricsRegistry",
    "Observability",
    "SPECS",
    "TraceEvent",
    "Tracer",
    "default_registry",
    "summarize_result",
]
