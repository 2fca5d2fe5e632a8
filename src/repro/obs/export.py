"""Perfetto ``trace_event`` documents and metric dumps: the one writer.

Every ``trace_event`` JSON in the repository (loadable at
https://ui.perfetto.dev and ``chrome://tracing``) is built here, by one
of two builders sharing the process-row metadata and the document
wrapper, and written by :func:`write_trace`:

* :func:`build_chrome_trace` — one observed run on **modelled** time.
  Kernels become ``"X"`` slices on one row per GPU, the registry's
  per-kernel snapshots become ``"C"`` counter tracks, and every event
  the tracer ring retained (migrations, replications, epoch flushes,
  link faults) becomes an ``"i"`` instant.  The simulator is untimed, so
  timestamps come from :class:`repro.perf.model.PerformanceModel`:
  kernel *k*'s slice starts where kernel *k-1*'s ended and lasts the
  modelled kernel time — the quantity the paper's figures are drawn in.
* :func:`assemble_trace` — every batch of one journal on **wall**
  time, read back long after the processes are gone.  Each attempt
  (a ``start`` paired with the record that ends it, see
  :func:`journal_attempts`) is one slice on the row of the pool slot
  that ran it, labeled with slot and NUMA node, or on the runner row
  for the inline path; every journal record is also an instant on the
  runner row, and the serve job's event log, if given, is a ``serve``
  row.  An attempt that never ended — a crash victim of a killed
  batch — runs to the end of the timeline flagged ``unfinished``.

Files are replaced atomically (:func:`repro.sim.durable.atomic_write`):
an interrupted write leaves the previous file, never truncated JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.sim.durable import atomic_write

_US = 1e6  # seconds -> microseconds (trace_event timestamps are µs)

#: pid of the synthetic "serve" process row (job lifecycle instants).
PID_SERVE = 1
#: pid of the runner process row (inline attempts + journal instants).
PID_RUNNER = 2
#: Worker slot N renders as process row ``PID_WORKER_BASE + N``.
PID_WORKER_BASE = 10


def _process_rows(names: dict) -> list:
    """Name and order each process row (``{pid: label}``)."""
    rows = []
    for pid in sorted(names):
        rows.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": names[pid]},
        })
        rows.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
    return rows


def _document(names: dict, events: list, other: dict) -> dict:
    """The ``trace_event`` document: row metadata, events, ``otherData``."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": _process_rows(names) + events,
        "otherData": other,
    }


# ---------------------------------------------------------------------------
# One observed run, modelled time
# ---------------------------------------------------------------------------

def build_chrome_trace(result, config, obs) -> dict:
    """The Perfetto document for one observed run.

    ``result`` is the :class:`~repro.perf.stats.RunResult`, ``config``
    the :class:`~repro.config.SystemConfig` it ran under (needed to price
    kernel durations), ``obs`` the :class:`~repro.obs.Observability` that
    watched the run (kernel snapshots + tracer ring).
    """
    from repro.perf.model import PerformanceModel

    model = PerformanceModel(config)
    # Price every kernel individually: run_time() covers only measured
    # (non-warmup) kernels, but the timeline must align index-for-index
    # with result.kernels so counter snapshots and instants land on the
    # kernel they were recorded in.
    kernel_times = [model.kernel_time(ks) for ks in result.kernels]
    n_gpus = result.n_gpus
    # pid 0 = system (counters, system-wide instants), 1..n = GPUs.
    names = {0: f"system ({result.config_label})"}
    names.update({gpu + 1: f"GPU {gpu}" for gpu in range(n_gpus)})
    events: list = []

    # Kernel slices on modelled time.  kernel_starts[i] is the µs offset
    # of kernel i; the list is also the clock for counters and instants.
    kernel_starts: list[float] = []
    cursor = 0.0
    for i, kt in enumerate(kernel_times):
        kernel_starts.append(cursor)
        ks = result.kernels[i]
        for gpu in range(n_gpus):
            dur = kt.per_gpu[gpu] * _US
            events.append({
                "name": f"kernel {kt.kernel_id}"
                        + (" (warmup)" if ks.warmup else ""),
                "ph": "X", "pid": gpu + 1, "tid": 0,
                "ts": cursor, "dur": dur,
                "args": {
                    "kernel_id": kt.kernel_id,
                    "bottleneck": kt.bottlenecks[gpu],
                    "accesses": ks.gpus[gpu].accesses,
                    "rdc.hit": ks.gpus[gpu].rdc_hits,
                    "mem.remote.read": ks.gpus[gpu].remote_reads,
                    # Derived per-GPU egress total (sum of
                    # link.bytes{src,dst} over dst) — a Perfetto
                    # annotation, not a registry metric.
                    # lint: disable=OBS001
                    "link.out_bytes": ks.link_out_bytes(gpu),
                },
            })
        cursor += kt.time * _US

    # Per-kernel counter tracks from the registry snapshots (the "C"
    # sample is stamped at the *end* of the kernel it summarises).
    snapshots = obs.registry.kernel_snapshots if obs is not None else []
    for snap in snapshots:
        if snap.index >= len(kernel_starts):
            continue
        end_ts = (
            kernel_starts[snap.index + 1]
            if snap.index + 1 < len(kernel_starts)
            else cursor
        )
        for name, samples in sorted(snap.counters.items()):
            events.append({
                "name": name, "ph": "C", "pid": 0, "tid": 0,
                "ts": end_ts,
                # one series per rendered label key
                "args": {key or "value": v for key, v in samples.items()},
            })

    # Every retained event as an instant, placed at the start of the
    # kernel it occurred in (the simulator has no finer clock).
    for ev in obs.tracer.events() if obs is not None else ():
        ts = kernel_starts[ev.kernel] \
            if 0 <= ev.kernel < len(kernel_starts) else 0.0
        events.append({
            "name": ev.kind, "ph": "i", "s": "g" if ev.gpu < 0 else "p",
            "pid": ev.gpu + 1 if ev.gpu >= 0 else 0, "tid": 0,
            "ts": ts, "args": dict(ev.payload),
        })

    return _document(names, events, {
        "workload": result.workload,
        "config": result.config_label,
        "n_gpus": n_gpus,
        # The paper's quantity: measured (non-warmup) kernels only.
        "modelled_total_s": model.run_time(result).total_s,
        # What the timeline spans: every kernel, warmup included.
        "timeline_total_s": cursor / _US,
    })


# ---------------------------------------------------------------------------
# Every batch of one journal, wall time
# ---------------------------------------------------------------------------

#: The status each attempt-ending journal event gives its attempt;
#: ``retry`` and ``failed`` give their failure ``kind`` instead.
_END_STATUS = {"done": "ok", "cancelled": "cancelled", "retry": None,
               "failed": None}

#: Status of an attempt whose ``start`` no record of its batch closed.
UNFINISHED = "unfinished"


def _us(ts: float, t0: float) -> int:
    """Seconds-since-epoch to integer µs relative to the trace start."""
    return max(0, int(round((ts - t0) * _US)))


def journal_attempts(records: list[dict]) -> list[dict]:
    """Every attempt in *records*, in the order they started.

    A ``meta`` record opens a batch.  Within a batch each ``start`` is
    paired with the next ``done`` (status ``ok``), ``retry`` or
    ``failed`` (status: the failure ``kind``) or ``cancelled`` record of
    its key.  A ``start`` that nothing in its batch closed keeps
    ``ts_end`` None and status :data:`UNFINISHED`: its process was
    killed.  A resumed batch starts its keys afresh, so it never closes
    an earlier batch's attempt.
    """
    attempts: list[dict] = []
    open_by_key: dict[str, dict] = {}
    for record in records:
        event = record.get("event")
        key = record.get("key", "")
        if event == "meta":
            open_by_key = {}
        elif event == "start":
            # Journals written before starts carried slot and node
            # read as the inline path's -1.
            attempt = {
                "key": key,
                "attempt": record.get("attempt", 0),
                "slot": record.get("slot", -1),
                "node": record.get("node", -1),
                "ts_begin": record.get("ts", 0.0),
                "ts_end": None,
                "status": UNFINISHED,
            }
            attempts.append(attempt)
            open_by_key[key] = attempt
        elif event in _END_STATUS:
            attempt = open_by_key.pop(key, None)
            if attempt is None:
                continue
            attempt["ts_end"] = record.get("ts", attempt["ts_begin"])
            attempt["status"] = (
                _END_STATUS[event] or record.get("kind", "exception")
            )
    return attempts


def assemble_trace(
    journal_path,
    *,
    title: Optional[str] = None,
    serve_events: Optional[list[dict]] = None,
) -> dict:
    """The Perfetto document for every batch of a journal.

    A journal reused across batches (chaos rounds, ``--resume``, every
    execution of one serve config) is assembled whole, so a crash
    victim of an earlier batch stays visible.  *serve_events* adds the
    job-service lifecycle row.
    """
    # Lazy: keeps the journal (and its chaos hooks) out of the CLI's
    # start-up imports; only an assembly needs it.
    from repro.sim.journal import Journal

    journal_path = Path(journal_path)
    records: list[dict] = []
    if journal_path.exists():
        records = Journal(journal_path).records()
    attempts = journal_attempts(records)

    timestamps = [r["ts"] for r in records if "ts" in r]
    if serve_events:
        timestamps += [e["ts"] for e in serve_events if "ts" in e]
    t0 = min(timestamps) if timestamps else 0.0
    t_max = max(timestamps) if timestamps else 0.0

    events: list[dict] = []
    names: dict[int, str] = {}

    for attempt in attempts:
        slot, node = attempt["slot"], attempt["node"]
        if slot >= 0:
            pid = PID_WORKER_BASE + slot
            label = f"worker {slot:02d}"
            if node >= 0:
                label += f" (node {node})"
            names.setdefault(pid, label)
        else:
            pid = PID_RUNNER
            names.setdefault(pid, "runner")
        finished = attempt["ts_end"] is not None
        ts_end = attempt["ts_end"] if finished else t_max
        events.append({
            "name": f"attempt {attempt['key']} #{attempt['attempt']}",
            "cat": "attempt" if finished else "attempt,unfinished",
            "ph": "X",
            "pid": pid,
            "tid": 1,
            "ts": _us(attempt["ts_begin"], t0),
            "dur": max(1, _us(ts_end, t0) - _us(attempt["ts_begin"], t0)),
            "args": {
                "key": attempt["key"],
                "attempt": attempt["attempt"],
                "status": attempt["status"],
            },
        })

    for record in records:
        event = record.get("event", "")
        if event == "meta" or "ts" not in record:
            continue
        events.append({
            "name": f"{event} {record.get('key', '')}".strip(),
            "cat": "journal",
            "ph": "i",
            "s": "p",
            "pid": PID_RUNNER,
            "tid": 1,
            "ts": _us(record["ts"], t0),
            "args": {
                k: v for k, v in record.items()
                if k not in ("ts", "sum") and not isinstance(v, dict)
            },
        })
        names.setdefault(PID_RUNNER, "runner")

    for event in serve_events or ():
        if "ts" not in event:
            continue
        names.setdefault(PID_SERVE, "serve")
        events.append({
            "name": event.get("kind", "event"),
            "cat": "serve",
            "ph": "i",
            "s": "p",
            "pid": PID_SERVE,
            "tid": 1,
            "ts": _us(event["ts"], t0),
            "args": {k: v for k, v in event.items() if k != "ts"},
        })

    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return _document(names, events, {
        "title": title or journal_path.stem,
        "journal": journal_path.name,
        "batches": sum(1 for r in records if r.get("event") == "meta"),
        "attempts": len(attempts),
        "unfinished": sum(
            1 for a in attempts if a["status"] == UNFINISHED
        ),
    })


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def write_trace(path, doc: dict) -> Path:
    """Write a ``trace_event`` document as Perfetto-loadable JSON."""
    path = Path(path)
    atomic_write(path, json.dumps(doc, sort_keys=True).encode("utf-8"))
    return path


def write_metrics_json(path, obs, extra: Optional[dict] = None) -> dict:
    """Dump *obs*'s registry (totals + per-kernel snapshots) as one JSON
    file."""
    registry = obs.registry
    doc = {
        "metrics": registry.snapshot(),
        "kernel_snapshots": [
            {
                "index": s.index,
                "kernel_id": s.kernel_id,
                "counters": s.counters,
                "gauges": s.gauges,
            }
            for s in registry.kernel_snapshots
        ],
    }
    if extra:
        doc.update(extra)
    atomic_write(
        path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    )
    return doc


__all__ = [
    "PID_RUNNER",
    "PID_SERVE",
    "PID_WORKER_BASE",
    "UNFINISHED",
    "assemble_trace",
    "build_chrome_trace",
    "journal_attempts",
    "write_metrics_json",
    "write_trace",
]
