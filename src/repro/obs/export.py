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
* :func:`assemble_trace` — one traced batch on **wall** time, read back
  from its artifacts long after the processes are gone: the journal's
  transitions (instants on the runner row), the span spills (the
  runner's attempt spans, one track per worker slot; each worker's
  ``task`` spans on a row labeled with slot and NUMA node), and
  optionally the serve job's event log (a ``serve`` row).  Spans whose
  end edge never reached the disk — crash victims — run to the end of
  the timeline flagged ``unfinished``: the flight-recorder view.

Files are replaced atomically (:func:`repro.sim.durable.atomic_write`):
an interrupted write leaves the previous file, never truncated JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.obs.trace import read_spans_dir, spans_dir_for
from repro.sim.durable import atomic_write

_US = 1e6  # seconds -> microseconds (trace_event timestamps are µs)

#: pid of the synthetic "serve" process row (job lifecycle instants).
PID_SERVE = 1
#: pid of the runner process row (attempt spans + journal instants).
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
# One traced batch, wall time
# ---------------------------------------------------------------------------

def _us(ts: float, t0: float) -> int:
    """Seconds-since-epoch to integer µs relative to the trace start."""
    return max(0, int(round((ts - t0) * _US)))


def _pair_spans(records: list[dict]) -> tuple[list[dict], list[dict]]:
    """Match begin/end edges; returns ``(closed, open)`` span dicts.

    A closed span carries ``ts_begin``/``ts_end``/``status``; an open
    one (end edge never written — the process died first) only
    ``ts_begin``.  Pairing is by span id; duplicate begins (a retried
    dispatch) keep the earliest begin and latest end.
    """
    begins: dict[str, dict] = {}
    closed: list[dict] = []
    for record in records:
        span_id = record.get("span", "")
        if record.get("ph") == "B":
            if span_id not in begins:
                begins[span_id] = record
        elif record.get("ph") == "E":
            begin = begins.pop(span_id, None)
            if begin is None:
                continue  # end without a begin: skip rather than guess
            closed.append({
                "begin": begin,
                "ts_begin": begin.get("ts", 0.0),
                "ts_end": record.get("ts", begin.get("ts", 0.0)),
                "status": record.get("status", "ok"),
            })
    open_spans = [
        {"begin": begin, "ts_begin": begin.get("ts", 0.0)}
        for begin in begins.values()
    ]
    return closed, open_spans


def open_spans(records: list[dict]) -> list[dict]:
    """Begin records whose end edge never hit the disk.

    On a healthy run this is empty; after a worker SIGKILL it is the
    victim's final timeline — what the chaos flight recorder reports.
    """
    _, unfinished = _pair_spans(records)
    return sorted(
        (span["begin"] for span in unfinished),
        key=lambda r: (r.get("ts", 0.0), r.get("span", "")),
    )


def _row_for(record: dict) -> tuple[int, int]:
    """``(pid, tid)`` placement of one span record."""
    name = record.get("name", "")
    slot = record.get("slot", -1)
    if name == "attempt":
        # Runner-side spans: one runner process, one track per slot so
        # concurrent attempts never overlap on a row.
        return PID_RUNNER, slot + 2 if isinstance(slot, int) else 1
    if isinstance(slot, int) and slot >= 0:
        return PID_WORKER_BASE + slot, 1
    return PID_RUNNER, 1


def _span_label(record: dict) -> str:
    name = record.get("name", "")
    key = record.get("key", "")
    if name == "attempt":
        return f"attempt {key} #{record.get('attempt', '?')}"
    if key and name == "task":
        return f"task {key}"
    return name or "span"


def assemble_trace(
    journal_path,
    *,
    title: Optional[str] = None,
    trace_id: Optional[str] = None,
    serve_events: Optional[list[dict]] = None,
) -> dict:
    """The Perfetto document for a traced batch.

    *journal_path* names the batch journal; the spans directory is
    found next to it.  A journal reused across batches (chaos rounds,
    ``--resume``) holds one trace per batch: *trace_id* keeps one of
    them, and by default every trace is assembled — a crash victim of
    an earlier round stays visible.  ``otherData["trace_ids"]`` lists
    the traces shown.  *serve_events* adds the job-service lifecycle
    row.
    """
    # Lazy: keeps the journal (and its chaos hooks) out of the CLI's
    # start-up imports; only an assembly needs it.
    from repro.sim.journal import Journal

    journal_path = Path(journal_path)
    journal_records: list[dict] = []
    if journal_path.exists():
        journal_records = Journal(journal_path).records()
    span_records, damaged = read_spans_dir(spans_dir_for(journal_path))
    if trace_id:
        span_records = [
            r for r in span_records if r.get("trace") == trace_id
        ]
    trace_ids = list(dict.fromkeys(
        r["trace"]
        for r in sorted(span_records, key=lambda r: r.get("ts", 0.0))
        if r.get("trace")
    ))

    timestamps = [r["ts"] for r in span_records if "ts" in r]
    timestamps += [r["ts"] for r in journal_records if "ts" in r]
    if serve_events:
        timestamps += [e["ts"] for e in serve_events if "ts" in e]
    t0 = min(timestamps) if timestamps else 0.0
    t_max = max(timestamps) if timestamps else 0.0

    events: list[dict] = []
    names: dict[int, str] = {}

    closed, unfinished = _pair_spans(span_records)
    for span in closed + unfinished:
        begin = span["begin"]
        pid, tid = _row_for(begin)
        if pid >= PID_WORKER_BASE:
            slot = pid - PID_WORKER_BASE
            node = begin.get("node", -1)
            label = f"worker {slot:02d}"
            if isinstance(node, int) and node >= 0:
                label += f" (node {node})"
            names.setdefault(pid, label)
        elif pid == PID_RUNNER:
            names.setdefault(pid, "runner")
        finished = "ts_end" in span
        ts_end = span["ts_end"] if finished else t_max
        args = {
            "trace_id": begin.get("trace", ""),
            "span_id": begin.get("span", ""),
            "parent_id": begin.get("parent", ""),
            "key": begin.get("key", ""),
            "status": span.get("status", "unfinished"),
        }
        if "attempt" in begin:
            args["attempt"] = begin["attempt"]
        if not finished:
            args["unfinished"] = True
        events.append({
            "name": _span_label(begin),
            "cat": "span" if finished else "span,unfinished",
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": _us(span["ts_begin"], t0),
            "dur": max(1, _us(ts_end, t0) - _us(span["ts_begin"], t0)),
            "args": args,
        })

    for record in journal_records:
        event = record.get("event", "")
        if event in ("span", "meta") or "ts" not in record:
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
        "trace_id": trace_id or "",
        "trace_ids": trace_ids,
        "journal": journal_path.name,
        "spans": len(span_records),
        "unfinished_spans": len(unfinished),
        "damaged_span_records": damaged,
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
    """Dump the registry (totals + per-kernel snapshots) as one JSON file.

    ``obs`` may be an ``Observability`` or a bare ``MetricsRegistry``.
    """
    registry = getattr(obs, "registry", obs)
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
    "assemble_trace",
    "build_chrome_trace",
    "open_spans",
    "write_metrics_json",
    "write_trace",
]
