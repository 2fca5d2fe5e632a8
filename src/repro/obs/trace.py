"""Distributed trace contexts and the crash-safe span spill.

The observability layer (PR 3) is strictly per-process: a worker's ring
buffer dies with the worker.  This module adds the two pieces that make
tracing survive the serve → runner → pool fabric:

:class:`TraceContext`
    The identity carried across process boundaries — a ``trace_id``
    minted once per job/sweep plus a span id, with **deterministic**
    child-span derivation (``sha256(trace/parent/name)``), so replaying
    the same batch under the same trace yields the same span ids and
    the assembled timeline diffs cleanly.  Contexts cross the pool wire
    protocol as plain dicts (:meth:`TraceContext.to_wire`).

:class:`SpanSpill`
    An append-only JSONL span file, one per process, living in the
    journal workspace (``<journal>-spans/``).  Every record is a
    checksummed record (:func:`repro.sim.durable.seal_record`) and is
    flushed per append, so a SIGKILLed worker leaves behind every span
    it began — the chaos flight recorder reads the victim's final
    timeline straight from its spill file.  Write failures are counted,
    never raised: tracing must not be able to fail a run.

Reading a spill (:func:`read_spans`) uses the shared record scanner
(:func:`repro.sim.durable.scan_records`), so the rules are the
journal's: a torn final line is a crash mid-append and is skipped
silently; damaged interior lines are counted.
"""

from __future__ import annotations

import hashlib
import os

# Span timestamps are observability metadata stamped at append time;
# nothing deterministic is derived from them (span *ids* are derived
# from names, not clocks).  Allowlisted for DET001 in repro/lint/rules.
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.sim.durable import scan_records, seal_record

#: Event name of every spill record (the record scanner requires one).
SPAN_EVENT = "span"

#: hex digits kept of trace and span ids.
ID_LEN = 16

#: File name of the runner's own spill inside the spans directory.
RUNNER_SPILL = "runner.jsonl"  # lint: disable=OBS001 - file name, not a metric


def derive_span_id(trace_id: str, parent_id: str, name: str) -> str:
    """Deterministic child-span id: same tree position → same id."""
    basis = f"{trace_id}/{parent_id}/{name}"
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:ID_LEN]


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace tree, cheap to copy across processes."""

    trace_id: str
    span_id: str
    parent_id: str = ""

    @classmethod
    def mint(cls, seed=None) -> "TraceContext":
        """A fresh root context.

        With *seed* the trace id is derived (stable across runs — used
        by tests and the chaos drill); without, it is random, which is
        what the job service wants: two submissions of the same config
        are distinct traces.
        """
        if seed is not None:
            trace_id = hashlib.sha256(
                f"repro-trace:{seed}".encode("utf-8")
            ).hexdigest()[:ID_LEN]
        else:
            trace_id = uuid.uuid4().hex[:ID_LEN]
        return cls(trace_id, derive_span_id(trace_id, "", "root"), "")

    def child(self, name: str) -> "TraceContext":
        """The context of a child span named *name* under this span."""
        return TraceContext(
            self.trace_id,
            derive_span_id(self.trace_id, self.span_id, name),
            self.span_id,
        )

    def to_wire(self) -> dict:
        """The dict form carried over the pool wire protocol."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "TraceContext":
        return cls(
            str(wire.get("trace", "")),
            str(wire.get("span", "")),
            str(wire.get("parent", "")),
        )


def spans_dir_for(journal_path) -> Path:
    """Where a journal's span spills live (mirrors the sidecar rule)."""
    path = Path(journal_path)
    return path.parent / f"{path.stem}-spans"


def worker_spill_name(slot: int) -> str:
    return f"worker-{slot:02d}.jsonl"


class SpanSpill:
    """Append-only, checksummed, flush-per-record span file.

    Failure policy: an unwritable spill increments :attr:`dropped` and
    keeps going — span loss is reported (``trace.dropped_spans``), but
    it can never fail the run it is describing.
    """

    def __init__(self, path, *, slot: int = -1, node: int = -1):
        self.path = Path(path)
        self.slot = slot
        self.node = node
        self.spans = 0
        self.bytes_written = 0
        self.dropped = 0
        self._fh = None

    # -- writing ---------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def _append(self, record: dict) -> bool:
        line = seal_record(record) + "\n"
        try:
            fh = self._handle()
            fh.write(line)
            # Flushed per record so a SIGKILL loses at most the span
            # currently being written — and that one only as a torn
            # tail, which readers skip.
            fh.flush()
        except OSError:
            self.dropped += 1
            return False
        self.spans += 1
        self.bytes_written += len(line)
        return True

    def span_begin(self, ctx: TraceContext, name: str, *, key: str = "",
                   **payload) -> bool:
        """Record the begin edge of *ctx*'s span; flushed before return."""
        record = {
            "event": SPAN_EVENT,
            "key": key,
            "ph": "B",
            "name": name,
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent": ctx.parent_id,
            "slot": self.slot,
            "node": self.node,
            "pid": os.getpid(),
            "ts": time.time(),
        }
        record.update(payload)
        return self._append(record)

    def span_end(self, ctx: TraceContext, name: str, *, key: str = "",
                 status: str = "ok", **payload) -> bool:
        record = {
            "event": SPAN_EVENT,
            "key": key,
            "ph": "E",
            "name": name,
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent": ctx.parent_id,
            "slot": self.slot,
            "node": self.node,
            "pid": os.getpid(),
            "ts": time.time(),
            "status": status,
        }
        record.update(payload)
        return self._append(record)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "SpanSpill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_spans(path) -> tuple[list[dict], int]:
    """``(records, damaged)`` from one spill file.

    Torn-tail tolerant: an unterminated final line is crash fallout by
    definition and is skipped without counting.  Interior damage
    (undecodable / malformed / checksum-failing lines) is counted in
    ``damaged`` — the test suite asserts a SIGKILL never produces any.
    """
    scan = scan_records(path)
    spans = [r for r in scan.records if r.get("event") == SPAN_EVENT]
    return spans, scan.corrupt_records + scan.checksum_failures


def read_spans_dir(spans_dir) -> tuple[list[dict], int]:
    """All span records under a spans directory, stably ordered.

    Records are ordered by (file, position) — per-file append order is
    causal order within one process, which is what the assembler needs;
    cross-process ordering comes from timestamps at render time.
    """
    spans_dir = Path(spans_dir)
    if not spans_dir.is_dir():
        return [], 0
    records: list[dict] = []
    damaged = 0
    for path in sorted(spans_dir.glob("*.jsonl")):
        recs, bad = read_spans(path)
        records.extend(recs)
        damaged += bad
    return records, damaged


__all__ = [
    "ID_LEN",
    "RUNNER_SPILL",
    "SPAN_EVENT",
    "SpanSpill",
    "TraceContext",
    "derive_span_id",
    "read_spans",
    "read_spans_dir",
    "spans_dir_for",
    "worker_spill_name",
]
