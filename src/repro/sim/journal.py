"""Crash-consistent append-only JSONL execution journal (schema v2).

The runner (:mod:`repro.sim.runner`) records one JSON object per line as
points start, retry, fail, complete or are cancelled.  A journal makes
an interrupted sweep resumable: ``--resume`` replays the journal, skips
every point whose latest terminal event is ``done`` (reloading its
pickled result from the sidecar results directory), and re-runs
everything else.  It is also the only record of a batch's attempts:
batch timelines and the chaos flight recorder are assembled from it
(:func:`repro.obs.export.assemble_trace`, ``docs/tracing.md``).

Record schema (all events carry ``event``, ``key``, ``ts`` and — since
schema v2 — a ``sum`` integrity checksum):

``meta``      {fingerprint, schema} — opens a batch: its environment
              (simulator CODE_VERSION, git sha, python); ``key`` is
              empty
``start``     {attempt, slot, node} — the pool slot the attempt was
              dispatched to and that slot's NUMA node (-1 unpinned);
              both -1 on the inline path, and readers treat a missing
              field as -1
``retry``     {attempt, kind, exception_type, message, backoff_s}
``failed``    {kind, exception_type, message, traceback, config_hash,
               attempts, elapsed_s}
``done``      {attempt, elapsed_s, config_hash, metrics?}
``cancelled`` {attempt} — fail-fast stopped the batch while this
              attempt was in flight

Within a batch every ``start`` is closed by exactly one ``retry``,
``failed``, ``done`` or ``cancelled`` record of its key, unless the
batch was killed first.

The ``meta`` fingerprint is what lets ``python -m repro report`` and the
baseline/regression tooling (``docs/regression.md``) attribute every
digest in a journal to the code revision that produced it.

Durability model (drilled end to end by ``python -m repro chaos``, see
``docs/chaos.md``); the checksum, scanner, atomic write, sealed
envelope and quarantine are the shared ones of :mod:`repro.sim.durable`:

* **Per-record checksums.**  Every line carries ``sum`` — a truncated
  sha256 over the record's canonical JSON without the ``sum`` field.  A
  record whose ``sum`` is missing or fails is dropped (and counted in
  the :class:`~repro.sim.durable.RecordScan`), never trusted: resume
  then re-runs the point, which is always safe.
* **Torn tail vs interior corruption.**  A crash mid-append tears at
  most the *final* line; that is expected damage, silently truncated
  away before the next append.  A broken line anywhere *else* — or a
  complete line failing its checksum — means something other than a
  crash touched the file, so it is skipped **loudly**: a one-shot
  ``RuntimeWarning`` naming the scan's counts.
* **Sealed sidecars.**  Results are pickled to
  ``<journal-stem>-results/<sha256(key)[:24]>.pkl`` as a sealed blob:
  magic, sha256 of the payload, payload.  ``load_result`` verifies the
  digest and quarantines any unreadable or tampered sidecar to
  ``*.corrupt`` (one-shot warning) so resume re-runs the point
  instead of resuming from garbage.
* **Opt-in fsync.**  ``Journal(..., fsync=True)`` (``suite
  --fsync-journal``) fsyncs every append and sidecar store,
  trading throughput for power-loss durability.  The default (flush
  only) already survives process crashes, which is what the drill
  attacks.

Reads are **scan-cached**: :meth:`Journal.records`, :meth:`Journal.meta`
and :meth:`Journal.completed` share one parsed snapshot keyed on
the file's (size, mtime_ns), so a resume consults the disk once, not
once per accessor.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.sim import chaos, durable
from repro.sim.durable import RecordScan
# Re-exported: journal records and sidecars use the durable formats.
from repro.sim.durable import CHECKSUM_FIELD, record_checksum
from repro.sim.durable import SEAL_MAGIC as SIDECAR_MAGIC

#: Stamped into ``meta`` records; bump on incompatible record changes.
JOURNAL_SCHEMA_VERSION = 2

def _key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:24]


class Journal:
    """One JSONL journal file plus its sidecar results directory."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.results_dir = self.path.parent / f"{self.path.stem}-results"
        self._fsync = fsync
        self._scan_cache: Optional[tuple[tuple[int, int], RecordScan]] = None
        self._tail_checked = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, event: str, key: str, **fields: Any) -> None:
        """Append one checksummed record (flushed; fsynced if opted in).

        The first append of this instance also repairs a torn tail left
        by a crashed predecessor, so a half-written line can never get
        buried under new records (where it would read as interior
        corruption instead of expected crash damage).
        """
        # Journal timestamps are observability metadata; nothing
        # deterministic is derived from them.
        # lint: disable=DET001,DET004
        record = {"event": event, "key": key, "ts": time.time(), **fields}
        if event == "meta":
            record.setdefault("schema", JOURNAL_SCHEMA_VERSION)
        line = durable.seal_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.repair_tail()
        chaos.fire(chaos.SITE_JOURNAL_APPEND, key, path=self.path, line=line)
        with self.path.open("a", encoding="utf-8") as f:
            f.write(line + "\n")
            f.flush()
            if self._fsync:
                os.fsync(f.fileno())

    def repair_tail(self) -> bool:
        """Truncate a half-written final line; True when one was cut.

        Only a crash mid-append produces one, only on the last line,
        and its content is by definition an event that never completed
        — so removal is always safe and done silently.  Checked once
        per instance: after the first append this process owns the
        tail.
        """
        if self._tail_checked:
            return False
        self._tail_checked = True
        try:
            data = self.path.read_bytes()
        except OSError:
            return False
        if not data or data.endswith(b"\n"):
            return False
        cut = data.rfind(b"\n") + 1
        tail = data[cut:].decode("utf-8", errors="replace").strip()
        if durable.classify_line(tail)[0] == durable.INTACT:
            # Only the newline was lost; finish the line instead of
            # discarding a complete, checksum-verified record.
            with self.path.open("ab") as f:
                f.write(b"\n")
            return False
        with self.path.open("rb+") as f:
            f.truncate(cut)
        return True

    def store_result(self, key: str, result: Any) -> None:
        """Pickle a completed point's result for later resumption.

        The payload is sealed (see module docstring) and written with
        :func:`~repro.sim.durable.atomic_write`: two batches completing
        the same key concurrently never share a tmp path, and a SIGKILL
        mid-write orphans at most the tmp file, which
        :meth:`sweep_orphans` removes at the next batch start.
        """
        target = self._sidecar(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        durable.atomic_write(target, durable.seal(payload),
                             fsync=self._fsync)
        chaos.fire(chaos.SITE_SIDECAR_STORE, key, path=target)

    def sweep_orphans(self) -> int:
        """Remove ``*.tmp`` leftovers of stores killed mid-write.

        Call at batch start only: a *live* concurrent batch's tmp could
        be swept mid-rename — harmless for correctness (its ``replace``
        already happened or its write is re-run) but noisy.  The runner
        calls this before submitting work.
        """
        return durable.sweep_tmp(self.results_dir)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def scan(self) -> RecordScan:
        """Parse the journal once, classifying every damaged line.

        The result is cached on the file's (size, mtime_ns): ``meta``,
        ``completed_keys`` and ``records`` in the same batch share one
        disk pass, and any append (ours or another process's) naturally
        invalidates the snapshot.
        """
        try:
            stat = os.stat(self.path)
        except OSError:
            return RecordScan()
        cache_key = (stat.st_size, stat.st_mtime_ns)
        if self._scan_cache is not None and self._scan_cache[0] == cache_key:
            return self._scan_cache[1]
        scan = self._parse()
        self._scan_cache = (cache_key, scan)
        self._warn_damage(scan)
        return scan

    def _parse(self) -> RecordScan:
        return durable.scan_records(self.path)

    def _warn_damage(self, scan: RecordScan) -> None:
        """Surface a scan's interior damage: a one-shot warning."""
        if scan.corrupt_records or scan.checksum_failures:
            durable.warn_once(
                "journal record",
                f"journal {self.path} carries damaged non-tail records "
                f"({scan.corrupt_records} unparsable, "
                f"{scan.checksum_failures} failing their checksum); they "
                f"were skipped and their points will re-run on resume, "
                f"but interior damage is not crash fallout — check the "
                f"storage.  Further incidents are not warned about.",
            )

    def records(self) -> list[dict]:
        """All intact records (see :meth:`scan` for damage handling)."""
        return self.scan().records

    def meta(self) -> Optional[dict]:
        """The latest environment fingerprint stamped into the journal.

        A journal appended to by several batches (e.g. ``--resume``)
        carries one ``meta`` record per batch; the newest wins because
        it describes the code that produced the *latest* records.
        """
        fingerprint = None
        for rec in self.records():
            if rec["event"] == "meta" and isinstance(
                    rec.get("fingerprint"), dict):
                fingerprint = rec["fingerprint"]
        return fingerprint

    def completed(self) -> dict[str, Optional[str]]:
        """Keys whose most recent terminal event is ``done``, each
        mapped to the ``config_hash`` that ``done`` record carries."""
        state: dict[str, dict] = {}
        for rec in self.records():
            if rec["event"] in ("done", "failed"):
                state[rec["key"]] = rec
        return {k: rec.get("config_hash") for k, rec in state.items()
                if rec["event"] == "done"}

    def completed_keys(self) -> set[str]:
        """Keys whose most recent terminal event is ``done``."""
        return set(self.completed())

    def load_result_bytes(self, key: str) -> Optional[bytes]:
        """Digest-verified pickled payload bytes; None when absent or
        quarantined.  The byte form is what the chaos drill compares
        across runs — equality here is the bit-identity contract."""
        return self._load(key, lambda payload: payload)

    def load_result(self, key: str) -> Optional[Any]:
        """Unpickle a stored result; None when absent or quarantined.

        Any unreadable sidecar — bad envelope, digest mismatch,
        unpicklable payload — is moved to ``*.corrupt`` (evidence
        preserved, the point re-runs on resume) with a one-shot warning,
        like every durable artifact.
        """
        return self._load(key, pickle.loads)

    def _sidecar(self, key: str) -> Path:
        return self.results_dir / f"{_key_digest(key)}.pkl"

    def _load(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        target = self._sidecar(key)
        try:
            return decode(durable.unseal(target.read_bytes()))
        except FileNotFoundError:
            return None
        except Exception as exc:
            durable.quarantine(target, exc, "journal sidecar",
                               "the point will re-run on resume")
            return None


__all__ = [
    "CHECKSUM_FIELD",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "SIDECAR_MAGIC",
    "record_checksum",
]
