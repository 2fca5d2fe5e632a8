"""Content-addressed result store for ``repro serve``.

A job's identity is its *configuration*, not its submission: the store
key is a truncated sha256 over the canonical JSON of

    {code_version, config_hash, system, workloads}

so two submissions of the same suite config — from different clients,
hours apart — address the same result, and a simulator change
(``CODE_VERSION`` bump) invalidates every stored result at once, the
same rule the sim-cache and baseline fingerprints already follow.

On disk the store uses the shared durable-artifact primitives of
:mod:`repro.sim.durable`:

* every result file is a checksummed envelope (``sum`` = truncated
  sha256 over the canonical JSON of the rest);
* writes are atomic (:func:`~repro.sim.durable.atomic_write`), and tmp
  files orphaned by a killed writer are swept when the store opens;
* a file that fails decode, checksum, kind or key checks on load is
  **quarantined** (moved aside to ``<key>.corrupt``), counted on
  ``serve.store_quarantined``, and treated as a miss — corruption costs
  a re-run, never a crash or a silently wrong cache hit.

The store can be **bounded** (``max_bytes``): when the total footprint
exceeds the bound, whole entries — result envelope plus journal plus
its sidecar results — are evicted least-recently-*used* first
(``load`` touches the result file's mtime), at startup and after every
write.  Evictions
count on ``serve.store_evicted``; the CAS re-runs an evicted config on
its next submission, so eviction costs time, never correctness.

Layout under the store root::

    store/
      results/<key>.json       checksummed result envelopes (the CAS)
      results/<key>.corrupt    quarantined damage (kept for forensics)
      journals/<key>.jsonl     execution journal per config: every
                               execution's attempts (report and
                               timeline source)
      journals/<key>-results/  the journal's sealed sidecar results
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Optional

from repro.sim import durable

ENVELOPE_KIND = "repro.serve_result"
ENVELOPE_SCHEMA = 1

#: hex digits kept of the sha256 key — same truncation as the sim cache.
KEY_LEN = 32


def cas_key(*, config_hash: str, code_version: int, system: str,
            workloads) -> str:
    """The content address of one suite request.

    ``config_hash`` covers every physical parameter of the simulated
    system; ``code_version`` covers the simulator implementation;
    ``system``/``workloads`` cover what the suite actually runs.
    Together they are exactly the inputs that determine the result.
    """
    basis = json.dumps(
        {
            "code_version": code_version,
            "config_hash": config_hash,
            "system": system,
            "workloads": sorted(workloads),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:KEY_LEN]


class ResultStore:
    """On-disk CAS of completed job results, keyed by :func:`cas_key`."""

    def __init__(self, root, registry=None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.journals_dir = self.root / "journals"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        self._registry = registry
        self.max_bytes = max_bytes
        # Startup GC: drop tmp files of saves killed mid-write (they are
        # not entries, so eviction would never see them), then honour a
        # newly-lowered bound (or one a crash overshot) before serving.
        durable.sweep_tmp(self.results_dir)
        self._evict()

    # -- paths -----------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def journal_path(self, key: str) -> Path:
        return self.journals_dir / f"{key}.jsonl"

    # -- CAS operations --------------------------------------------------

    def save(self, key: str, payload: dict) -> Path:
        """Store *payload* under *key*, atomically, with a checksum.

        The envelope carries the key so a file moved to the wrong name
        is detectable, and the checksum so a torn or bit-flipped file
        is detectable.
        """
        envelope = {
            "kind": ENVELOPE_KIND,
            "schema": ENVELOPE_SCHEMA,
            "key": key,
            "payload": payload,
        }
        target = self.result_path(key)
        line = durable.seal_record(envelope) + "\n"
        durable.atomic_write(target, line.encode("utf-8"))
        self._evict(protect=key)
        return target

    def load(self, key: str) -> Optional[dict]:
        """The stored payload for *key*, or ``None``.

        Undecodable / checksum-failing / mis-keyed files are quarantined
        and reported as a miss — the caller re-runs the job and the
        fresh result overwrites nothing (the corrupt file was moved
        aside).
        """
        path = self.result_path(key)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if not durable.checksum_ok(envelope):
                raise ValueError("envelope checksum mismatch")
            if envelope.get("kind") != ENVELOPE_KIND:
                raise ValueError(f"unexpected kind {envelope.get('kind')!r}")
            if envelope.get("key") != key:
                raise ValueError(
                    f"envelope key {envelope.get('key')!r} != file key "
                    f"{key!r}"
                )
            payload = envelope["payload"]
        except (ValueError, KeyError, OSError) as exc:
            if durable.quarantine(path, exc, "serve result",
                                  "the job will re-run on next submission"):
                self._count("serve.store_quarantined")
            return None
        try:
            os.utime(path)  # LRU touch: a hit is a use
        except OSError:
            pass
        return payload

    def has(self, key: str) -> bool:
        return self.result_path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.results_dir.glob("*.json"))

    def _count(self, name: str) -> None:
        if self._registry is not None:
            from repro.obs.metrics import spec_for

            self._registry.register(spec_for(name)).inc()

    # -- bounded-store GC ------------------------------------------------

    def _entry_paths(self, key: str) -> list[Path]:
        """Everything one CAS entry owns on disk."""
        journal = self.journal_path(key)
        # The sidecar directory rule of repro.sim.journal.Journal.
        sidecars = journal.parent / f"{journal.stem}-results"
        return [self.result_path(key), journal, sidecars]

    def _entry_bytes(self, key: str) -> int:
        total = 0
        for path in self._entry_paths(key):
            try:
                if path.is_dir():
                    total += sum(
                        f.stat().st_size
                        for f in path.rglob("*") if f.is_file()
                    )
                elif path.exists():
                    total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict(self, protect: Optional[str] = None) -> int:
        """LRU-evict whole entries until the footprint fits the bound.

        *protect* names a key never evicted (the one just written — a
        bound smaller than a single result must not eat the result it
        was asked to store).  Returns the number of entries evicted.
        """
        if self.max_bytes is None:
            return 0
        entries = []  # (last-use mtime, key, bytes)
        for path in self.results_dir.glob("*.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, path.stem, self._entry_bytes(path.stem)))
        entries.sort()
        total = sum(size for _, _, size in entries)
        evicted = 0
        for _, key, size in entries:
            if total <= self.max_bytes:
                break
            if key == protect:
                continue
            for path in self._entry_paths(key):
                try:
                    if path.is_dir():
                        shutil.rmtree(path, ignore_errors=True)
                    elif path.exists():
                        path.unlink()
                except OSError:
                    continue
            total -= size
            evicted += 1
            self._count("serve.store_evicted")
        return evicted


__all__ = [
    "ENVELOPE_KIND",
    "ENVELOPE_SCHEMA",
    "KEY_LEN",
    "ResultStore",
    "cas_key",
]
