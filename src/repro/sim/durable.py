"""Durable on-disk artifacts: one atomic write, one checksum, one quarantine.

The sim cache, the journal and its sidecars and the serve result
store all write through here.  Stdlib only.

* :func:`atomic_write` writes a unique ``<stem>.<pid>.<uuid8>.tmp``
  and ``os.replace``\\ s it into place: concurrent writers never share a
  tmp file, and a killed writer orphans at most its tmp, which
  :func:`sweep_tmp` removes.
* :func:`seal` wraps a binary payload as the ``RJS2`` magic, its sha256,
  then the payload; :func:`unseal` rejects anything else.  JSON records
  carry ``sum``, a truncated sha256 over the rest of the record
  (:func:`record_checksum`); a record without one fails it.
  :func:`scan_records` sorts each line of a record file as intact, torn
  tail, corrupt or checksum failure.
* :func:`quarantine` moves a damaged artifact to ``<name>.corrupt`` —
  evidence kept, reported as a miss so the work is redone — and warns
  on the first incident of each artifact kind per process; the
  ``*.corrupt`` file is the record of every incident.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

#: Record field carrying the integrity checksum (short: it is on every line).
CHECKSUM_FIELD = "sum"

#: Sealed-blob header: magic, then the 32-byte sha256 of the payload.
SEAL_MAGIC = b"RJS2"
_SEAL_HEADER = len(SEAL_MAGIC) + 32

#: Line classes of :func:`classify_line`.
INTACT = "intact"
CORRUPT = "corrupt"
CHECKSUM = "checksum"

# Artifact kinds that already warned in this process.
_warned_kinds: set = set()


def atomic_write(path: Union[str, Path], data: bytes,
                 fsync: bool = False) -> None:
    """Replace *path* with *data* in one step (parent created if needed).

    The tmp file is removed on any failure: an interrupted write
    publishes nothing and leaves nothing behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.stem}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    )
    try:
        with tmp.open("wb") as f:
            f.write(data)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def sweep_tmp(directory: Union[str, Path]) -> int:
    """Remove ``*.tmp`` files orphaned by killed writers; returns how many.

    Call it while no writer of *directory* is live (at startup or batch
    start), or a live writer's tmp could vanish before its rename.
    """
    swept = 0
    for tmp in sorted(Path(directory).glob("*.tmp")):
        try:
            tmp.unlink()
        except OSError:
            continue
        swept += 1
    return swept


def seal(payload: bytes) -> bytes:
    """Wrap *payload* as magic + sha256(payload) + payload."""
    return SEAL_MAGIC + hashlib.sha256(payload).digest() + payload


def unseal(blob: bytes) -> bytes:
    """The payload of a sealed blob; ValueError unless it verifies."""
    if blob[:len(SEAL_MAGIC)] != SEAL_MAGIC:
        raise ValueError("not a sealed blob (bad magic)")
    payload = blob[_SEAL_HEADER:]
    if hashlib.sha256(payload).digest() != blob[len(SEAL_MAGIC):_SEAL_HEADER]:
        raise ValueError("sealed payload digest mismatch")
    return payload


def record_checksum(record: dict) -> str:
    """Truncated sha256 over the record's canonical JSON minus ``sum``."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_FIELD}
    payload = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def checksum_ok(record) -> bool:
    """True when *record* is a dict whose ``sum`` verifies."""
    return (isinstance(record, dict)
            and record.get(CHECKSUM_FIELD) == record_checksum(record))


def seal_record(record: dict) -> str:
    """Stamp ``sum`` into *record*; return its canonical JSON line."""
    record[CHECKSUM_FIELD] = record_checksum(record)
    return json.dumps(record, sort_keys=True)


def classify_line(line: str) -> tuple[str, Optional[dict]]:
    """``(INTACT, record)``, or ``(CORRUPT | CHECKSUM, None)``.

    A line is a record when it decodes to an object carrying ``event``
    and ``key``; it is intact when its ``sum`` verifies.
    """
    try:
        parsed = json.loads(line)
    except ValueError:
        return CORRUPT, None
    if not (isinstance(parsed, dict) and "event" in parsed
            and "key" in parsed):
        return CORRUPT, None
    if not checksum_ok(parsed):
        return CHECKSUM, None
    return INTACT, parsed


@dataclass
class RecordScan:
    """One parsed pass over a checksummed-record file."""

    #: Every intact record, in file order.
    records: list = field(default_factory=list)
    #: Damaged unterminated final line (crash mid-append): expected.
    torn_tail: int = 0
    #: Broken non-tail lines (undecodable or malformed): not crash damage.
    corrupt_records: int = 0
    #: Complete lines whose ``sum`` is missing or does not verify.
    checksum_failures: int = 0


def scan_records(path: Union[str, Path]) -> RecordScan:
    """Classify every non-blank line of a record file (empty if unreadable).

    Only an unterminated final line can be torn — the one damage shape
    a crash mid-append produces.  If it verifies, it is intact (only its
    newline was lost).
    """
    scan = RecordScan()
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return scan
    lines = text.split("\n")
    occupied = [i for i, line in enumerate(lines) if line.strip()]
    # split() leaves "" last exactly when the text ends in a newline.
    torn_at = occupied[-1] if occupied and lines[-1] else -1
    for i in occupied:
        kind, record = classify_line(lines[i].strip())
        if record is not None:
            scan.records.append(record)
        elif i == torn_at:
            scan.torn_tail += 1
        elif kind == CHECKSUM:
            scan.checksum_failures += 1
        else:
            scan.corrupt_records += 1
    return scan


def warn_once(kind: str, message: str) -> None:
    """Issue *message* as a RuntimeWarning, once per *kind* per process."""
    if kind in _warned_kinds:
        return
    _warned_kinds.add(kind)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def quarantine(path: Union[str, Path], exc: BaseException, kind: str,
               consequence: str) -> bool:
    """Move a damaged artifact to ``<name>.corrupt`` and warn once.

    Returns whether this call moved it: False, quietly, when *path* is
    already gone (another process got there first).  *kind* names the
    artifact and keys its warn-once latch; *consequence* says what
    happens instead ("the run will be ...").
    """
    path = Path(path)
    target = path.with_suffix(".corrupt")
    try:
        path.replace(target)
    except OSError:
        return False
    warn_once(
        kind,
        f"quarantined corrupt {kind} {path.name} -> {target.name} "
        f"({type(exc).__name__}: {exc}); {consequence}.  Further "
        f"{kind} quarantines leave their *.corrupt file without a "
        f"warning.",
    )
    return True
