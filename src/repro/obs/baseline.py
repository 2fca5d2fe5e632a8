"""Schema-versioned run records and the committed baseline store.

A **run record** is the durable, JSON-safe identity of one simulated
(workload, system) point: the deterministic traffic digest the paper's
claims are made of (``sim.accesses``, ``rdc.hit``/``rdc.miss``,
``coh.invalidate``, ``link.bytes``, ``mig.page_moves``, the per-link
byte matrix), the modelled total time, and an **environment
fingerprint** (simulator ``CODE_VERSION``, config hash,
execution engine, git sha, python version) that says *what produced it*.

Records live in the **baseline store** — a directory (``baselines/`` at
the repository root, committed to git) with one file per point::

    baselines/<system>/<workload>.json

``python -m repro baseline record`` writes records, ``... compare``
re-runs the same points and gates them against the store with the
two-tier checker in :mod:`repro.obs.regress`, and ``... list`` shows
what the store holds.  ``docs/regression.md`` walks through the
workflow.

The record schema is versioned (:data:`SCHEMA_VERSION`); the comparator
refuses records from a future schema instead of mis-reading them.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs.summary import summarize_result
from repro.sim.cache import CODE_VERSION
from repro.sim.runner import config_hash

#: Version of the run-record schema.  Bump when the record layout
#: changes incompatibly; the comparator rejects newer-schema records.
SCHEMA_VERSION = 1

#: The ``kind`` tag every run record carries.
RECORD_KIND = "repro.run_record"

#: Default root of the committed baseline store.
DEFAULT_STORE_DIR = "baselines"

#: Digest keys gated **bit-exact** by the regression checker: integer
#: traffic counters (plus the rounded remote fraction derived from
#: them).  These are fully deterministic — identical across runs,
#: engines, and machines for the same code version and config.
DETERMINISTIC_KEYS = (
    "kernels",
    "sim.accesses",
    "sim.writes",
    "mem.remote.read",
    "mem.remote.write",
    "remote_fraction",
    "rdc.hit",
    "rdc.miss",
    "coh.invalidate",
    "mig.page_moves",
    "link.bytes",
    "mem.pages_replicated",
)


@functools.lru_cache(maxsize=1)
def git_sha() -> Optional[str]:
    """Short git revision of the simulator's checkout (best effort).

    Git runs in this package's own directory, so the answer names the
    code that runs whatever the current directory is.  Falls back to
    ``GITHUB_SHA`` (else None) when git or the checkout is unavailable
    (e.g. a CI step running from an exported tarball).  Asked once per
    process:
    the code that runs is the code loaded at start, so later commits
    cannot change the answer, and every journalled batch and serve job
    would otherwise spawn ``git``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    env = os.environ.get("GITHUB_SHA")
    return env[:12] if env else None


def environment_fingerprint(
    config=None, engine: Optional[str] = None,
) -> dict:
    """What produced a record: code version, config, engine, revision.

    ``config`` (a :class:`repro.config.SystemConfig`) contributes its
    stable hash; ``engine`` names the execution engine used.  Both are
    optional so batch-level fingerprints (runner journals) can omit
    them.
    """
    import platform

    fp = {
        "schema_version": SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "git_sha": git_sha(),
        "python": platform.python_version(),
    }
    if config is not None:
        fp["config_hash"] = config_hash(config)
    if engine is not None:
        fp["engine"] = engine
    return fp


def _link_matrix(result) -> list[list[int]]:
    """Summed directed link-byte matrix over every kernel of a run."""
    n = result.n_gpus
    matrix = [[0] * n for _ in range(n)]
    for ks in result.kernels:
        for s, row in enumerate(ks.link_bytes):
            for d, b in enumerate(row):
                matrix[s][d] += b
    return matrix


def make_run_record(
    result,
    config,
    system: str,
    workload: str,
    *,
    engine: str,
    modelled_s: float,
    recorded_at: Optional[float] = None,
) -> dict:
    """Assemble the JSON-safe run record for one executed point."""
    digest = summarize_result(result)
    if digest is None:
        raise ValueError(
            f"cannot digest result for {system}/{workload}: not a RunResult"
        )
    return {
        "kind": RECORD_KIND,
        "schema_version": SCHEMA_VERSION,
        "system": system,
        "workload": workload,
        # Record metadata, not simulated state: the timestamp never
        # feeds a gated counter.
        # lint: disable=DET001
        "recorded_at": recorded_at if recorded_at is not None else time.time(),
        "fingerprint": environment_fingerprint(config, engine),
        "deterministic": {key: digest[key] for key in DETERMINISTIC_KEYS},
        "link_matrix": _link_matrix(result),
        "perf": {"modelled_total_s": modelled_s},
    }


def validate_record(record: dict) -> list[str]:
    """Structural problems of a loaded record (empty list when sound)."""
    problems = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    if record.get("kind") != RECORD_KIND:
        problems.append(
            f"kind is {record.get('kind')!r}, expected {RECORD_KIND!r}"
        )
    version = record.get("schema_version")
    if not isinstance(version, int):
        problems.append("schema_version missing")
    elif version > SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{SCHEMA_VERSION} — upgrade the repro checkout"
        )
    for field in ("system", "workload", "fingerprint", "deterministic",
                  "perf"):
        if field not in record:
            problems.append(f"missing field {field!r}")
    return problems


def collect_run_record(
    workload: str,
    system: str,
    config,
    *,
    engine: Optional[str] = None,
) -> dict:
    """Run one point once (uncached, untimed) and build its record.

    Host time is perfbench's job (``perfbench/README.md``): a record
    holds only what the simulator computes, so it reads the same on
    every machine.
    """
    from repro.numa.system import ENGINE_VECTORIZED
    from repro.perf.model import PerformanceModel
    from repro.sim.driver import run_workload

    engine = engine or ENGINE_VECTORIZED
    result = run_workload(
        workload, config, label=system, use_cache=False, engine=engine
    )
    modelled = PerformanceModel(config).total_time_s(result)
    return make_run_record(
        result, config, system, workload,
        engine=engine, modelled_s=modelled,
    )


@dataclass(frozen=True)
class StoredBaseline:
    """One record in the store plus where it lives."""

    system: str
    workload: str
    path: Path
    record: dict


class BaselineStore:
    """The committed ``baselines/`` directory: one JSON per point."""

    def __init__(self, root=DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, system: str, workload: str) -> Path:
        return self.root / system / f"{workload}.json"

    def save(self, record: dict) -> Path:
        """Write one record (pretty-printed, stable key order)."""
        problems = validate_record(record)
        if problems:
            raise ValueError(
                "refusing to store malformed record: " + "; ".join(problems)
            )
        path = self.path_for(record["system"], record["workload"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def load(self, system: str, workload: str) -> Optional[dict]:
        """The stored record for one point (None when absent)."""
        path = self.path_for(system, workload)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def entries(self) -> list[StoredBaseline]:
        """Every record in the store, sorted by (system, workload)."""
        out = []
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*/*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            out.append(StoredBaseline(
                system=path.parent.name,
                workload=path.stem,
                path=path,
                record=record,
            ))
        return out


__all__ = [
    "BaselineStore",
    "DEFAULT_STORE_DIR",
    "DETERMINISTIC_KEYS",
    "RECORD_KIND",
    "SCHEMA_VERSION",
    "StoredBaseline",
    "collect_run_record",
    "environment_fingerprint",
    "git_sha",
    "make_run_record",
    "validate_record",
]
