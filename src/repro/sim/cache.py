"""On-disk memoisation of simulation runs.

A full-suite figure needs ~8 configurations x 20 workloads; benchmarks
live in separate processes, so results are cached on disk keyed by the
exact (workload spec, system config) pair plus a code-version stamp.
Bump :data:`CODE_VERSION` whenever simulator semantics change — stale
cache entries are then ignored.

A generated trace is an input of its workload, not of one point: every
system and RDC size with the same :func:`~repro.workloads.base.trace_key`
replays it.  Traces are therefore cached too, under ``traces/`` and keyed
by ``CODE_VERSION`` plus the trace key (:func:`load_trace` /
:func:`store_trace`), so a pool worker or serve job that never saw the
trace loads it instead of synthesising it again.

Entries are sealed pickles written atomically (:mod:`repro.sim.durable`):
a damaged entry fails its digest on load and is quarantined to
``<key>.corrupt``, so it costs a re-simulation (or a regeneration),
never a wrong result.

Set the environment variable ``REPRO_NO_CACHE=1`` to disable caching.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from pathlib import Path
from typing import Callable, Optional

from repro.config import SystemConfig
from repro.gpu.cta import WorkloadTrace
from repro.perf.stats import RunResult
from repro.sim import chaos
from repro.sim.durable import atomic_write, quarantine, seal, sweep_tmp, unseal
from repro.workloads.base import WorkloadSpec

#: Bump on any change that alters simulation results (or the shape of
#: the pickled RunResult) — and, per the VER001 lint gate, on any
#: change under the result-affecting packages, however innocuous
#: (v12: the sharing profile became one vectorised pass and the unused
#: page-table resolve paths were removed; v13: cache-line state became
#: flag ints, pages resolve at the access site only, and the driver
#: reuses the last trace; results are bit-identical; v14: entries are
#: sealed with a sha256 digest, so bare-pickle v13 entries are ignored;
#: v15: RDC sets are allocated on demand; results are bit-identical;
#: v16: L1 sets became tag-only lists and L2 sets plain dicts instead
#: of OrderedDicts; results are bit-identical).
CODE_VERSION = 16

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".simcache"

#: Subdirectory of the cache holding the generated traces.
TRACE_DIR = "traces"


def cache_dir() -> Path:
    # Cache *location* never changes result values: entries are keyed
    # on CODE_VERSION+spec+config and replay bit-identical payloads.
    override = os.environ.get("REPRO_CACHE_DIR")  # lint: disable=DET004 - cache location is result-invariant
    return Path(override) if override else _DEFAULT_DIR


def cache_enabled() -> bool:
    # Cache on/off is result-invariant by the engine-equivalence
    # contract: a cache hit replays the exact bytes a miss recomputes.
    return os.environ.get("REPRO_NO_CACHE", "") != "1"  # lint: disable=DET004 - cache on/off is result-invariant


def _key(spec: WorkloadSpec, config: SystemConfig) -> str:
    payload = f"v{CODE_VERSION}|{spec!r}|{config!r}".encode()
    return hashlib.sha256(payload).hexdigest()[:32]


def _trace_path(key: tuple) -> Path:
    digest = hashlib.sha256(f"v{CODE_VERSION}|{key!r}".encode()).hexdigest()
    return cache_dir() / TRACE_DIR / f"{digest[:32]}.pkl"


def _load(path: Path, cls: type, what: str, consequence: str):
    """The sealed *cls* object at *path*, or None when absent/corrupt.

    An entry that fails its digest, does not unpickle or is not a *cls*
    is quarantined to ``<key>.corrupt`` rather than left in place: left
    alone it would re-miss and be recomputed forever, while deleting it
    would destroy the evidence.
    """
    try:
        obj = pickle.loads(unseal(path.read_bytes()))
        if not isinstance(obj, cls):
            raise TypeError(
                f"cached object is {type(obj).__name__}, not {cls.__name__}"
            )
    except FileNotFoundError:
        return None  # absent, or raced with clear(): an ordinary miss
    except Exception as exc:
        # Unpickling can raise nearly anything on a corrupt payload;
        # every such failure is the same condition: a bad entry.
        quarantine(path, exc, what, consequence)
        return None
    return obj


def _store(path: Path, obj) -> None:
    buf = io.BytesIO()
    pickle.dump(obj, buf, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(path, seal(buf.getvalue()))


def load(spec: WorkloadSpec, config: SystemConfig) -> Optional[RunResult]:
    """Return a cached result, or None when absent/disabled/corrupt."""
    if not cache_enabled():
        return None
    return _load(cache_dir() / f"{_key(spec, config)}.pkl", RunResult,
                 "sim-cache entry", "the run will be re-simulated")


def store(spec: WorkloadSpec, config: SystemConfig, result: RunResult) -> None:
    if not cache_enabled():
        return
    path = cache_dir() / f"{_key(spec, config)}.pkl"
    _store(path, result)
    # Chaos drill hook (docs/chaos.md): a simcache_corrupt event rots
    # the entry at rest, which the quarantine path in load() must turn
    # back into a clean re-simulated miss.
    chaos.fire(chaos.SITE_SIMCACHE_STORE, getattr(spec, "name", ""),
               path=path)


def load_trace(key: tuple) -> Optional[WorkloadTrace]:
    """The cached trace of a :func:`~repro.workloads.base.trace_key`, or
    None when absent/disabled/corrupt."""
    if not cache_enabled():
        return None
    return _load(_trace_path(key), WorkloadTrace, "sim-cache trace",
                 "the trace will be regenerated")


def store_trace(key: tuple, trace: WorkloadTrace) -> None:
    """Cache *trace* under its trace key.

    Workers that miss the same key at once each store identical bytes
    through :func:`~repro.sim.durable.atomic_write`, so no lock is
    needed.  No chaos site fires here: drill schedules count result
    stores only.
    """
    if cache_enabled():
        _store(_trace_path(key), trace)


def cached(
    spec: WorkloadSpec,
    config: SystemConfig,
    compute: Callable[[], RunResult],
) -> RunResult:
    """Memoise *compute* under the (spec, config) key."""
    hit = load(spec, config)
    if hit is not None:
        return hit
    result = compute()
    store(spec, config, result)
    return result


def entries() -> list[Path]:
    """The cached runs' entry files (none when the directory is absent)."""
    d = cache_dir()
    return sorted(d.glob("*.pkl")) if d.exists() else []


def trace_entries() -> list[Path]:
    """The cached traces' entry files (none when the directory is absent)."""
    d = cache_dir() / TRACE_DIR
    return sorted(d.glob("*.pkl")) if d.exists() else []


def clear() -> int:
    """Delete every run and trace entry; returns how many files were removed.

    Also sweeps ``*.tmp`` leftovers from stores interrupted mid-write
    (killed processes can orphan their uniquely named tmp files) and
    ``*.corrupt`` quarantine files.
    """
    n = 0
    for d in (cache_dir(), cache_dir() / TRACE_DIR):
        if not d.exists():
            continue
        n += sweep_tmp(d)
        for pattern in ("*.pkl", "*.corrupt"):
            for p in d.glob(pattern):
                p.unlink(missing_ok=True)
                n += 1
    return n
