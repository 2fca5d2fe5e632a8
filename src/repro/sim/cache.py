"""On-disk memoisation of simulation runs.

A full-suite figure needs ~8 configurations x 20 workloads; benchmarks
live in separate processes, so results are cached on disk keyed by the
exact (workload spec, system config) pair plus a code-version stamp.
Bump :data:`CODE_VERSION` whenever simulator semantics change — stale
cache entries are then ignored.

Entries are sealed pickles written atomically (:mod:`repro.sim.durable`):
a damaged entry fails its digest on load and is quarantined to
``<key>.corrupt``, so it costs a re-simulation, never a wrong result.

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
#: sealed with a sha256 digest, so bare-pickle v13 entries are ignored).
CODE_VERSION = 14

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".simcache"


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


def load(spec: WorkloadSpec, config: SystemConfig) -> Optional[RunResult]:
    """Return a cached result, or None when absent/disabled/corrupt.

    An entry that fails its digest, does not unpickle or is not a
    RunResult is quarantined to ``<key>.corrupt`` rather than left in
    place: left alone it would re-miss and re-simulate forever, while
    deleting it would destroy the evidence.
    """
    if not cache_enabled():
        return None
    path = cache_dir() / f"{_key(spec, config)}.pkl"
    try:
        obj = pickle.loads(unseal(path.read_bytes()))
        if not isinstance(obj, RunResult):
            raise TypeError(
                f"cached object is {type(obj).__name__}, not RunResult"
            )
    except FileNotFoundError:
        return None  # absent, or raced with clear(): an ordinary miss
    except Exception as exc:
        # Unpickling can raise nearly anything on a corrupt payload;
        # every such failure is the same condition: a bad entry.
        quarantine(path, exc, "sim-cache entry",
                   "the run will be re-simulated")
        return None
    return obj


def store(spec: WorkloadSpec, config: SystemConfig, result: RunResult) -> None:
    if not cache_enabled():
        return
    path = cache_dir() / f"{_key(spec, config)}.pkl"
    buf = io.BytesIO()
    pickle.dump(result, buf, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(path, seal(buf.getvalue()))
    # Chaos drill hook (docs/chaos.md): a simcache_corrupt event rots
    # the entry at rest, which the quarantine path in load() must turn
    # back into a clean re-simulated miss.
    chaos.fire(chaos.SITE_SIMCACHE_STORE, getattr(spec, "name", ""),
               path=path)


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


def clear() -> int:
    """Delete every cache entry; returns how many files were removed.

    Also sweeps ``*.tmp`` leftovers from stores interrupted mid-write
    (killed processes can orphan their uniquely named tmp files) and
    ``*.corrupt`` quarantine files.
    """
    d = cache_dir()
    if not d.exists():
        return 0
    n = sweep_tmp(d)
    for pattern in ("*.pkl", "*.corrupt"):
        for p in d.glob(pattern):
            p.unlink(missing_ok=True)
            n += 1
    return n
