"""Per-layer span ledger for the traced benchmark run.

The traced run wraps calls into each layer's public functions with
timers installed from this file; nothing under ``src/`` is edited, so
the untraced run measures the program exactly as shipped.

Each wrapper records one span: name, duration, and the time its child
spans (on the same thread) covered.  A span's *self time* is its
duration minus its children's.  Spans are aggregated in memory per
process.  Pool workers are forked after the wrappers are installed, so
they inherit them; a worker notices the pid change, starts an empty
ledger, and after every top-level span rewrites its totals to
``worker-<pid>.json`` in the spill directory.  The parent merges those
files when the phase ends.

Names are wrapped where the caller looks them up: ``sim/driver.py``
imports ``generate_trace`` and ``profile_sharing`` by name and
``numa/system.py`` imports ``schedule_kernel`` by name, so those module
attributes are the ones replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Optional

#: Span name -> the layer (module) its self time is charged to.
SPAN_LAYERS = {
    "sim.driver": "sim.driver",
    "workloads.generate": "workloads",
    "analysis.profile": "analysis",
    "gpu.schedule": "gpu",
    "numa.engine": "numa",
    "numa.boundary": "numa",
    "perf.model": "perf",
    "sim.cache.load": "sim.cache",
    "sim.cache.store": "sim.cache",
    "sim.runner": "sim.runner",
    "sim.pool.spawn": "sim.pool",
    "sim.pool.dispatch": "sim.pool",
    "sim.pool.wait": "sim.pool",
    "sim.pool.shutdown": "sim.pool",
    "sim.journal.append": "sim.journal",
    "sim.journal.store_result": "sim.journal",
    "serve.submit": "serve",
    "serve.wait": "serve",
    "serve.execute": "serve",
    "serve.store_load": "serve",
    "serve.store_save": "serve",
}

#: Every layer that can appear in the self-time ledger, in report order.
LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))


class Ledger:
    """In-memory span totals for one process (fork-aware)."""

    def __init__(self, spill_dir) -> None:
        self.spill_dir = Path(spill_dir)
        self.parent_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: span name -> [self_s, inclusive_s, calls]
        self.spans: dict = {}
        #: (thread ident, span name) -> self_s
        self.thread_self: dict = {}
        #: thread ident -> names of the spans that were outermost on it
        self.thread_roots: dict = {}
        self.counts: dict = {}
        #: Inclusive time of outermost spans (a worker's busy time).
        self.root_s = 0.0

    def _fresh_after_fork(self) -> None:
        # A forked worker inherits the parent's totals, a lock another
        # thread may hold and the forking thread's open spans; it keeps
        # none of them.
        if self._pid != os.getpid():
            self._reset()

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.parent_pid

    def count(self, name: str, n: float = 1) -> None:
        self._fresh_after_fork()
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        self._fresh_after_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._add(name, duration, duration - frame[0], root=not stack)

    def _add(self, name: str, duration: float, self_s: float,
             root: bool) -> None:
        ident = threading.get_ident()
        with self._lock:
            entry = self.spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += duration
            entry[2] += 1
            key = (ident, name)
            self.thread_self[key] = self.thread_self.get(key, 0.0) + self_s
            if root:
                self.thread_roots.setdefault(ident, set()).add(name)
                self.root_s += duration
        if root and self.in_worker:
            self.flush()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "root_s": self.root_s,
            }

    def flush(self) -> None:
        """Rewrite this worker's totals to its spill file (atomically)."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    def ledger_self(self, root_names) -> dict:
        """Self time per layer over the threads whose outermost spans
        include one of *root_names* (the timeline the ledger accounts)."""
        with self._lock:
            threads = {t for t, roots in self.thread_roots.items()
                       if roots & set(root_names)}
            out = {layer: 0.0 for layer in LAYERS}
            for (ident, name), self_s in self.thread_self.items():
                if ident in threads:
                    out[SPAN_LAYERS[name]] += self_s
            return out


def read_worker_spills(spill_dir) -> list:
    """Every worker's final totals from *spill_dir*."""
    out = []
    for path in sorted(Path(spill_dir).glob("worker-*.json")):
        out.append(json.loads(path.read_text(encoding="utf-8")))
    return out


def merge_totals(parent: dict, workers: list) -> dict:
    """Sum span totals and counts over the parent and its workers."""
    spans: dict = {}
    counts: dict = {}
    for part in [parent, *workers]:
        for name, (self_s, incl, calls) in part["spans"].items():
            entry = spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += incl
            entry[2] += calls
        for name, n in part["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {
        "spans": spans,
        "counts": counts,
        "worker_busy_s": sum(w["root_s"] for w in workers),
    }


def self_time_shares(layer_self: dict, wall_s: float) -> dict:
    """Each layer's self time as a share of *wall_s*, plus ``other``.

    The shares sum to exactly 1: ``other`` is whatever part of the wall
    time no span on the accounted timeline covered.
    """
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    shares = {layer: s / wall_s for layer, s in layer_self.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

def _resolve(target: str):
    """``"pkg.mod:Attr.sub"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(ledger: Ledger, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        result = ledger.call(name, fn, args, kwargs)
        if after is not None:
            after(ledger, args, result)
        return result

    timed.__perfbench_original__ = fn
    return timed


def _count_kernel(ledger, args, result) -> None:
    # run_kernel(self, kernel): count the kernel's accesses.
    ledger.count("numa.accesses", args[1].n_accesses)


def _count_cache_load(ledger, args, result) -> None:
    ledger.count("sim.cache.loads")
    if result is not None:
        ledger.count("sim.cache.hits")


#: (target, span name, post-call counter or None).  A function imported
#: by name into another module is wrapped at every name it is called by.
TARGETS = (
    ("repro.sim.driver:run_workload", "sim.driver", None),
    ("repro.sim.sweep:run_workload", "sim.driver", None),
    ("repro.sim.experiments:run_workload", "sim.driver", None),
    ("repro.sim.driver:generate_trace", "workloads.generate", None),
    ("repro.sim.driver:profile_sharing", "analysis.profile", None),
    ("repro.numa.system:schedule_kernel", "gpu.schedule", None),
    ("repro.numa.system:MultiGpuSystem.run_kernel", "numa.engine",
     _count_kernel),
    ("repro.numa.system:MultiGpuSystem.kernel_boundary", "numa.boundary",
     None),
    ("repro.perf.model:PerformanceModel.run_time", "perf.model", None),
    ("repro.perf.model:PerformanceModel.kernel_time", "perf.model", None),
    ("repro.sim.cache:load", "sim.cache.load", _count_cache_load),
    ("repro.sim.cache:store", "sim.cache.store", None),
    ("repro.sim.sweep:run_tasks", "sim.runner", None),
    ("repro.sim.experiments:run_tasks", "sim.runner", None),
    ("repro.sim.pool:WorkerPool.start", "sim.pool.spawn", None),
    ("repro.sim.pool:WorkerPool.dispatch", "sim.pool.dispatch", None),
    ("repro.sim.pool:WorkerPool.events", "sim.pool.wait", None),
    ("repro.sim.pool:WorkerPool.shutdown", "sim.pool.shutdown", None),
    ("repro.sim.journal:Journal.append", "sim.journal.append", None),
    ("repro.sim.journal:Journal.store_result", "sim.journal.store_result",
     None),
    ("repro.serve.jobs:execute_request", "serve.execute", None),
    ("repro.serve.store:ResultStore.load", "serve.store_load", None),
    ("repro.serve.store:ResultStore.save", "serve.store_save", None),
)


def install(ledger: Ledger) -> list:
    """Wrap every target; returns the patches for :func:`uninstall`."""
    patches = []
    for target, name, after in TARGETS:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(ledger, name, original, after))
        patches.append((owner, attr, original))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
