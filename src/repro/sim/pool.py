"""Persistent NUMA-aware worker pool for the fault-tolerant runner.

:mod:`repro.sim.runner` used to spawn one subprocess per *attempt*,
paying the full interpreter/numpy import cost for every task.  This
module provides the execution fabric underneath the runner instead:

* **long-lived workers** — ``jobs`` subprocesses are started once per
  batch and amortize import/config cost across every task they run;
* **pipe-based task/result transport** — the parent sends
  ``(key, fn, args)`` down a duplex pipe and receives the pickled result
  back over the same pipe (results of the paper's points pickle to
  7–20 KiB, so the pipe is the only transport);
* **crash containment with respawn** — a worker that segfaults, gets
  OOM-killed, or exceeds its deadline only loses its *own* task; the
  pool respawns a replacement in its slot and the batch continues
  (the classic ``BrokenProcessPool`` failure mode cannot happen);
* **NUMA placement** — with ``pin=True`` workers are distributed
  round-robin over the host's NUMA nodes and pinned to disjoint CPU
  slices of their node via :func:`os.sched_setaffinity` (a silent no-op
  on platforms without affinity support), applying the paper's
  locality thesis to the host-side sweep fabric itself.

Scheduling policy (retries, backoff, deadlines, fail-fast, journaling)
stays in :mod:`repro.sim.runner`; this module owns only the process
mechanics.

Nothing here runs on the simulated path: results are produced by the
task callables and transported byte-identically, so pooled execution is
bit-identical to the runner's inline path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

# Fault injection for drilling the harness itself is the seeded
# ChaosPlan engine of :mod:`repro.sim.chaos` (docs/chaos.md).  The pool
# fires its hook at one fault site: task entry (worker loop).
from repro.sim.chaos import SITE_TASK as _SITE_TASK, fire as _chaos_fire


# ---------------------------------------------------------------------------
# NUMA topology & affinity planning
# ---------------------------------------------------------------------------

_SYS_NODE_DIR = Path("/sys/devices/system/node")


def parse_cpulist(text: str) -> list[int]:
    """Parse a kernel ``cpulist`` string (``"0-3,8,10-11"``) to CPU ids."""
    cpus: list[int] = []
    for chunk in text.strip().split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo, hi = chunk.split("-", 1)
            cpus.extend(range(int(lo), int(hi) + 1))
        else:
            cpus.append(int(chunk))
    return cpus


def _process_cpus() -> list[int]:
    """CPUs this process may run on (flat fallback topology)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # platform without affinity (macOS, Windows)
        return list(range(os.cpu_count() or 1))


def numa_nodes(sys_dir: Optional[Path] = None) -> list[list[int]]:
    """CPU ids grouped by NUMA node, in node order.

    Reads ``/sys/devices/system/node/node*/cpulist`` on Linux; on other
    platforms (or stripped-down containers) falls back to a single flat
    node holding every CPU the process may run on, so callers never
    need a NUMA special case.
    """
    base = sys_dir if sys_dir is not None else _SYS_NODE_DIR
    nodes: list[list[int]] = []
    try:
        node_dirs = sorted(
            (p for p in base.iterdir()
             if p.name.startswith("node") and p.name[4:].isdigit()),
            key=lambda p: int(p.name[4:]),
        )
    except OSError:
        node_dirs = []
    for node_dir in node_dirs:
        try:
            cpus = parse_cpulist((node_dir / "cpulist").read_text())
        except (OSError, ValueError):
            continue
        if cpus:
            nodes.append(cpus)
    return nodes or [_process_cpus()]


def plan_affinity(
    jobs: int,
    pin: bool,
    nodes: Optional[Sequence[Sequence[int]]] = None,
) -> list[Optional[tuple[int, ...]]]:
    """Per-worker CPU sets for *jobs* workers.

    Unpinned: every entry is ``None`` (inherit the parent's affinity).
    Pinned: workers are placed round-robin across NUMA nodes — worker
    *i* on node ``i % n_nodes`` — and the workers sharing one node split
    its CPU list into disjoint contiguous slices, so each worker's
    memory allocations and scheduling stay on one node (the
    process-per-node recipe).  When a node has fewer CPUs than workers,
    the whole node set is shared instead.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if not pin:
        return [None] * jobs
    topo = [list(n) for n in (nodes if nodes is not None else numa_nodes())]
    topo = [n for n in topo if n] or [_process_cpus()]
    per_node: dict[int, list[int]] = {}
    for worker in range(jobs):
        per_node.setdefault(worker % len(topo), []).append(worker)
    plan: list[Optional[tuple[int, ...]]] = [None] * jobs
    for node_idx, workers in per_node.items():
        cpus = topo[node_idx]
        share = len(workers)
        for rank, worker in enumerate(workers):
            if share <= len(cpus):
                lo = (rank * len(cpus)) // share
                hi = ((rank + 1) * len(cpus)) // share
                plan[worker] = tuple(cpus[lo:hi])
            else:
                plan[worker] = tuple(cpus)
    return plan


def plan_nodes(
    jobs: int,
    pin: bool,
    nodes: Optional[Sequence[Sequence[int]]] = None,
) -> list[int]:
    """The NUMA node each worker slot lands on (-1 when unpinned).

    Mirrors the round-robin placement of :func:`plan_affinity` — worker
    *i* on node ``i % n_nodes`` — so trace tracks and drill reports can
    label slots with the node they actually ran on.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if not pin:
        return [-1] * jobs
    topo = [list(n) for n in (nodes if nodes is not None else numa_nodes())]
    topo = [n for n in topo if n] or [_process_cpus()]
    return [i % len(topo) for i in range(jobs)]


def _apply_affinity(cpus: Optional[Sequence[int]]) -> None:
    """Pin the calling process; silently a no-op where unsupported."""
    if not cpus:
        return
    try:
        os.sched_setaffinity(0, set(cpus))
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

#: Wire-protocol tags (parent -> worker): ``(MSG_RUN, key, fn, args,
#: span)`` with ``span`` a trace-context wire dict or None, or
#: ``(MSG_STOP,)``.
MSG_RUN = "run"
MSG_STOP = "stop"
#: Wire-protocol tags (worker -> parent): ``(OK, payload)`` with the
#: pickled result, or ``(ERR, type, message, traceback)``.
OK = "ok"
ERR = "error"


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _worker_main(
    conn, affinity: Optional[tuple[int, ...]],
    trace_spec: Optional[dict] = None,
) -> None:
    """Long-lived worker loop: pin, then serve tasks until ``stop``/EOF.

    With *trace_spec* (``{"dir", "slot", "node"}``) each dispatched task
    that carries a trace context gets a ``task`` span in this worker's
    crash-safe spill file — the begin edge is flushed *before* the task
    (and before the chaos fault site), so a SIGKILL mid-kernel still
    leaves the victim's span on disk for the flight recorder.
    """
    _apply_affinity(affinity)
    spill = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent gone
        if message[0] != MSG_RUN:
            break
        _, key, fn, args, wire = message
        ctx = None
        if wire is not None and trace_spec is not None:
            # Imported lazily: untraced pools never touch the obs layer.
            from repro.obs.trace import SpanSpill, TraceContext, \
                worker_spill_name

            if spill is None:
                spill = SpanSpill(
                    Path(trace_spec["dir"])
                    / worker_spill_name(trace_spec["slot"]),
                    slot=trace_spec["slot"], node=trace_spec["node"],
                )
            ctx = TraceContext.from_wire(wire).child("task")
            spill.span_begin(ctx, "task", key=key)
        try:
            _chaos_fire(_SITE_TASK, key)
            result = fn(*args)
            reply = (OK, pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # report SystemExit and friends too
            reply = (
                ERR, type(exc).__name__, str(exc), traceback.format_exc()
            )
        if ctx is not None:
            status = "error" if reply[0] == ERR else "ok"
            spill.span_end(ctx, "task", key=key, status=status)
        try:
            conn.send(reply)
        except Exception:
            break  # parent gone or pipe broken; exit code tells the story
    if spill is not None:
        spill.close()
    conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def kill_process(process) -> None:
    """Terminate a process, escalating to SIGKILL if it ignores SIGTERM."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(timeout=2.0)
    if process.is_alive():
        process.kill()
        process.join()


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

@dataclass
class PoolWorker:
    """One worker slot: a process, its pipe, and its planned affinity."""

    index: int
    affinity: Optional[tuple[int, ...]]
    #: NUMA node this slot was planned onto (-1 when unpinned) — used
    #: to label the slot's track in assembled traces.
    node: int = -1
    process: Any = None
    conn: Any = None
    #: True once ``recv`` raised EOF/OSError: the pipe must never be
    #: polled again (it would be ready forever); only the process
    #: sentinel remains meaningful and crash handling fires exactly
    #: once, when the process actually exits.
    conn_dead: bool = False
    #: Tasks dispatched to this slot over the pool's lifetime (counts
    #: across respawns — it identifies the slot, not the process).
    tasks_started: int = 0
    #: Deaths since the slot last delivered a result.  The runner's
    #: crash-loop breaker reads this to stop respawning a slot that can
    #: never complete a task (poison task, broken node, OOM treadmill).
    consecutive_deaths: int = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """A fixed set of persistent worker slots with crash containment.

    The caller owns scheduling: it picks an idle worker, ``dispatch``-es
    a task to it, and consumes ``events()`` — ``("result", worker,
    message)`` and ``("died", worker, exitcode)`` tuples — deciding
    itself when to :meth:`respawn` or :meth:`reap` a dead slot and when
    to :meth:`restart_worker` one that overran its deadline.
    """

    def __init__(
        self,
        jobs: int,
        pin: bool = False,
        ctx=None,
        nodes: Optional[Sequence[Sequence[int]]] = None,
        trace_dir=None,
    ) -> None:
        if jobs <= 0:
            raise ValueError("pool size must be positive")
        self._ctx = ctx if ctx is not None else _mp_context()
        #: Spans directory passed to every worker (None = tracing off).
        self._trace_dir = str(trace_dir) if trace_dir is not None else None
        node_plan = plan_nodes(jobs, pin, nodes)
        self.workers = [
            PoolWorker(index=i, affinity=plan, node=node_plan[i])
            for i, plan in enumerate(plan_affinity(jobs, pin, nodes))
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def start(self) -> None:
        for worker in self.workers:
            self._spawn(worker)

    def _spawn(self, worker: PoolWorker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        trace_spec = None
        if self._trace_dir is not None:
            trace_spec = {"dir": self._trace_dir, "slot": worker.index,
                          "node": worker.node}
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker.affinity, trace_spec),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.conn_dead = False

    # -- dispatch -------------------------------------------------------

    def dispatch(self, worker: PoolWorker, key: str,
                 fn: Callable[..., Any], args: tuple,
                 span: Optional[dict] = None) -> bool:
        """Send one task to *worker*; False when the pipe is broken
        (caller respawns and retries on another/fresh worker).

        *span* is an optional trace-context wire dict
        (:meth:`repro.obs.trace.TraceContext.to_wire`); when present the
        worker opens a ``task`` span under it in its spill file.
        """
        try:
            worker.conn.send((MSG_RUN, key, fn, args, span))
        except (OSError, ValueError):
            return False
        worker.tasks_started += 1
        return True

    # -- events ---------------------------------------------------------

    def events(self, timeout: Optional[float]) -> list[tuple]:
        """Wait up to *timeout* seconds for worker activity.

        Returns ``("result", worker, message)`` for every complete
        reply and ``("died", worker, exitcode)`` for every worker whose
        process has exited without one.  A pipe that raises EOF while
        its worker is still dying is marked dead and excluded from all
        future waits — the slot surfaces exactly once, as ``died``, via
        the process sentinel.
        """
        objects: dict[Any, tuple[str, PoolWorker]] = {}
        for worker in self.workers:
            if worker.process is None:
                continue
            if not worker.conn_dead:
                objects[worker.conn] = ("conn", worker)
            objects[worker.process.sentinel] = ("sentinel", worker)
        if not objects:
            return []
        try:
            ready = _connection_wait(list(objects), timeout)
        except OSError:
            ready = []
        out: list[tuple] = []
        delivered: set[int] = set()
        for obj in ready:
            kind, worker = objects[obj]
            if kind != "conn":
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                worker.conn_dead = True  # crash-handled via the sentinel
                continue
            worker.consecutive_deaths = 0
            out.append(("result", worker, message))
            delivered.add(worker.index)
        for obj in ready:
            kind, worker = objects[obj]
            if kind != "sentinel" or worker.index in delivered:
                continue
            process = worker.process
            if process is None:
                continue
            # The sentinel becomes readable while the process is still
            # mid-exit (the kernel closes its fds before the zombie
            # transition), so ``is_alive`` can briefly still say True.
            # Returning "nothing happened" there makes the caller spin
            # hot — on a single-CPU host that starves the dying child
            # and stretches the window to seconds.  Join briefly so the
            # exit code materializes instead.
            process.join(timeout=1.0)
            if not worker.conn_dead:
                # A final reply can land just before the worker dies
                # (e.g. its send succeeded, then it crashed); prefer it.
                # A dead pipe also polls ready (EOF), so the death count
                # is reset only once a reply was actually received.
                try:
                    if worker.conn.poll(0):
                        message = worker.conn.recv()
                        worker.consecutive_deaths = 0
                        out.append(("result", worker, message))
                        delivered.add(worker.index)
                        continue
                except (EOFError, OSError):
                    worker.conn_dead = True
            if not process.is_alive():
                worker.consecutive_deaths += 1
                out.append(("died", worker, process.exitcode))
        return out

    # -- lifecycle ------------------------------------------------------

    def alive_count(self) -> int:
        return sum(1 for w in self.workers if w.alive)

    def reap(self, worker: PoolWorker) -> None:
        """Join a dead worker and retire its slot (no replacement)."""
        if worker.process is not None:
            worker.process.join(timeout=10.0)
        self._close(worker)

    def respawn(self, worker: PoolWorker) -> None:
        """Replace a dead worker's process in the same slot."""
        self.reap(worker)
        self._spawn(worker)

    def restart_worker(self, worker: PoolWorker) -> None:
        """Kill a (possibly hung) worker and start a replacement."""
        self.kill_worker(worker)
        self._spawn(worker)

    def kill_worker(self, worker: PoolWorker) -> None:
        """Kill a worker without replacement (deadline enforcement)."""
        if worker.process is not None:
            kill_process(worker.process)
        self._close(worker)

    def _close(self, worker: PoolWorker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        worker.process = None
        worker.conn = None
        worker.conn_dead = True

    def shutdown(self, force: bool = False) -> None:
        """Stop every worker: graceful ``stop`` + join, or kill."""
        if not force:
            for worker in self.workers:
                if worker.process is None or worker.conn is None:
                    continue
                try:
                    worker.conn.send((MSG_STOP,))
                except (OSError, ValueError):
                    pass
            for worker in self.workers:
                if worker.process is not None:
                    worker.process.join(timeout=2.0)
        for worker in self.workers:
            if worker.process is not None:
                kill_process(worker.process)
            self._close(worker)


__all__ = [
    "ERR",
    "MSG_RUN",
    "MSG_STOP",
    "OK",
    "PoolWorker",
    "WorkerPool",
    "kill_process",
    "numa_nodes",
    "parse_cpulist",
    "plan_affinity",
    "plan_nodes",
]
