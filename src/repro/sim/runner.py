"""Fault-tolerant execution engine for simulation batches.

Reproducing the paper's figures takes hundreds of (config x workload)
runs.  One pathological point — an OOM-killed worker, a hang, a corrupt
cache entry — must not take hours of completed work with it.  This
module runs a batch of independent tasks with:

* **crash isolation** — tasks run in worker subprocesses; a segfault or
  OOM kill marks that task failed and the batch continues;
* **wall-clock timeouts** — a stuck worker is killed and reported as a
  ``timeout`` failure instead of wedging the whole sweep;
* **bounded retries** — transient failures are retried with exponential
  backoff plus deterministic jitter (:func:`backoff_s`; the schedule
  and the crash-loop breaker are module constants, not policy);
* **journaling + resume** — every state transition is appended to a
  JSONL journal (:mod:`repro.sim.journal`); a re-run with
  ``resume=True`` skips points already completed and re-runs only the
  rest;
* **structured failures** — a task that ultimately fails produces a
  :class:`FailureReport` (kind, exception type, traceback, config hash,
  attempt count) aggregated into the batch result instead of being
  swallowed or aborting the batch.

Every suite, sweep, figure and ``compare`` runs its points through
:func:`run_tasks`.  The inline path (``jobs=1``, no timeout) runs them
in-process in submission order; subprocess isolation is engaged only
for parallelism or a timeout, with bit-identical results.  Without a
policy, a failed point raises :class:`BatchFailed`.

Isolated execution runs on the **persistent worker pool** of
:mod:`repro.sim.pool`: ``jobs`` long-lived subprocesses amortize
import/config cost across tasks, results come back pickled over each
worker's pipe, and a worker that dies or overruns its deadline only
loses its own task — the pool respawns a replacement in its slot, so a
dying worker can never take unrelated tasks down with it.  With
``pin=True`` the pool additionally places workers round-robin across
NUMA nodes with per-worker CPU pinning (see ``docs/runner.md``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.obs.metrics import spec_for
from repro.obs.summary import summarize_result
from repro.obs.trace import (
    RUNNER_SPILL,
    SpanSpill,
    TraceContext,
    spans_dir_for,
)
from repro.sim import chaos
from repro.sim.journal import Journal
from repro.sim.pool import ERR, WorkerPool

#: Failure kinds carried by :class:`FailureReport`.
KIND_EXCEPTION = "exception"  # the task raised
KIND_TIMEOUT = "timeout"      # the worker exceeded the wall-clock budget
KIND_CRASH = "crash"          # the worker died without reporting back
KIND_CRASH_LOOP = "crash_loop"  # a slot died so often the breaker opened

#: Default location for journals (CI uploads this directory on failure).
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: Upper bound on one event-wait while workers run; deadlines and
#: backoff wake-ups shorten it, results interrupt it immediately.
_MAX_WAIT_S = 0.5

#: First retry delay (seconds); doubles per retry up to
#: :data:`BACKOFF_MAX_S`.
BACKOFF_BASE_S = 0.5
BACKOFF_MAX_S = 30.0
#: Fractional deterministic jitter added to each backoff delay.
BACKOFF_JITTER = 0.1
#: Crash-loop breaker: a worker slot that dies this many times
#: *consecutively* (no completed task in between) fails the batch with
#: a ``crash_loop`` FailureReport instead of respawning forever —
#: regardless of ``keep_going``, because a slot that can never complete
#: anything would otherwise burn retries on every remaining point.
MAX_SLOT_CRASHES = 5


def default_journal_dir() -> Path:
    return Path(os.environ.get(JOURNAL_DIR_ENV, ".repro-journal"))


def config_hash(config: Any) -> str:
    """Stable short hash of a configuration's repr (journal/report key)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def _stable_unit(text: str) -> float:
    """Deterministic value in [0, 1) independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_s(key: str, attempt: int) -> float:
    """Delay before retry *attempt* (attempt 1 = first retry)."""
    base = min(BACKOFF_MAX_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    # Jitter seed 0: a replayed batch retries on the same schedule.
    return base * (1.0 + BACKOFF_JITTER * _stable_unit(f"0:{key}:{attempt}"))


@dataclass(frozen=True)
class RunnerPolicy:
    """Execution policy for a batch of tasks.

    The default policy (one job, no timeout) runs tasks inline.  Any of
    ``jobs > 1`` or a ``timeout_s`` switches the batch to subprocess
    isolation; results are bit-identical either way.
    """

    #: Maximum concurrent worker processes (1 = serial).
    jobs: int = 1
    #: Per-attempt wall-clock budget in seconds (None = unbounded).
    timeout_s: Optional[float] = None
    #: Retries after the first failed attempt (0 = one attempt only),
    #: each after :func:`backoff_s`.
    retries: int = 0
    #: True: a failed point is recorded and the batch continues.
    #: False (fail-fast): the first final failure cancels the rest.
    keep_going: bool = True
    #: JSONL journal path (None disables journaling and resume).
    journal_path: Optional[Union[str, Path]] = None
    #: Skip tasks whose key the journal records as completed.
    resume: bool = False
    #: Pin pool workers round-robin across NUMA nodes with per-worker
    #: CPU affinity (isolated path only; no-op where unsupported).
    pin: bool = False
    #: Fsync journal appends and sidecar stores (power-loss durability;
    #: see ``docs/runner.md``).  Default off: flush-only already
    #: survives process crashes.
    fsync_journal: bool = False

    def validate(self) -> None:
        if self.jobs <= 0:
            raise ValueError("runner jobs must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("runner timeout must be positive")
        if self.retries < 0:
            raise ValueError("runner retries cannot be negative")
        if self.resume and self.journal_path is None:
            raise ValueError("resume requires a journal path")

    @property
    def isolated(self) -> bool:
        """Whether tasks must run in worker subprocesses."""
        return self.jobs > 1 or self.timeout_s is not None


@dataclass
class FailureReport:
    """Everything known about a task that ultimately failed."""

    key: str
    kind: str  # KIND_EXCEPTION | KIND_TIMEOUT | KIND_CRASH | KIND_CRASH_LOOP
    exception_type: str
    message: str
    traceback: str
    config_hash: str
    attempts: int
    elapsed_s: float

    def summary(self) -> str:
        return (
            f"{self.key}: {self.kind} after {self.attempts} attempt(s) "
            f"({self.exception_type}: {self.message})"
        )

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback": self.traceback,
            "config_hash": self.config_hash,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class Task:
    """One unit of work: a picklable top-level callable plus arguments."""

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    config_hash: str = ""


@dataclass
class BatchResult:
    """Outcome of a batch: results, failures, and bookkeeping."""

    results: dict[str, Any] = field(default_factory=dict)
    failures: dict[str, FailureReport] = field(default_factory=dict)
    #: Keys skipped because the journal recorded them as completed.
    resumed: list[str] = field(default_factory=list)
    #: Keys never (re)started because fail-fast aborted the batch.
    cancelled: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.cancelled


class BatchFailed(RuntimeError):
    """A point of a policy-less batch failed; carries its report."""

    def __init__(self, report: FailureReport) -> None:
        super().__init__(f"{report.summary()}\n{report.traceback}".rstrip())
        self.report = report


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

class _Telemetry:
    """Optional metric/event sink for runner lifecycle happenings.

    Wraps a :class:`repro.obs.registry.MetricsRegistry` (``runner.*``
    counters and ``pool.*`` gauges from the contract in
    :mod:`repro.obs.metrics`).  Every method is a cheap no-op when
    nothing was attached.
    """

    def __init__(self, registry, on_event=None) -> None:
        self._on_event = on_event
        #: The attached registry (also consumed by the result-digest
        #: path, which counts ``obs.digest_errors`` against it).
        self.registry = registry
        self._attempts = self._retries = self._failures = None
        self._pool_workers = self._pool_queue = self._pool_tasks = None
        if registry is not None:
            self._attempts = registry.register(spec_for("runner.attempts"))
            self._retries = registry.register(spec_for("runner.retries"))
            self._failures = registry.register(spec_for("runner.failures"))
            self._pool_workers = registry.register(spec_for("pool.workers"))
            self._pool_queue = registry.register(
                spec_for("pool.queue_depth")
            )
            self._pool_tasks = registry.register(spec_for("pool.tasks"))

    def attempt(self) -> None:
        if self._attempts is not None:
            self._attempts.inc()

    def retry(self) -> None:
        if self._retries is not None:
            self._retries.inc()

    def failure(self, kind: str) -> None:
        if self._failures is not None:
            self._failures.inc(kind=kind)

    def pool_task(self, worker: int) -> None:
        if self._pool_tasks is not None:
            self._pool_tasks.inc(worker=worker)

    def pool_state(self, workers_alive: int, queue_depth: int) -> None:
        if self._pool_workers is not None:
            self._pool_workers.set(workers_alive)
            self._pool_queue.set(queue_depth)

    def emit(self, kind: str, **data) -> None:
        """Forward one lifecycle event to the attached ``on_event``.

        The callback is observational (the serve event stream); a
        raising subscriber must never fail the batch.
        """
        if self._on_event is None:
            return
        try:
            self._on_event({"kind": kind, **data})
        except Exception:
            pass


def run_tasks(
    tasks: Sequence[Task],
    policy: Optional[RunnerPolicy] = None,
    registry=None,
    trace: Optional[TraceContext] = None,
    on_event: Optional[Callable[[dict], None]] = None,
) -> BatchResult:
    """Execute *tasks* in submission order under *policy*.

    Task failures land in :attr:`BatchResult.failures`; with no *policy*
    the batch runs fail-fast under the default one and raises
    :class:`BatchFailed` instead.

    *registry* (a :class:`repro.obs.registry.MetricsRegistry`) collects
    the ``runner.attempts`` / ``runner.retries`` / ``runner.failures``
    counters plus the pool gauges.  It is observational only — task
    scheduling, retries, and results are unaffected.

    *trace* (a :class:`repro.obs.TraceContext`) attaches distributed
    tracing (docs/tracing.md): every attempt gets a span in the
    journal-adjacent spans directory, the context is propagated over
    the pool wire protocol so workers spill their own ``task`` spans,
    and the journal ``meta`` record carries the trace id.  Requires a
    journal (the spans directory lives next to it); silently off
    otherwise.  *on_event* receives one dict per point completion
    (``point.done`` / ``point.failed``) — the serve event stream's
    feed.  Both are observational: results stay byte-identical with
    tracing on or off.
    """
    fail_fast = policy is None
    if fail_fast:
        policy = RunnerPolicy(keep_going=False)
    policy.validate()
    telem = _Telemetry(registry, on_event)
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique within a batch")

    # A chaos engine armed via the environment (docs/chaos.md) counts
    # its parent-side injections against this batch's registry.
    chaos.attach_registry(registry)
    journal = (
        Journal(
            policy.journal_path,
            fsync=policy.fsync_journal,
            registry=registry,
        )
        if policy.journal_path else None
    )
    spans_dir = None
    spill = None
    if trace is not None and journal is not None:
        spans_dir = spans_dir_for(journal.path)
        spill = SpanSpill(spans_dir / RUNNER_SPILL)
        spill_base = _spill_totals(spans_dir)
    if journal is not None:
        # Tmp sidecars orphaned by a SIGKILL mid-store (unique names,
        # so they can pile up across crashed batches) are swept here,
        # at batch start — never from store_result, whose concurrent
        # writers must not touch each other's live tmp files.
        journal.sweep_orphans()
        # Stamp the batch with its environment fingerprint (code
        # version, git sha, python) so report/regression tooling can
        # validate the provenance of every journalled digest.
        from repro.obs.baseline import environment_fingerprint

        journal.append("meta", "", fingerprint=environment_fingerprint(
            trace_id=trace.trace_id if trace is not None else None,
        ))
    batch = BatchResult()
    todo: list[Task] = []
    if policy.resume and journal is not None:
        done = journal.completed_keys()
        for task in tasks:
            if task.key in done:
                result = journal.load_result(task.key)
                if result is not None:
                    batch.results[task.key] = result
                    batch.resumed.append(task.key)
                    continue
            todo.append(task)
    else:
        todo = list(tasks)

    try:
        if policy.isolated:
            _run_isolated(todo, policy, journal, batch, telem,
                          trace=trace, spill=spill, spans_dir=spans_dir)
        else:
            _run_inline(todo, policy, journal, batch, telem,
                        trace=trace, spill=spill)
    finally:
        if spill is not None:
            spill.close()
            _account_spill(registry, spans_dir, spill_base, spill.dropped)
    # Pooled attempts land in completion order, which varies run to run;
    # re-key into submission order so a batch's outcome is byte-identical
    # regardless of jobs/pin/scheduling.
    order = {t.key: i for i, t in enumerate(tasks)}
    batch.results = {
        t.key: batch.results[t.key] for t in tasks if t.key in batch.results
    }
    batch.failures = {
        t.key: batch.failures[t.key]
        for t in tasks
        if t.key in batch.failures
    }
    batch.cancelled.sort(key=order.__getitem__)
    if fail_fast and batch.failures:
        raise BatchFailed(next(iter(batch.failures.values())))
    return batch


def _spill_totals(spans_dir: Path) -> dict[str, tuple[int, int]]:
    """Per-file ``(records, bytes)`` snapshot of a spans directory.

    Taken before and after a traced batch so the ``trace.spans`` /
    ``trace.spill_bytes`` counters reflect this batch only, even when
    the journal (and its spans directory) is reused across batches.
    """
    totals: dict[str, tuple[int, int]] = {}
    if not spans_dir.is_dir():
        return totals
    for path in sorted(spans_dir.glob("*.jsonl")):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        totals[path.name] = (data.count(b"\n"), len(data))
    return totals


def _account_spill(registry, spans_dir, base: dict, dropped: int) -> None:
    """Credit this batch's span records/bytes to the trace counters."""
    if registry is None or spans_dir is None:
        return
    spans = bytes_written = 0
    for name, (records, size) in _spill_totals(spans_dir).items():
        prev_records, prev_size = base.get(name, (0, 0))
        spans += max(0, records - prev_records)
        bytes_written += max(0, size - prev_size)
    if spans:
        registry.register(spec_for("trace.spans")).inc(spans)
    if bytes_written:
        registry.register(spec_for("trace.spill_bytes")).inc(bytes_written)
    if dropped:
        registry.register(spec_for("trace.dropped_spans")).inc(dropped)


def _record_success(
    batch: BatchResult,
    journal: Optional[Journal],
    task: Task,
    result: Any,
    attempt: int,
    elapsed_s: float,
    telem: Optional["_Telemetry"] = None,
) -> None:
    batch.results[task.key] = result
    if journal is not None:
        journal.store_result(task.key, result)
        # RunResult-shaped outcomes enrich the done record with a compact
        # metric digest (rdc.hit, link.bytes, ...) for journal greps.
        # Digest failures are counted (obs.digest_errors) not swallowed.
        metrics = summarize_result(
            result, registry=telem.registry if telem is not None else None
        )
        extra = {"metrics": metrics} if metrics is not None else {}
        journal.append(
            "done", task.key, attempt=attempt, elapsed_s=elapsed_s,
            config_hash=task.config_hash, **extra,
        )
    if telem is not None:
        telem.emit("point.done", key=task.key, attempt=attempt,
                   elapsed_s=elapsed_s)


def _record_failure(
    batch: BatchResult,
    journal: Optional[Journal],
    task: Task,
    report: FailureReport,
    telem: Optional["_Telemetry"] = None,
) -> None:
    batch.failures[task.key] = report
    if journal is not None:
        journal.append("failed", task.key, **report.to_record())
    if telem is not None:
        telem.emit("point.failed", key=task.key,
                   failure_kind=report.kind, attempts=report.attempts)


def _run_inline(
    todo: list[Task],
    policy: RunnerPolicy,
    journal: Optional[Journal],
    batch: BatchResult,
    telem: _Telemetry,
    trace: Optional[TraceContext] = None,
    spill: Optional[SpanSpill] = None,
) -> None:
    """In-process execution in submission order (the default path)."""
    for i, task in enumerate(todo):
        attempt = 1
        started = time.perf_counter()
        while True:
            if journal is not None:
                journal.append("start", task.key, attempt=attempt)
            ctx = None
            if trace is not None and spill is not None:
                ctx = trace.child(f"attempt:{task.key}#{attempt}")
                spill.span_begin(ctx, "attempt", key=task.key,
                                 attempt=attempt, slot=-1)
            telem.attempt()
            try:
                chaos.fire(chaos.SITE_TASK, task.key)
                result = task.fn(*task.args)
            except Exception as exc:
                if attempt <= policy.retries:
                    delay = backoff_s(task.key, attempt)
                    if journal is not None:
                        journal.append(
                            "retry", task.key, attempt=attempt,
                            kind=KIND_EXCEPTION,
                            exception_type=type(exc).__name__,
                            message=str(exc), backoff_s=delay,
                        )
                    if ctx is not None:
                        spill.span_end(ctx, "attempt", key=task.key,
                                       attempt=attempt, status="retry")
                    telem.retry()
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                report = FailureReport(
                    key=task.key, kind=KIND_EXCEPTION,
                    exception_type=type(exc).__name__, message=str(exc),
                    traceback=traceback.format_exc(),
                    config_hash=task.config_hash, attempts=attempt,
                    elapsed_s=time.perf_counter() - started,
                )
                if ctx is not None:
                    spill.span_end(ctx, "attempt", key=task.key,
                                   attempt=attempt, status="error")
                _record_failure(batch, journal, task, report, telem)
                telem.failure(KIND_EXCEPTION)
                if not policy.keep_going:
                    batch.cancelled.extend(t.key for t in todo[i + 1:])
                    return
                break
            else:
                if ctx is not None:
                    spill.span_end(ctx, "attempt", key=task.key,
                                   attempt=attempt, status="ok")
                _record_success(
                    batch, journal, task, result, attempt,
                    time.perf_counter() - started, telem,
                )
                break


@dataclass
class _Running:
    """One in-flight attempt (owned by the worker slot running it).

    All times are ``time.monotonic()`` — the isolated path uses exactly
    one clock domain, so ``elapsed_s`` and deadline checks can never
    skew against each other.
    """

    task: Task
    attempt: int
    started: float
    deadline: Optional[float]
    first_started: float
    #: This attempt's trace context (None when tracing is off).
    ctx: Optional[TraceContext] = None


def _run_isolated(
    todo: list[Task],
    policy: RunnerPolicy,
    journal: Optional[Journal],
    batch: BatchResult,
    telem: _Telemetry,
    trace: Optional[TraceContext] = None,
    spill: Optional[SpanSpill] = None,
    spans_dir: Optional[Path] = None,
) -> None:
    """Crash-isolated execution on the persistent worker pool."""
    if not todo:
        return
    pool = WorkerPool(min(policy.jobs, len(todo)), pin=policy.pin,
                      trace_dir=spans_dir)
    #: (task, attempt, eligible_at, first_started) awaiting a worker slot.
    pending: deque = deque((t, 1, 0.0, None) for t in todo)
    #: worker index -> the attempt it is currently executing.
    inflight: dict[int, _Running] = {}
    stop = False

    def end_span(entry: _Running, status: str) -> None:
        if spill is not None and entry.ctx is not None:
            spill.span_end(entry.ctx, "attempt", key=entry.task.key,
                           attempt=entry.attempt, status=status)

    def finish_failure(entry: _Running, kind: str, exc_type: str,
                       message: str, tb: str) -> None:
        nonlocal stop
        if entry.attempt <= policy.retries:
            delay = backoff_s(entry.task.key, entry.attempt)
            if journal is not None:
                journal.append(
                    "retry", entry.task.key, attempt=entry.attempt,
                    kind=kind, exception_type=exc_type, message=message,
                    backoff_s=delay,
                )
            pending.append((
                entry.task, entry.attempt + 1,
                time.monotonic() + delay, entry.first_started,
            ))
            telem.retry()
            return
        report = FailureReport(
            key=entry.task.key, kind=kind, exception_type=exc_type,
            message=message, traceback=tb,
            config_hash=entry.task.config_hash, attempts=entry.attempt,
            elapsed_s=time.monotonic() - entry.first_started,
        )
        _record_failure(batch, journal, entry.task, report, telem)
        telem.failure(kind)
        if not policy.keep_going:
            stop = True

    pool.start()
    try:
        while pending or inflight:
            if stop:
                # Fail-fast: cancel in-flight and queued work alike; the
                # finally-block force-shutdown kills the busy workers.
                for e in inflight.values():
                    end_span(e, "cancelled")
                batch.cancelled.extend(
                    e.task.key for e in inflight.values()
                )
                batch.cancelled.extend(t.key for t, *_ in pending)
                inflight.clear()
                pending.clear()
                break

            now = time.monotonic()
            # Dispatch eligible tasks onto idle workers.
            for worker in pool.workers:
                if not pending:
                    break
                if worker.index in inflight or not worker.alive:
                    continue
                picked = None
                for _ in range(len(pending)):
                    candidate = pending.popleft()
                    if candidate[2] > now:
                        pending.append(candidate)
                        continue
                    picked = candidate
                    break
                if picked is None:
                    break  # everything queued is still backing off
                task, attempt, _eligible, first = picked
                ctx = None
                span_wire = None
                if trace is not None and spill is not None:
                    ctx = trace.child(f"attempt:{task.key}#{attempt}")
                    span_wire = ctx.to_wire()
                if not pool.dispatch(worker, task.key, task.fn, task.args,
                                     span=span_wire):
                    # The slot died between batches; one respawn, then
                    # requeue rather than risk a hot loop.
                    pool.respawn(worker)
                    if not pool.dispatch(
                        worker, task.key, task.fn, task.args,
                        span=span_wire,
                    ):
                        pending.append((task, attempt, _eligible, first))
                        continue
                started = time.monotonic()
                inflight[worker.index] = _Running(
                    task=task, attempt=attempt, started=started,
                    deadline=(started + policy.timeout_s
                              if policy.timeout_s is not None else None),
                    first_started=first if first is not None else started,
                    ctx=ctx,
                )
                if journal is not None:
                    journal.append("start", task.key, attempt=attempt)
                if ctx is not None:
                    spill.span_begin(ctx, "attempt", key=task.key,
                                     attempt=attempt, slot=worker.index,
                                     node=worker.node)
                telem.attempt()
                telem.pool_task(worker.index)
            telem.pool_state(pool.alive_count(), len(pending))

            # Wait for results/crashes, bounded by the nearest deadline
            # or backoff wake-up.
            now = time.monotonic()
            wait_s = _MAX_WAIT_S
            for entry in inflight.values():
                if entry.deadline is not None:
                    wait_s = min(wait_s, entry.deadline - now)
            if not inflight and pending:
                wake = min(item[2] for item in pending)
                wait_s = min(wait_s, wake - now)
            for kind, worker, data in pool.events(max(0.0, wait_s)):
                entry = inflight.pop(worker.index, None)
                if kind == "result":
                    if entry is None:
                        continue  # stale reply from a cancelled slot
                    message = data
                    if message[0] == ERR:
                        _, exc_type, msg, tb = message
                        end_span(entry, "error")
                        finish_failure(
                            entry, KIND_EXCEPTION, exc_type, msg, tb
                        )
                        continue
                    try:
                        result = pickle.loads(message[1])
                    except Exception as exc:
                        end_span(entry, "error")
                        finish_failure(
                            entry, KIND_EXCEPTION, type(exc).__name__,
                            f"result transport failed: {exc}",
                            traceback.format_exc(),
                        )
                    else:
                        end_span(entry, "ok")
                        _record_success(
                            batch, journal, entry.task, result,
                            entry.attempt,
                            time.monotonic() - entry.first_started,
                            telem,
                        )
                else:  # died: segfault, OOM kill, os._exit — crash case
                    if entry is not None:
                        end_span(entry, "crash")
                        code = data
                        detail = (
                            f"killed by signal {-code}" if code is not None
                            and code < 0 else f"exit code {code}"
                        )
                        if worker.consecutive_deaths >= MAX_SLOT_CRASHES:
                            # Crash-loop breaker: this slot has died
                            # MAX_SLOT_CRASHES times without completing
                            # anything.  Respawning again would burn the
                            # whole batch through the same shredder, so
                            # fail it now with the diagnosis — even
                            # under keep_going.
                            report = FailureReport(
                                key=entry.task.key, kind=KIND_CRASH_LOOP,
                                exception_type="CrashLoop",
                                message=(
                                    f"worker slot {worker.index} died "
                                    f"{worker.consecutive_deaths} times "
                                    f"in a row without completing a task "
                                    f"(last: {detail}); breaker opened — "
                                    f"failing the batch"
                                ),
                                traceback="",
                                config_hash=entry.task.config_hash,
                                attempts=entry.attempt,
                                elapsed_s=(
                                    time.monotonic() - entry.first_started
                                ),
                            )
                            _record_failure(batch, journal, entry.task,
                                            report, telem)
                            telem.failure(KIND_CRASH_LOOP)
                            stop = True
                            continue
                        finish_failure(
                            entry, KIND_CRASH, "WorkerCrash",
                            f"worker died without a result ({detail})", "",
                        )
                    if pending or inflight:
                        pool.respawn(worker)
                    else:
                        pool.reap(worker)

            # Deadline enforcement: kill overrunning workers, replace
            # them if there is more work to run — the overrun's own
            # retry included, so it is queued before the decision.
            if policy.timeout_s is not None:
                now = time.monotonic()
                for index, entry in list(inflight.items()):
                    if entry.deadline is None or now < entry.deadline:
                        continue
                    del inflight[index]
                    end_span(entry, "timeout")
                    finish_failure(
                        entry, KIND_TIMEOUT, "WorkerTimeout",
                        f"worker exceeded {policy.timeout_s:g}s "
                        f"wall-clock budget", "",
                    )
                    worker = pool.workers[index]
                    if (pending or inflight) and not stop:
                        pool.restart_worker(worker)
                    else:
                        pool.kill_worker(worker)
    finally:
        pool.shutdown(force=stop)
        telem.pool_state(0, len(pending))
