"""Job model and asyncio execution fabric for ``repro serve``.

The service separates four concerns the batch CLI fuses together:

* **request** — :class:`JobRequest`, the validated, immutable statement
  of *what* to run (suite config + workloads + runner knobs).  Its
  :meth:`~JobRequest.cas_key` is the content address of the answer.
* **job** — :class:`Job`, one request's trip through the lifecycle
  state machine ``queued → running → done | failed | cancelled``.
* **execution** — :func:`execute_request`, a plain blocking function
  that drives :func:`repro.sim.experiments.run_suite` on the worker
  pool and shapes the result payload.  It runs on a job thread so the
  event loop keeps serving status requests while the simulator grinds.
* **scheduling** — :class:`JobService`, the asyncio manager: a bounded
  submission queue (explicit backpressure), dedup against in-flight
  jobs (coalescing) and against the CAS store (cache hits), ``pool_jobs``
  executors draining the queue, so up to ``pool_jobs`` jobs run at once
  on one shared budget of ``pool_jobs`` worker slots, and graceful
  shutdown that finishes the running jobs and cancels the rest.

Failed jobs are **never** written to the CAS: a failure is a property
of the attempt (timeout, crash, flaky machine), not of the config, so
resubmitting the same config after a failure re-runs it.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor

# Wall-clock reads in this module are service telemetry (job latency,
# timestamps shown to clients) — they never feed simulation results.
# DET001-allowlisted in repro/lint/rules.py with this justification.
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.baseline import environment_fingerprint
from repro.obs.summary import summarize_result
from repro.serve.store import ResultStore, cas_key
from repro.sim.cache import CODE_VERSION
from repro.sim.experiments import GB, config_for, experiment_configs, run_suite
from repro.sim.pool import WorkerSlots
from repro.sim.runner import RunnerPolicy, config_hash
from repro.workloads import suite

# Lifecycle states (docs/serve.md documents the full state machine).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Seconds a client turned away by a full queue is told to wait
#: (the 429 answer's ``Retry-After``).
RETRY_AFTER_S = 5

# Dedup dispositions reported back to the submitter.
DISP_NEW = "new"
DISP_COALESCED = "coalesced"
DISP_CACHED = "cached"


class RequestError(ValueError):
    """A submission payload that fails validation (HTTP 400)."""


class QueueFullError(RuntimeError):
    """The submission queue is at capacity (HTTP 429)."""


class ShuttingDownError(RuntimeError):
    """The service no longer accepts submissions (HTTP 503)."""


@dataclass(frozen=True)
class JobRequest:
    """The validated, immutable description of one suite run."""

    system: str
    workloads: tuple
    rdc_gb: float = 2.0
    use_cache: bool = True
    timeout_s: Optional[float] = None
    retries: int = 0

    @classmethod
    def from_payload(cls, payload) -> "JobRequest":
        """Build a request from a decoded JSON body, or raise
        :class:`RequestError` naming the offending field."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        known = {"system", "workloads", "rdc_gb", "use_cache",
                 "timeout_s", "retries"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RequestError(f"unknown field(s): {', '.join(unknown)}")

        system = payload.get("system")
        valid_systems = sorted(experiment_configs())
        if system not in valid_systems:
            raise RequestError(
                f"system: expected one of {valid_systems}, got {system!r}"
            )

        workloads = payload.get("workloads")
        if workloads is None:
            workloads = list(suite.all_abbrs())
        if (not isinstance(workloads, (list, tuple)) or not workloads
                or not all(isinstance(w, str) for w in workloads)):
            raise RequestError(
                "workloads: expected a non-empty list of workload "
                "abbreviations"
            )
        bad = sorted(set(workloads) - set(suite.all_abbrs()))
        if bad:
            raise RequestError(
                f"workloads: unknown abbreviation(s) {', '.join(bad)}"
            )
        repeated = sorted({w for w in workloads if workloads.count(w) > 1})
        if repeated:
            raise RequestError(
                f"workloads: {', '.join(repeated)} given more than once"
            )

        rdc_gb = payload.get("rdc_gb", 2.0)
        if not isinstance(rdc_gb, (int, float)) or isinstance(rdc_gb, bool) \
                or rdc_gb <= 0:
            raise RequestError(f"rdc_gb: expected a positive number, "
                               f"got {rdc_gb!r}")

        use_cache = payload.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise RequestError(f"use_cache: expected a boolean, "
                               f"got {use_cache!r}")

        timeout_s = payload.get("timeout_s")
        if timeout_s is not None and (
                not isinstance(timeout_s, (int, float))
                or isinstance(timeout_s, bool) or timeout_s <= 0):
            raise RequestError(f"timeout_s: expected a positive number "
                               f"or null, got {timeout_s!r}")

        retries = payload.get("retries", 0)
        if not isinstance(retries, int) or isinstance(retries, bool) \
                or retries < 0:
            raise RequestError(f"retries: expected a non-negative "
                               f"integer, got {retries!r}")

        return cls(system=system, workloads=tuple(workloads),
                   rdc_gb=float(rdc_gb), use_cache=use_cache,
                   timeout_s=timeout_s, retries=retries)

    def cas_key(self) -> str:
        """The content address of this request's result.

        ``config_for`` validates the resolved system config upfront, so
        a request that would fail deep inside the simulator fails here,
        at submission time, instead.
        """
        config = config_for(self.system, rdc_bytes=int(self.rdc_gb * GB))
        return cas_key(
            config_hash=config_hash(config),
            code_version=CODE_VERSION,
            system=self.system,
            workloads=self.workloads,
        )

    def to_payload(self) -> dict:
        return {
            "system": self.system,
            "workloads": list(self.workloads),
            "rdc_gb": self.rdc_gb,
            "use_cache": self.use_cache,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
        }


@dataclass
class Job:
    """One request's trip through the lifecycle state machine."""

    id: str
    key: str
    request: JobRequest
    state: str = QUEUED
    dedup: str = DISP_NEW
    #: Wall-clock submission time (client-facing telemetry only).
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    #: FailureReport records keyed by workload abbr (state ``failed``),
    #: or a single ``{"kind": "exception", ...}`` under ``_service`` if
    #: the executor itself blew up.
    failures: dict = field(default_factory=dict)
    cancelled_workloads: list = field(default_factory=list)
    error: Optional[str] = None
    #: Lifecycle + per-point events, in emission order, each carrying a
    #: monotonically increasing ``seq`` — the long-poll stream's source.
    events: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_payload(self) -> dict:
        payload = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "dedup": self.dedup,
            "request": self.request.to_payload(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
        }
        if self.failures:
            payload["failures"] = self.failures
        if self.cancelled_workloads:
            payload["cancelled"] = list(self.cancelled_workloads)
        if self.error:
            payload["error"] = self.error
        return payload


def execute_request(request: JobRequest, journal_path, slots: WorkerSlots,
                    *, on_event=None) -> tuple:
    """Run one request on the worker fabric (blocking).

    Returns ``(payload, suite_run)``: the JSON-safe result payload and
    the raw :class:`~repro.sim.experiments.SuiteRun` (whose ``ok`` flag
    decides done vs failed and whether the payload enters the CAS).
    The batch runs up to ``len(slots)`` pool workers, each on a slot of
    the *slots* budget it shares with concurrent jobs (one slot runs
    the batch inline).  *on_event* receives per-point completion events
    (purely observational).
    """
    t0 = time.monotonic()  # service latency only — never a sim input
    policy = RunnerPolicy(
        jobs=len(slots),
        timeout_s=request.timeout_s,
        retries=request.retries,
        keep_going=True,
        journal_path=journal_path,
    )
    run = run_suite(
        request.system,
        workloads=list(request.workloads),
        rdc_bytes=int(request.rdc_gb * GB),
        use_cache=request.use_cache,
        runner=policy,
        on_event=on_event,
        slots=slots,
    )
    elapsed = time.monotonic() - t0
    payload = {
        "system": request.system,
        "workloads": list(request.workloads),
        "rdc_gb": request.rdc_gb,
        "fingerprint": environment_fingerprint(config=run.config),
        "ok": run.ok,
        "elapsed_s": elapsed,
        "results": {
            abbr: {
                "time_s": run.time_s(abbr),
                "metrics": summarize_result(result),
            }
            for abbr, result in sorted(run.results.items())
        },
        "failures": {
            abbr: {"key": f"{request.system}/{abbr}", **report.to_record()}
            for abbr, report in sorted(run.failures.items())
        },
        "cancelled": sorted(run.cancelled),
    }
    return payload, run


#: Queue sentinel: tells one executor to exit after its current job.
_SHUTDOWN = object()


class JobService:
    """The asyncio scheduling core behind the HTTP frontend.

    ``pool_jobs`` executor coroutines drain one bounded queue, so up to
    ``pool_jobs`` jobs run at once; their batches draw pool workers
    from one :class:`~repro.sim.pool.WorkerSlots` budget of
    ``pool_jobs`` slots.  The simulator runs on the service's own job
    threads, one per executor, so the event loop stays responsive and
    store writes (on the loop's default executor) never wait behind
    jobs.  All state mutation happens on the event loop thread —
    handlers and the executors never race.
    """

    def __init__(self, store: ResultStore, *, pool_jobs: int = 2,
                 queue_depth: int = 8, registry=None,
                 pool_pin: bool = False):
        self.store = store
        self.queue_depth = queue_depth
        self.registry = registry
        #: The worker budget every job's batch draws from.
        self.slots = WorkerSlots(pool_jobs, pool_pin)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self._jobs: dict = {}        # job id -> Job
        self._active: dict = {}      # cas key -> non-terminal Job
        self._seq = 0
        self._accepting = False
        self._executors: list = []
        self._threads: Optional[ThreadPoolExecutor] = None
        # Long-poll plumbing: one shared Event per job id, swapped out
        # on every emission so all waiters wake (docs/tracing.md).
        self._signals: dict = {}     # job id -> asyncio.Event
        self._stream_clients = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._accepting = True
        self._threads = ThreadPoolExecutor(
            max_workers=len(self.slots), thread_name_prefix="repro-serve-job"
        )
        self._executors = [
            asyncio.create_task(self._run_executor(),
                                name=f"repro-serve-executor-{i}")
            for i in range(len(self.slots))
        ]

    async def stop(self) -> None:
        """Graceful shutdown: finish the running jobs, cancel the queue.

        Ordering matters: close the front door first (new submits get
        503), then mark everything still queued as cancelled, then let
        the executors drain — each reads its sentinel only after the
        job it already dequeued has finished.
        """
        self._accepting = False
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _SHUTDOWN and item.state == QUEUED:
                self._finish(item, CANCELLED)
        for _ in self._executors:
            await self._queue.put(_SHUTDOWN)
        await asyncio.gather(*self._executors)
        self._executors = []
        if self._threads is not None:
            self._threads.shutdown()
            self._threads = None
        self._set_queue_gauge()

    # -- submission ------------------------------------------------------

    def submit(self, request: JobRequest) -> tuple:
        """Admit one request; returns ``(job, disposition)``.

        The disposition is *this submission's* fate (``new``,
        ``coalesced``, ``cached``) — a coalesced submission returns the
        live job, whose own ``dedup`` records how *it* was created.
        Raises :class:`QueueFullError` (→ 429) or
        :class:`ShuttingDownError` (→ 503).  Dedup order: a live job
        with the same key wins over the CAS (it is fresher — it *is*
        the computation), the CAS wins over a new execution.
        """
        if not self._accepting:
            raise ShuttingDownError("service is shutting down")
        self._count("serve.submitted")
        key = request.cas_key()

        active = self._active.get(key)
        if active is not None and not active.terminal:
            self._count("serve.coalesced")
            self._emit(active, "job.coalesced")
            return active, DISP_COALESCED

        cached = self.store.load(key)
        if cached is not None:
            self._count("serve.deduped")
            job = self._new_job(key, request, dedup=DISP_CACHED)
            job.state = DONE
            job.result = cached
            job.finished_at = job.submitted_at
            self._count_completed(DONE)
            self._emit(job, "job.cached", key=key)
            return job, DISP_CACHED

        job = self._new_job(key, request, dedup=DISP_NEW)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            del self._jobs[job.id]
            self._count("serve.rejected")
            raise QueueFullError(
                f"submission queue full ({self.queue_depth} deep); "
                f"retry after {RETRY_AFTER_S}s"
            ) from None
        self._active[key] = job
        self._set_queue_gauge()
        self._emit(job, "job.queued")
        return job, DISP_NEW

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> list:
        return [self._jobs[i] for i in sorted(self._jobs)]

    def queue_size(self) -> int:
        return self._queue.qsize()

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- executor --------------------------------------------------------

    async def _run_executor(self) -> None:
        while True:
            item = await self._queue.get()
            self._set_queue_gauge()
            if item is _SHUTDOWN:
                return
            if item.state != QUEUED:  # cancelled while queued
                continue
            await self._execute(item)

    async def _execute(self, job: Job) -> None:
        job.state = RUNNING
        job.started_at = time.time()  # client-facing timestamp only
        self._emit(job, "job.running")
        journal_path = self.store.journal_path(job.key)
        loop = asyncio.get_running_loop()

        def forward(event: dict) -> None:
            # Runs on the executor thread: hop back to the loop thread,
            # where all job-state mutation (and waiter wakeup) lives.
            data = dict(event)
            kind = data.pop("kind", "point")
            loop.call_soon_threadsafe(
                functools.partial(self._emit, job, kind, **data)
            )

        try:
            payload, run = await loop.run_in_executor(
                self._threads, functools.partial(
                    execute_request, job.request, journal_path, self.slots,
                    on_event=forward,
                ),
            )
        except Exception as exc:  # config/runner blew up, not a point
            job.error = f"{type(exc).__name__}: {exc}"
            job.failures["_service"] = {
                "kind": "exception",
                "exception_type": type(exc).__name__,
                "message": str(exc),
            }
            self._finish(job, FAILED)
            return
        job.result = payload
        job.failures = payload["failures"]
        job.cancelled_workloads = payload["cancelled"]
        if run.ok:
            # Only fully-successful results enter the CAS: a partial
            # result must not shadow a future clean run of the config.
            await asyncio.to_thread(self.store.save, job.key, payload)
            self._finish(job, DONE)
        else:
            self._finish(job, FAILED)

    # -- internals -------------------------------------------------------

    def _new_job(self, key: str, request: JobRequest, *,
                 dedup: str) -> Job:
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:04d}-{key[:8]}",
            key=key,
            request=request,
            dedup=dedup,
            submitted_at=time.time(),  # client-facing timestamp only
        )
        self._jobs[job.id] = job
        return job

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()  # client-facing timestamp only
        if self._active.get(job.key) is job:
            del self._active[job.key]
        self._count_completed(state)
        if job.started_at is not None and state in (DONE, FAILED):
            self._observe_latency(job.finished_at - job.started_at)
        self._emit(job, f"job.{state}")

    # -- event streaming -------------------------------------------------

    def _emit(self, job: Job, kind: str, **data) -> None:
        """Append one event to the job's log and wake all waiters.

        Loop-thread only (the executor thread forwards through
        ``call_soon_threadsafe``).  The signal is popped, not cleared:
        every current waiter wakes off the old Event, the next waiter
        lazily creates a fresh one.
        """
        job.events.append({
            "seq": len(job.events) + 1,
            "ts": time.time(),  # client-facing timestamp only
            "kind": kind,
            **data,
        })
        signal = self._signals.pop(job.id, None)
        if signal is not None:
            signal.set()

    async def wait_events(self, job: Job, since: int = 0,
                          timeout_s: float = 0.0) -> list:
        """Events with ``seq > since``, long-polling up to *timeout_s*.

        Returns immediately when fresh events exist or the job is
        terminal (no more events will ever come); otherwise parks on
        the job's signal.  An empty list means "nothing yet — poll
        again with the same ``since``".
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout_s)
        self._stream_clients += 1
        self._set_stream_gauge()
        try:
            while True:
                fresh = [e for e in job.events if e["seq"] > since]
                if fresh or job.terminal:
                    return fresh
                remaining = deadline - loop.time()
                if remaining <= 0:
                    return []
                signal = self._signals.setdefault(job.id, asyncio.Event())
                try:
                    await asyncio.wait_for(signal.wait(), remaining)
                except asyncio.TimeoutError:
                    return []
        finally:
            self._stream_clients -= 1
            self._set_stream_gauge()

    @property
    def stream_clients(self) -> int:
        return self._stream_clients

    def _metric(self, name: str):
        from repro.obs.metrics import spec_for

        return self.registry.register(spec_for(name))

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self._metric(name).inc()

    def _count_completed(self, state: str) -> None:
        if self.registry is not None:
            self._metric("serve.completed").inc(state=state)

    def _set_queue_gauge(self) -> None:
        if self.registry is not None:
            self._metric("serve.queue_depth").set(self._queue.qsize())

    def _set_stream_gauge(self) -> None:
        if self.registry is not None:
            self._metric("serve.stream_clients").set(self._stream_clients)

    def _observe_latency(self, seconds: float) -> None:
        if self.registry is not None:
            self._metric("serve.latency_s").observe(seconds)


__all__ = [
    "CANCELLED",
    "DISP_CACHED",
    "DISP_COALESCED",
    "DISP_NEW",
    "DONE",
    "FAILED",
    "Job",
    "JobRequest",
    "JobService",
    "QUEUED",
    "QueueFullError",
    "RequestError",
    "RETRY_AFTER_S",
    "RUNNING",
    "ShuttingDownError",
    "TERMINAL_STATES",
    "execute_request",
]
