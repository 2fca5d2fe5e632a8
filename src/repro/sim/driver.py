"""End-to-end simulation driver.

``run_workload`` takes a workload (spec or Table II abbreviation) and a
system configuration and produces a :class:`RunResult`:

1. synthesise the trace, or reuse it: the one this process used last
   when it has the same :func:`~repro.workloads.base.trace_key`, else,
   on a cached run, the one the sim cache holds under that key,
2. profile page sharing if a software replication policy is active,
3. build the system and execute the trace,
4. attach the page-heat histogram (Unified-Memory spill model input).

Results and traces are memoised on disk (see :mod:`repro.sim.cache`)
because every figure re-prices the same runs, and all systems of a
workload replay one trace.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.sharing import profile_sharing
from repro.config import REPLICATE_NONE, SystemConfig
from repro.gpu.cta import WorkloadTrace
from repro.numa.replication import ReplicationPlan, build_replication_plan
from repro.numa.system import ENGINE_VECTORIZED, MultiGpuSystem
from repro.perf.model import PerformanceModel, RunTime
from repro.perf.stats import RunResult
from repro.sim import cache
from repro.workloads import suite
from repro.workloads.base import WorkloadSpec, generate_trace, trace_key

WorkloadLike = Union[str, WorkloadSpec]


def resolve_workload(workload: WorkloadLike) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    return suite.get(workload)


def run_workload(
    workload: WorkloadLike,
    config: SystemConfig,
    label: Optional[str] = None,
    use_cache: bool = True,
    trace: Optional[WorkloadTrace] = None,
    obs=None,
    engine: Optional[str] = None,
) -> RunResult:
    """Simulate *workload* on *config*; returns the counters.

    A pre-generated *trace* bypasses both generation and the cache (used
    by tests that need control over the exact access stream).

    A cached run (*use_cache*, no *obs*, the default engine and the
    cache enabled) that misses its result takes its trace from the
    process's last trace, else from the sim cache's trace entry, and
    generates and stores the trace only when neither has it.  Any other
    run neither reads nor writes trace entries.

    An *obs* (:class:`repro.obs.Observability`) watches the run: metrics
    and trace events land in it without changing the ``RunResult``.  An
    observed run always executes (a disk-cached result would leave the
    registry empty), so the cache is bypassed — but never written to,
    keeping cached entries equivalent to unobserved runs.

    *engine* selects the execution engine (``ENGINE_VECTORIZED`` when
    None).  Engines are counter-identical, but an explicit non-default
    engine bypasses the cache so the requested engine actually runs
    (the baseline gate relies on this to cross-check both engines).
    """
    spec = resolve_workload(workload)
    if trace is not None:
        return _execute(spec, config, label, trace, obs, engine)
    default_engine = engine in (None, ENGINE_VECTORIZED)
    if use_cache and obs is None and default_engine:
        return cache.cached(
            spec, config,
            lambda: _execute(spec, config, label, None, None, None,
                             cache_trace=True),
        )
    return _execute(spec, config, label, None, obs, engine)


class _TraceMemo:
    """The last trace this process used and its trace key.

    One entry spares an in-process batch (inline suites, figures,
    ``compare`` and sweeps, all submitted workload-major and run in
    submission order) every generation but the first of each workload,
    with no I/O per point.  Pool workers and serve jobs run a few points
    each in fresh processes, so their memo starts empty; on cached runs
    the sim cache's trace entry stands in for it.
    Fork-safe by construction: generation is a pure function of the key,
    so a forked worker's inherited copy can only save it work, and what
    either side stores after the fork cannot change any result.
    """

    __slots__ = ("key", "trace")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.trace: Optional[WorkloadTrace] = None


_trace_memo = _TraceMemo()


def _memoised_trace(spec: WorkloadSpec, config: SystemConfig,
                    cache_trace: bool = False) -> WorkloadTrace:
    """The trace of *spec* under *config*, generated at most once in a row.

    On a memo miss with *cache_trace*, the sim cache's trace entry is
    loaded; only when it is absent is the trace generated, and then
    stored.  The old entry is dropped before a new trace is loaded or
    generated, so at most one memoised trace is ever alive.  Its arrays
    are made read-only: every later point of the process reads them.
    """
    key = trace_key(spec, config)
    if _trace_memo.key != key:
        _trace_memo.key = _trace_memo.trace = None
        trace = cache.load_trace(key) if cache_trace else None
        if trace is None:
            # Looked up by module global at call time, so a wrapper
            # installed on this module's ``generate_trace`` sees every
            # real generation.
            trace = generate_trace(spec, config)
            if cache_trace:
                cache.store_trace(key, trace)
        for kernel in trace.kernels:
            kernel.cta_ids.flags.writeable = False
            kernel.lines.flags.writeable = False
            kernel.is_write.flags.writeable = False
        _trace_memo.key = key
        _trace_memo.trace = trace
    return _trace_memo.trace


def _execute(
    spec: WorkloadSpec,
    config: SystemConfig,
    label: Optional[str],
    trace: Optional[WorkloadTrace],
    obs=None,
    engine: Optional[str] = None,
    cache_trace: bool = False,
) -> RunResult:
    config.validate()
    if trace is None:
        trace = _memoised_trace(spec, config, cache_trace)
    plan: Optional[ReplicationPlan] = None
    profile = profile_sharing(trace, config)
    if config.replication != REPLICATE_NONE:
        plan = build_replication_plan(profile, config.replication)
    system = MultiGpuSystem(
        config, plan, label, engine=engine or ENGINE_VECTORIZED, obs=obs
    )
    result = system.run(trace)
    result.page_access_counts = profile.sorted_page_access_counts()
    return result


def time_of(result: RunResult, config: SystemConfig) -> float:
    """Total execution time of a run in (scaled) seconds."""
    return PerformanceModel(config).total_time_s(result)


def run_time(result: RunResult, config: SystemConfig) -> RunTime:
    """Full timing breakdown of a run."""
    return PerformanceModel(config).run_time(result)
