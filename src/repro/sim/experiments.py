"""Named experiment configurations and figure-level computations.

Every configuration the paper evaluates is defined here once, and each
figure/table has a function that produces exactly the numbers the paper
plots.  The benchmark scripts under ``benchmarks/`` call these and print
the rows; examples call them interactively.

Each figure or table runs its (system x workload) points as one
workload-major batch through :func:`run_suites`; a failed point raises
:class:`~repro.sim.runner.BatchFailed` rather than shortening a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import (
    COHERENCE_HARDWARE,
    COHERENCE_NONE,
    COHERENCE_SOFTWARE,
    ConfigError,
    REPLICATE_ALL,
    REPLICATE_READ_ONLY,
    SystemConfig,
    baseline_config,
)
from repro.numa.unified_memory import assess_capacity_loss
from repro.perf.model import PerformanceModel, geometric_mean
from repro.perf.stats import RunResult
from repro.sim import cache, driver
from repro.sim.driver import run_workload, time_of
from repro.sim.pool import WorkerSlots
from repro.sim.runner import (
    FailureReport,
    RunnerPolicy,
    Task,
    config_hash,
    run_tasks,
)
from repro.workloads import suite

GB = 2**30

# ---------------------------------------------------------------------------
# Configuration registry
# ---------------------------------------------------------------------------

#: Configuration names used throughout the benchmarks and examples.
SINGLE_GPU = "single-gpu"
NUMA_GPU = "numa-gpu"
NUMA_MIGRATION = "numa-gpu+migration"
NUMA_REPL_RO = "numa-gpu+repl-ro"
IDEAL = "ideal"
CARVE_NOC = "carve-no-coherence"
CARVE_SWC = "carve-swc"
CARVE_HWC = "carve-hwc"


def experiment_configs(
    base: Optional[SystemConfig] = None,
    rdc_bytes: int = 2 * GB,
) -> dict[str, SystemConfig]:
    """The full set of systems evaluated by the paper."""
    base = base or baseline_config()
    return {
        SINGLE_GPU: base.single_gpu(),
        NUMA_GPU: base,
        NUMA_MIGRATION: base.replace(migration=True),
        NUMA_REPL_RO: base.replace(replication=REPLICATE_READ_ONLY),
        IDEAL: base.replace(replication=REPLICATE_ALL),
        CARVE_NOC: base.with_rdc(rdc_bytes, coherence=COHERENCE_NONE),
        CARVE_SWC: base.with_rdc(rdc_bytes, coherence=COHERENCE_SOFTWARE),
        CARVE_HWC: base.with_rdc(rdc_bytes, coherence=COHERENCE_HARDWARE),
    }


def config_for(name: str, base: Optional[SystemConfig] = None,
               rdc_bytes: int = 2 * GB) -> SystemConfig:
    configs = experiment_configs(base, rdc_bytes)
    try:
        cfg = configs[name]
    except KeyError:
        raise KeyError(f"unknown experiment config {name!r}; "
                       f"known: {sorted(configs)}") from None
    # Validate at the entry point so a bad base config (or absurd RDC
    # size) fails with a clear field-naming error before any simulation
    # starts, not deep inside the first run.
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(
            f"experiment config {name!r} is invalid: {exc}"
        ) from exc
    return cfg


# ---------------------------------------------------------------------------
# Suite execution helpers
# ---------------------------------------------------------------------------

@dataclass
class SuiteRun:
    """Results of one configuration across (part of) the suite."""

    config_name: str
    config: SystemConfig
    results: dict[str, RunResult] = field(default_factory=dict)
    #: Workloads that ultimately failed under the fault-tolerant runner.
    failures: dict[str, FailureReport] = field(default_factory=dict)
    #: Workloads never run because a fail-fast runner aborted the batch.
    cancelled: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every requested workload produced a result."""
        return not self.failures and not self.cancelled

    def failure_summary(self) -> str:
        lines = [r.summary() for r in self.failures.values()]
        lines.extend(f"{self.config_name}/{w}: cancelled (fail-fast)"
                     for w in self.cancelled)
        return "\n".join(lines)

    def time_s(self, abbr: str) -> float:
        return time_of(self.results[abbr], self.config)


def simulate_named(
    abbr: str, config: SystemConfig, label: str, use_cache: bool
) -> RunResult:
    """Top-level (hence picklable) task entry of one suite point.

    Calls this module's ``run_workload``, looked up at call time, with
    the workload *name*, so a wrapper installed on it sees every point.
    """
    return run_workload(abbr, config, label=label, use_cache=use_cache)


def cached_named(
    abbr: str, config: SystemConfig, label: str, use_cache: bool
) -> Optional[RunResult]:
    """Parent-side probe of :func:`simulate_named`: the point's sim-cache
    entry, or None.

    Answers nothing while this module's ``run_workload`` is replaced by
    a wrapper, so the wrapper still sees every point.
    """
    if not use_cache or run_workload is not driver.run_workload:
        return None
    return cache.load(suite.get(abbr), config)


def run_suites(
    suites: dict[str, SuiteRun],
    workloads: Optional[list[str]] = None,
    use_cache: bool = True,
    runner: Optional[RunnerPolicy] = None,
    on_event=None,
    slots: Optional[WorkerSlots] = None,
) -> dict[str, SuiteRun]:
    """Run several configurations across the workload list as one batch.

    *suites* maps a batch-unique id to an empty :class:`SuiteRun` naming
    the run label and configuration; point keys are ``<id>/<workload>``.
    Points are submitted workload-major, so all systems of a workload
    run back to back on one trace.  The runs are filled in place.

    Without *runner* a failed point raises
    :class:`~repro.sim.runner.BatchFailed`; with one, failed workloads
    land in :attr:`SuiteRun.failures`.  *on_event* and *slots* thread
    straight through to :func:`repro.sim.runner.run_tasks`.  An unknown or
    repeated workload name fails before any simulation.
    """
    names = workloads if workloads is not None else suite.all_abbrs()
    for abbr in names:
        suite.get(abbr)
    repeated = sorted({abbr for abbr in names if names.count(abbr) > 1})
    if repeated:
        raise ConfigError(f"workloads: {', '.join(repeated)} given "
                          f"more than once")
    tasks = [
        Task(key=f"{sid}/{abbr}", fn=simulate_named,
             args=(abbr, run.config, run.config_name, use_cache),
             config_hash=config_hash(run.config), lookup=cached_named)
        for abbr in names
        for sid, run in suites.items()
    ]
    batch = run_tasks(tasks, runner, on_event=on_event, slots=slots)
    for sid, run in suites.items():
        for abbr in names:
            key = f"{sid}/{abbr}"
            if key in batch.results:
                run.results[abbr] = batch.results[key]
            elif key in batch.failures:
                run.failures[abbr] = batch.failures[key]
            else:
                run.cancelled.append(abbr)
    return suites


def run_suite(
    config_name: str,
    base: Optional[SystemConfig] = None,
    workloads: Optional[list[str]] = None,
    rdc_bytes: int = 2 * GB,
    use_cache: bool = True,
    runner: Optional[RunnerPolicy] = None,
    on_event=None,
    slots: Optional[WorkerSlots] = None,
) -> SuiteRun:
    """Run one named configuration across the workload list.

    The one-system case of :func:`run_suites` (same policy and failure
    semantics); point keys are ``<config_name>/<workload>``.
    """
    run = SuiteRun(config_name, config_for(config_name, base, rdc_bytes))
    return run_suites(
        {config_name: run}, workloads, use_cache, runner, on_event=on_event,
        slots=slots,
    )[config_name]


def _run_systems(
    names, workloads: Optional[list[str]], use_cache: bool
) -> dict[str, SuiteRun]:
    """One batch of the named default configurations (figures)."""
    return run_suites(
        {name: SuiteRun(name, config_for(name)) for name in names},
        workloads, use_cache,
    )


def speedups_vs(
    candidate: SuiteRun, reference: SuiteRun
) -> dict[str, float]:
    """Per-workload ``T(reference) / T(candidate)``."""
    out = {}
    for abbr, result in candidate.results.items():
        t_ref = time_of(reference.results[abbr], reference.config)
        t_cand = time_of(result, candidate.config)
        out[abbr] = t_ref / t_cand
    return out


def relative_performance(
    candidate: SuiteRun, ideal: SuiteRun
) -> dict[str, float]:
    """Per-workload performance relative to the ideal system (Fig. 2/9)."""
    out = {}
    for abbr, result in candidate.results.items():
        t_ideal = time_of(ideal.results[abbr], ideal.config)
        t_cand = time_of(result, candidate.config)
        out[abbr] = t_ideal / t_cand
    return out


# ---------------------------------------------------------------------------
# Figure/table computations
# ---------------------------------------------------------------------------

def figure2(workloads: Optional[list[str]] = None,
            use_cache: bool = True) -> dict[str, dict[str, float]]:
    """Fig. 2: NUMA-GPU and +RO-replication relative to ideal."""
    runs = _run_systems((IDEAL, NUMA_GPU, NUMA_REPL_RO), workloads,
                        use_cache)
    return {
        name: relative_performance(runs[name], runs[IDEAL])
        for name in (NUMA_GPU, NUMA_REPL_RO)
    }


def figure8(workloads: Optional[list[str]] = None,
            use_cache: bool = True) -> dict[str, dict[str, float]]:
    """Fig. 8: fraction of remote memory accesses, NUMA-GPU vs CARVE."""
    runs = _run_systems((NUMA_GPU, CARVE_HWC), workloads, use_cache)
    return {
        name: {abbr: r.remote_fraction for abbr, r in run.results.items()}
        for name, run in runs.items()
    }


def figure9(workloads: Optional[list[str]] = None,
            use_cache: bool = True) -> dict[str, dict[str, float]]:
    """Fig. 9: CARVE upper bound (no coherence) relative to ideal."""
    runs = _run_systems((IDEAL, NUMA_GPU, NUMA_REPL_RO, CARVE_NOC),
                        workloads, use_cache)
    return {
        name: relative_performance(runs[name], runs[IDEAL])
        for name in (NUMA_GPU, NUMA_REPL_RO, CARVE_NOC)
    }


def figure11(workloads: Optional[list[str]] = None,
             use_cache: bool = True) -> dict[str, dict[str, float]]:
    """Fig. 11: software vs hardware RDC coherence, relative to ideal."""
    systems = (NUMA_GPU, CARVE_SWC, CARVE_HWC, CARVE_NOC)
    runs = _run_systems((IDEAL, *systems), workloads, use_cache)
    return {
        name: relative_performance(runs[name], runs[IDEAL])
        for name in systems
    }


def figure13(workloads: Optional[list[str]] = None,
             use_cache: bool = True) -> dict[str, dict[str, float]]:
    """Fig. 13: speedup over a single GPU for the four headline systems."""
    systems = (NUMA_GPU, NUMA_REPL_RO, CARVE_HWC, IDEAL)
    runs = _run_systems((SINGLE_GPU, *systems), workloads, use_cache)
    return {
        name: speedups_vs(runs[name], runs[SINGLE_GPU]) for name in systems
    }


def figure14(
    link_bandwidths_gbs: Optional[list[float]] = None,
    workloads: Optional[list[str]] = None,
    use_cache: bool = True,
) -> dict[str, dict[float, float]]:
    """Fig. 14: geomean speedup over 1 GPU vs inter-GPU link bandwidth.

    Simulation counters do not depend on link *bandwidth* (only the
    pricing does), so each configuration is simulated once and re-priced
    per bandwidth point.
    """
    bws = link_bandwidths_gbs or [32.0, 64.0, 128.0, 256.0]
    systems = (NUMA_GPU, NUMA_REPL_RO, CARVE_HWC, IDEAL)
    runs = _run_systems((SINGLE_GPU, *systems), workloads, use_cache)
    single = runs[SINGLE_GPU]
    out: dict[str, dict[float, float]] = {}
    for name in systems:
        run = runs[name]
        series: dict[float, float] = {}
        for bw in bws:
            priced = run.config.replace(
                link=run.config.link.__class__(
                    inter_gpu_bytes_per_s=bw * 1e9,
                    cpu_gpu_bytes_per_s=run.config.link.cpu_gpu_bytes_per_s,
                    latency_ns=run.config.link.latency_ns,
                )
            )
            model = PerformanceModel(priced)
            single_model = PerformanceModel(single.config)
            sp = []
            for abbr, result in run.results.items():
                t_single = single_model.total_time_s(single.results[abbr])
                sp.append(t_single / model.total_time_s(result))
            series[bw] = geometric_mean(sp)
        out[name] = series
    return out


def table5a(
    rdc_sizes_gb: Optional[list[float]] = None,
    workloads: Optional[list[str]] = None,
    use_cache: bool = True,
) -> dict[str, float]:
    """Table V(a): geomean NUMA speedup vs RDC size (plus the baseline)."""
    sizes = rdc_sizes_gb or [0.5, 1.0, 2.0, 4.0]
    suites = {
        "single": SuiteRun(SINGLE_GPU, config_for(SINGLE_GPU)),
        "NUMA-GPU": SuiteRun(NUMA_GPU, config_for(NUMA_GPU)),
    }
    for size in sizes:
        suites[f"CARVE-{size:g}GB"] = SuiteRun(
            CARVE_HWC, config_for(CARVE_HWC, rdc_bytes=int(size * GB))
        )
    runs = run_suites(suites, workloads, use_cache)
    single = runs.pop("single")
    return {
        key: geometric_mean(list(speedups_vs(run, single).values()))
        for key, run in runs.items()
    }


def table5b(
    spill_fractions: Optional[list[float]] = None,
    workloads: Optional[list[str]] = None,
    use_cache: bool = True,
) -> dict[float, float]:
    """Table V(b): geomean slowdown when the carve-out forces a spill."""
    fracs = spill_fractions or [0.0, 0.015, 0.0312, 0.0625, 0.125]
    run = run_suite(NUMA_GPU, workloads=workloads, use_cache=use_cache)
    out: dict[float, float] = {}
    for frac in fracs:
        slows = []
        for abbr, result in run.results.items():
            base_t = time_of(result, run.config)
            counts = result.page_access_counts or []
            assessment = assess_capacity_loss(
                counts, frac, run.config, base_t, result.total().accesses
            )
            slows.append(assessment.slowdown)
        out[frac] = geometric_mean(slows)
    return out
