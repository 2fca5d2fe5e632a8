"""Generic parameter-sweep utilities.

Sensitivity studies come in two flavours here:

* **re-simulation sweeps** — the parameter changes the traffic (RDC size,
  coherence protocol, GPU count, placement): every point is a new run;
* **re-pricing sweeps** — the parameter only changes the timing model
  (any bandwidth, latency, launch overhead): one run per configuration is
  re-priced for every point, which is how Fig. 14 evaluates five link
  bandwidths for the cost of one.

Both memoise runs through the standard disk cache and execute as one
batch through :func:`repro.sim.runner.run_tasks`, submitted
workload-major so the points of one workload share its trace.  Pass a
:class:`~repro.sim.runner.RunnerPolicy` to run points in crash-isolated
worker subprocesses with timeouts, retries, and journal-based resume; a
failed point is then recorded as a
:class:`~repro.sim.runner.FailureReport` in :attr:`SweepResult.failures`
while every other point completes.  Without a policy a failed point
raises :class:`~repro.sim.runner.BatchFailed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.config import ConfigError, SystemConfig
from repro.perf.model import PerformanceModel, geometric_mean
from repro.perf.stats import RunResult
from repro.sim import cache
from repro.sim.driver import resolve_workload, run_workload
from repro.sim.runner import (
    FailureReport,
    RunnerPolicy,
    Task,
    config_hash,
    run_tasks,
)
from repro.workloads.base import WorkloadSpec

#: A function mapping a sweep value to a full system configuration.
ConfigFactory = Callable[[float], SystemConfig]


def simulate_point(
    spec: WorkloadSpec,
    config: SystemConfig,
    label: Optional[str],
    use_cache: bool,
) -> RunResult:
    """Top-level (hence picklable) worker entry: simulate one point."""
    return run_workload(spec, config, label=label, use_cache=use_cache)


def cached_point(
    spec: WorkloadSpec,
    config: SystemConfig,
    label: Optional[str],
    use_cache: bool,
) -> Optional[RunResult]:
    """Parent-side probe of :func:`simulate_point`: the point's sim-cache
    entry, or None."""
    return cache.load(spec, config) if use_cache else None


def point_key(name: str, value: float, abbr: str) -> str:
    """Journal/report key of one (value, workload) sweep cell."""
    return f"{name}={value:g}/{abbr}"


@dataclass
class SweepPoint:
    """One (value, workload) cell of a sweep."""

    value: float
    workload: str
    time_s: float
    result: RunResult


@dataclass
class SweepResult:
    """All cells of a sweep, with convenience reductions."""

    name: str
    values: list[float]
    workloads: list[str]
    points: dict[tuple[float, str], SweepPoint] = field(default_factory=dict)
    #: Points that ultimately failed under the fault-tolerant runner.
    failures: dict[tuple[float, str], FailureReport] = field(
        default_factory=dict
    )
    #: Points never run because a fail-fast runner aborted the sweep.
    cancelled: list[tuple[float, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every requested point produced a result."""
        return not self.failures and not self.cancelled

    def failure_summary(self) -> str:
        lines = [r.summary() for r in self.failures.values()]
        lines.extend(
            f"{point_key(self.name, v, w)}: cancelled (fail-fast)"
            for v, w in self.cancelled
        )
        return "\n".join(lines)

    def time(self, value: float, workload: str) -> float:
        return self.points[(value, workload)].time_s

    def series(self, workload: str) -> dict[float, float]:
        """value -> time for one workload."""
        return {v: self.time(v, workload) for v in self.values}

    def geomean_speedup_vs(
        self, baseline: "SweepResult", baseline_value: Optional[float] = None
    ) -> dict[float, float]:
        """Per-value geomean of ``T(baseline) / T(this)`` across workloads.

        *baseline_value* pins the baseline to one of its sweep values
        (e.g. compare every RDC size against the no-RDC system); defaults
        to comparing value-for-value.
        """
        out = {}
        for v in self.values:
            ratios = []
            for w in self.workloads:
                bv = baseline_value if baseline_value is not None else v
                ratios.append(baseline.time(bv, w) / self.time(v, w))
            out[v] = geometric_mean(ratios)
        return out


def _validated_configs(
    name: str, values: Sequence[float], config_factory: ConfigFactory
) -> list[tuple[float, SystemConfig]]:
    """Build and validate every point's config before any simulation.

    A bad sweep factory must fail up front with a clear error, not hours
    in when the offending value is finally reached.
    """
    out = []
    for v in values:
        cfg = config_factory(v)
        try:
            cfg.validate()
        except ConfigError as exc:
            raise ConfigError(
                f"sweep {name!r} value {v:g} produced an invalid "
                f"configuration: {exc}"
            ) from exc
        out.append((v, cfg))
    return out


def run_sweep(
    name: str,
    values: Sequence[float],
    config_factory: ConfigFactory,
    workloads: Sequence[str],
    use_cache: bool = True,
    runner: Optional[RunnerPolicy] = None,
) -> SweepResult:
    """Re-simulation sweep: one run per (value, workload).

    With *runner* set, failed points land in :attr:`SweepResult.failures`
    instead of raising; without it a failed point raises
    :class:`~repro.sim.runner.BatchFailed`.
    """
    specs = [resolve_workload(w) for w in workloads]
    configs = _validated_configs(name, values, config_factory)
    sweep = SweepResult(
        name=name, values=list(values), workloads=[s.abbr for s in specs]
    )
    tasks = [
        Task(
            key=point_key(name, v, spec.abbr),
            fn=simulate_point,
            args=(spec, cfg, f"{name}={v:g}", use_cache),
            config_hash=config_hash(cfg),
            lookup=cached_point,
        )
        for spec in specs
        for v, cfg in configs
    ]
    batch = run_tasks(tasks, runner)
    for v, cfg in configs:
        model = PerformanceModel(cfg)
        for spec in specs:
            key = point_key(name, v, spec.abbr)
            cell = (v, spec.abbr)
            if key in batch.results:
                result = batch.results[key]
                sweep.points[cell] = SweepPoint(
                    value=v,
                    workload=spec.abbr,
                    time_s=model.total_time_s(result),
                    result=result,
                )
            elif key in batch.failures:
                sweep.failures[cell] = batch.failures[key]
            else:
                sweep.cancelled.append(cell)
    return sweep


def reprice_sweep(
    name: str,
    values: Sequence[float],
    base_config: SystemConfig,
    price_factory: ConfigFactory,
    workloads: Sequence[str],
    use_cache: bool = True,
    runner: Optional[RunnerPolicy] = None,
) -> SweepResult:
    """Re-pricing sweep: simulate once on *base_config*, re-price per value.

    *price_factory* maps a sweep value to the configuration used for
    pricing only — it must not change anything that affects traffic
    counters (capacities, policies, GPU counts), or the sweep is invalid;
    bandwidths, latencies, and overheads are fair game.

    The base simulations run as one batch under *runner*; with one set,
    a failed workload is reported under every sweep value in
    :attr:`SweepResult.failures`, and without one it raises
    :class:`~repro.sim.runner.BatchFailed`.
    """
    base_config.validate()
    specs = [resolve_workload(w) for w in workloads]
    # Build and sanity-check every pricing config before simulating.
    priced_configs = []
    for v in values:
        priced = price_factory(v)
        try:
            priced.validate()
        except ConfigError as exc:
            raise ConfigError(
                f"re-pricing sweep {name!r} value {v:g} produced an "
                f"invalid configuration: {exc}"
            ) from exc
        _check_same_traffic_shape(base_config, priced)
        priced_configs.append((v, priced))
    sweep = SweepResult(
        name=name, values=list(values), workloads=[s.abbr for s in specs]
    )
    tasks = [
        Task(
            key=f"{name}-base/{spec.abbr}",
            fn=simulate_point,
            args=(spec, base_config, f"{name}-base", use_cache),
            config_hash=config_hash(base_config),
            lookup=cached_point,
        )
        for spec in specs
    ]
    batch = run_tasks(tasks, runner)
    results = {}
    for spec in specs:
        key = f"{name}-base/{spec.abbr}"
        if key in batch.results:
            results[spec.abbr] = batch.results[key]
        elif key in batch.failures:
            for v in values:
                sweep.failures[(v, spec.abbr)] = batch.failures[key]
        else:
            sweep.cancelled.extend((v, spec.abbr) for v in values)
    for v, priced in priced_configs:
        model = PerformanceModel(priced)
        for abbr, result in results.items():
            sweep.points[(v, abbr)] = SweepPoint(
                value=v,
                workload=abbr,
                time_s=model.total_time_s(result),
                result=result,
            )
    return sweep


def _check_same_traffic_shape(base: SystemConfig, priced: SystemConfig) -> None:
    """Reject re-pricing configs that would have changed the simulation."""
    if (
        priced.n_gpus != base.n_gpus
        or priced.scale != base.scale
        or priced.page_bytes != base.page_bytes
        or priced.placement != base.placement
        or priced.replication != base.replication
        or priced.migration != base.migration
        or priced.scheduling != base.scheduling
        or (priced.rdc is None) != (base.rdc is None)
    ):
        raise ValueError(
            "re-pricing sweep changed a traffic-affecting parameter; "
            "use run_sweep instead"
        )
    if priced.link_faults != base.link_faults:
        # Fault epochs change both the per-kernel link scaling and (via
        # outage rerouting) the byte matrices themselves.
        raise ValueError(
            "re-pricing sweep changed the link-fault schedule; "
            "use run_sweep instead"
        )
    if priced.rdc is not None and base.rdc is not None:
        if (
            priced.rdc.size_bytes != base.rdc.size_bytes
            or priced.rdc.coherence != base.rdc.coherence
            or priced.rdc.write_policy != base.rdc.write_policy
            or priced.rdc.hit_predictor != base.rdc.hit_predictor
        ):
            raise ValueError(
                "re-pricing sweep changed the RDC; use run_sweep instead"
            )
