"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    GpuConfig,
    LinkConfig,
    MemoryConfig,
    RdcConfig,
    SystemConfig,
)
from repro.gpu.cta import KernelTrace, WorkloadTrace
from repro.sim import driver
from repro.sim.chaos import PLAN_ENV, STATE_ENV, ChaosPlan, FaultEvent
from repro.sim.journal import Journal


def small_config(**changes) -> SystemConfig:
    """A tiny, fast system: 4 GPUs, 16-line pages, 64-line caches.

    Uses the production defaults but can be overridden per test.  The
    default scale (1024) already shrinks everything; tests mostly tweak
    policies rather than geometry.
    """
    cfg = SystemConfig()
    return cfg.replace(**changes) if changes else cfg


def tiny_rdc_config(rdc_bytes: int = 2 * 2**30, **rdc_kw) -> SystemConfig:
    return small_config().with_rdc(rdc_bytes, **rdc_kw)


def make_kernel(
    lines,
    writes=None,
    n_ctas: int = 4,
    cta_ids=None,
    kernel_id: int = 0,
    **kw,
) -> KernelTrace:
    """Build a kernel trace from plain lists."""
    lines = np.asarray(lines, dtype=np.int64)
    if writes is None:
        writes = np.zeros(len(lines), dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
    if cta_ids is None:
        cta_ids = np.arange(len(lines), dtype=np.int32) % n_ctas
    else:
        cta_ids = np.asarray(cta_ids, dtype=np.int32)
    return KernelTrace(
        kernel_id=kernel_id,
        n_ctas=n_ctas,
        cta_ids=cta_ids,
        lines=lines,
        is_write=writes,
        **kw,
    )


def make_trace(kernels, name: str = "test") -> WorkloadTrace:
    return WorkloadTrace(name=name, kernels=list(kernels))


def arm_chaos(monkeypatch, state_dir, *events: FaultEvent) -> None:
    """Arm a plan of *events* through the environment.

    Every process of a batch, forked pool workers included, inherits
    the plan and shares *state_dir*, so each event fires exactly once
    across the batch (one ``worker_kill`` event per worker death).
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    plan_path = state_dir / "plan.json"
    ChaosPlan(seed=0, events=tuple(events)).save(plan_path)
    monkeypatch.setenv(PLAN_ENV, str(plan_path))
    monkeypatch.setenv(STATE_ENV, str(state_dir / "state"))


def count_generations(monkeypatch) -> list[str]:
    """Record the workload of every real trace generation from now on.

    Starts from an empty one-entry trace memo, so the returned list (of
    workload abbreviations) holds exactly the traces a batch generated.
    """
    calls: list[str] = []
    real = driver.generate_trace

    def counting(spec, config):
        calls.append(spec.abbr)
        return real(spec, config)

    monkeypatch.setattr(driver, "_trace_memo", driver._TraceMemo())
    monkeypatch.setattr(driver, "generate_trace", counting)
    return calls


def pooled_attempts(path):
    """``(slot, start ts, end ts)`` per pooled attempt in a journal."""
    opened, out = {}, []
    for r in Journal(path).records():
        tag = (r["key"], r.get("attempt"))
        if r["event"] == "start" and r["slot"] >= 0:
            opened[tag] = r
        elif r["event"] in ("done", "failed", "retry", "cancelled") \
                and tag in opened:
            start = opened.pop(tag)
            out.append((start["slot"], start["ts"], r["ts"]))
    assert not opened, f"unfinished attempts: {sorted(opened)}"
    return out


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def carve_cfg() -> SystemConfig:
    return tiny_rdc_config()


@pytest.fixture(autouse=True)
def _no_sim_cache(monkeypatch):
    """Tests never read or write the on-disk simulation cache."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


__all__ = [
    "GpuConfig",
    "LinkConfig",
    "MemoryConfig",
    "RdcConfig",
    "small_config",
    "tiny_rdc_config",
    "make_kernel",
    "make_trace",
    "arm_chaos",
    "count_generations",
    "pooled_attempts",
]
