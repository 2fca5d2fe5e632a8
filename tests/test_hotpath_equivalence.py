"""Engine equivalence: the vectorized hot path is counter-for-counter
identical to the reference per-access engine.

Every suite workload used here runs through both engines under the
paper's main configurations; the resulting :class:`RunResult` trees must
compare equal — every counter, every kernel, every GPU.  Any divergence
(reordered accesses, a dropped stat bump, a float grouping change) shows
up as a field-level mismatch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.sharing import profile_sharing
from repro.config import (
    COHERENCE_DIRECTORY,
    COHERENCE_HARDWARE,
    COHERENCE_SOFTWARE,
    PLACEMENT_INTERLEAVED,
    PLACEMENT_ROUND_ROBIN,
    REPLICATE_ALL,
    REPLICATE_NONE,
    REPLICATE_READ_ONLY,
    SCHEDULE_ROUND_ROBIN,
    WRITE_BACK,
)
from repro.numa.replication import build_replication_plan
from repro.numa.system import ENGINE_REFERENCE, MultiGpuSystem
from repro.workloads.base import generate_trace
from repro.workloads.suite import get

from tests.conftest import small_config, tiny_rdc_config

WORKLOADS = ["Lulesh", "Euler", "SSSP"]

CONFIGS = {
    "baseline": lambda: small_config(),
    "carve-swc-wb": lambda: tiny_rdc_config(
        coherence=COHERENCE_SOFTWARE, write_policy=WRITE_BACK
    ),
    "carve-hwc": lambda: tiny_rdc_config(coherence=COHERENCE_HARDWARE),
    "baseline-migration": lambda: small_config(
        migration=True, migration_threshold=4
    ),
    # Placement policies whose homes depend on global first-touch order.
    "placement-round-robin": lambda: small_config(
        placement=PLACEMENT_ROUND_ROBIN
    ),
    "placement-interleaved": lambda: small_config(
        placement=PLACEMENT_INTERLEAVED
    ),
    "schedule-round-robin": lambda: small_config(
        scheduling=SCHEDULE_ROUND_ROBIN
    ),
    "carve-directory": lambda: tiny_rdc_config(
        coherence=COHERENCE_DIRECTORY
    ),
    "baseline-tlb": lambda: small_config(model_tlb=True),
    # Replica installs at first touch change locality mid-kernel.
    "numa-gpu+repl-ro": lambda: small_config(
        replication=REPLICATE_READ_ONLY
    ),
    "ideal": lambda: small_config(replication=REPLICATE_ALL),
}


def _scaled_spec(abbr: str):
    """Shrink a suite workload so the cross-product stays test-sized."""
    return dataclasses.replace(
        get(abbr),
        n_kernels=3,
        warmup_kernels=1,
        max_accesses=12000,
        min_accesses=3000,
    )


@pytest.mark.parametrize("config_label", sorted(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engines_are_bit_identical(workload, config_label):
    cfg = CONFIGS[config_label]()
    trace = generate_trace(_scaled_spec(workload), cfg)
    plan = None
    if cfg.replication != REPLICATE_NONE:
        plan = build_replication_plan(
            profile_sharing(trace, cfg), cfg.replication
        )
    vec = MultiGpuSystem(cfg, plan).run(trace)
    ref = MultiGpuSystem(cfg, plan, engine=ENGINE_REFERENCE).run(trace)
    assert vec == ref


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        MultiGpuSystem(small_config(), engine="interpretive-dance")
