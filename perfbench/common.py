"""Statistics, result formatting and the environment stamp."""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import statistics
import subprocess
from pathlib import Path

#: Metric names must match this (the benchmark contract's alphabet).
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The *p*-th percentile (0-100) by linear interpolation between
    closest ranks; the 50th is the median."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the *p*-th percentile (ranks
    past the interpolation point of :func:`percentile`)."""
    return n - 1 - math.floor((n - 1) * p / 100.0) if n else 0


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the acceptance
    statistic for run-to-run steadiness)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_metric_names(metrics: dict) -> None:
    bad = sorted(name for name in metrics if not METRIC_NAME.match(name))
    if bad:
        raise ValueError(f"invalid metric name(s): {', '.join(bad)}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment_stamp(root: Path) -> dict:
    """CPU count, NUMA nodes, interpreter, numpy and git revision."""
    import numpy

    from repro.sim.pool import numa_nodes

    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": usable_cpus(),
        "numa_nodes": len(numa_nodes()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }
