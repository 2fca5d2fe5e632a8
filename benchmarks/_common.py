"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
it, and archives the text under ``results/`` so EXPERIMENTS.md can be
checked against the latest run.  Benchmarks execute the underlying
simulation exactly once (``benchmark.pedantic`` with one round): the
interesting measurement is the figure's content, the wall-clock is
reported by pytest-benchmark for free.

Simulation results are memoised on disk (see :mod:`repro.sim.cache`), so
the full harness is expensive only on its first run.

Benchmarks that persist a machine-readable payload (``BENCH_*.json`` at
the repository root) write it through :func:`save_bench_json`, which
stamps the payload with a ``provenance`` block (schema version,
generation timestamp, git sha, simulator CODE_VERSION) so every number
says which code produced it.  End-to-end host time is perfbench's job
(``perfbench/README.md``).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Union

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Version of the stamped BENCH_*.json envelope (payload + provenance).
#: Bump when the envelope shape changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def save_result(name: str, text: str) -> Path:
    """Archive a rendered figure/table under results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def bench_provenance() -> dict:
    """The ``provenance`` stamp for a BENCH_*.json payload."""
    from repro.obs.baseline import environment_fingerprint

    fp = environment_fingerprint()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": fp.get("git_sha"),
        "code_version": fp.get("code_version"),
        "python": fp.get("python"),
    }


def save_bench_json(path: Union[str, Path], payload: dict) -> Path:
    """Stamp *payload* with its provenance and write it to *path*."""
    path = Path(path)
    path.write_text(
        json.dumps({**payload, "provenance": bench_provenance()}, indent=2)
        + "\n"
    )
    return path


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def show(title: str, text: str) -> None:
    print()
    print(f"==== {title} ====")
    print(text)
