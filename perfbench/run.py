"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare-cold --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` runs the same work again with
the per-layer wrappers of ``ledger.py`` installed and reports the
per-layer metrics.  ``--record-digests`` rewrites the expected digests
(default seed) and exits.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (TAIL_MIN_BEYOND, check_metric_names, environment_stamp,
                    metric, peak_rss_mb, percentile, samples_beyond,
                    usable_cpus)
from ledger import (LAYERS, Ledger, install, merge_totals,
                    read_worker_spills, self_time_shares, uninstall)
from scenarios import SCENARIOS, Context, seed_offset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_digests.json"
BASELINES = ROOT / "baselines"

#: Set-up repetitions whose median is reported as ``setup_s``.
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="compare-cold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite expected_digests.json and exit")
    return p.parse_args(argv)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def import_probe() -> float:
    """Wall time of a fresh interpreter importing ``repro.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def measure_setup(scenario, ctx) -> list:
    """Repeated set-ups: fresh-interpreter import plus the workload's
    own set-up (fresh directories; for serve, server start and a health
    check)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t = import_probe()
        t0 = time.perf_counter()
        scenario.setup_probe(ctx)
        samples.append(t + time.perf_counter() - t0)
    return samples


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def baseline_record(spec, cfg):
    """The committed ``baselines/<system>/<workload>.json`` this point
    coincides with (suite spec, identical system config), or None."""
    from repro.sim.experiments import experiment_configs
    from repro.workloads import suite

    if spec != suite.get(spec.abbr):
        return None
    for system, sys_cfg in experiment_configs().items():
        path = BASELINES / system / f"{spec.abbr}.json"
        if sys_cfg == cfg and path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
    return None


class Checker:
    """Digest gate: expectations, committed baselines, and accesses
    simulated against accesses generated."""

    def __init__(self, scenario, expected: dict | None):
        self.inputs = {key: (spec, cfg) for key, spec, cfg, _ in
                       scenario.expected_points()}
        self.expected = expected
        self._generated: dict = {}
        self.baseline_hits = 0

    def generated_accesses(self, spec, cfg) -> int:
        from repro.workloads.base import generate_trace

        key = (repr(spec), repr(cfg))
        if key not in self._generated:
            trace = generate_trace(spec, cfg)
            self._generated[key] = sum(
                k.n_accesses for k in trace.kernels if not k.warmup)
        return self._generated[key]

    def check(self, points) -> list:
        problems = []
        checked = set()
        for key, digest in points:
            if digest is None:
                problems.append(f"{key}: no digest delivered")
                continue
            if self.expected is not None and \
                    digest != self.expected.get(key):
                problems.append(f"{key}: digest differs from expectation")
            if key in checked:
                continue
            checked.add(key)
            spec, cfg = self.inputs[key]
            generated = self.generated_accesses(spec, cfg)
            if digest["sim.accesses"] != generated:
                problems.append(
                    f"{key}: simulated {digest['sim.accesses']} accesses, "
                    f"generated {generated}")
            record = baseline_record(spec, cfg)
            if record is not None:
                self.baseline_hits += 1
                want = record["deterministic"]
                got = {k: digest.get(k) for k in want}
                if got != want:
                    problems.append(f"{key}: digest differs from the "
                                    f"committed baseline")
        return problems


def record_digests(scenarios) -> int:
    from repro.obs.summary import summarize_result
    from repro.sim.driver import run_workload

    out = {}
    for cls in scenarios.values():
        scenario = cls(0)
        points = {}
        for key, spec, cfg, label in scenario.expected_points():
            result = run_workload(spec, cfg, label=label, use_cache=False)
            points[key] = summarize_result(result)
        out[cls.name] = points
        print(f"{cls.name}: {len(points)} points", file=sys.stderr)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(phase, setup_samples, rss_mb: float, failed: int) -> tuple:
    lat = [op.latency_s for op in phase.ops]
    cold = [op.latency_s for op in phase.ops if op.kind == "cold"]
    hit = [op.latency_s for op in phase.ops if op.kind == "hit"]
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "sim_accesses_per_s": metric(
            statistics.median(phase.round_rates), "1/s"),
        "jobs_per_s": metric(len(phase.ops) / phase.wall_s, "1/s"),
        "job_p90_s": metric(percentile(lat, 90), "s"),
        "cold_job_p50_s": metric(percentile(cold, 50), "s"),
        "hit_job_p50_s": metric(percentile(hit, 50), "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "success_rate": metric(
            max(0.0, 1.0 - failed / phase.attempted), "ratio"),
    }
    samples = {
        "setup_s": len(setup_samples),
        "sim_accesses_per_s": len(phase.round_rates),
        "jobs_per_s": len(phase.ops),
        "job_p90_s": len(lat),
        "cold_job_p50_s": len(cold), "hit_job_p50_s": len(hit),
        "success_rate": phase.attempted,
    }
    # Not a gated metric: hits outnumber cold jobs three to one, so the
    # median over all jobs falls on the knee between uncontended and
    # contended hits, and resampling one serve-mixed run moves it by a
    # quarter.  The per-outcome medians above are the steady ones.
    info = {"job_p50_s": (percentile(lat, 50), "s", len(lat))}
    return metrics, samples, info


def modelled(points) -> dict:
    """Exact modelled totals over a fixed point subset."""
    acc = sum(d["sim.accesses"] for d in points)
    rdc = sum(d["rdc.hit"] + d["rdc.miss"] for d in points)
    return {
        "core.rdc_hit_ratio": (sum(d["rdc.hit"] for d in points) / rdc
                               if rdc else 0.0, "ratio"),
        "core.coh_invalidates": (sum(d["coh.invalidate"] for d in points),
                                 "count"),
        "numa.remote_fraction": (
            sum(d["remote_fraction"] * d["sim.accesses"] for d in points)
            / acc, "ratio"),
        "numa.link_bytes": (sum(d["link.bytes"] for d in points), "bytes"),
    }


def per_layer(scenario, ledger, untraced, traced) -> dict:
    totals = merge_totals(ledger.snapshot(),
                          read_worker_spills(ledger.spill_dir))
    spans, counts = totals["spans"], totals["counts"]

    def self_s(name):
        return spans.get(name, [0.0, 0.0, 0])[0]

    def calls(name):
        return spans.get(name, [0.0, 0.0, 0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    runner_wall = spans.get("sim.runner", [0.0, 0.0, 0])[1]
    m = {
        "workloads.generate_s": (self_s("workloads.generate"), "s"),
        "workloads.calls": (calls("workloads.generate"), "count"),
        "analysis.profile_s": (self_s("analysis.profile"), "s"),
        "analysis.calls": (calls("analysis.profile"), "count"),
        "numa.engine_s": (self_s("numa.engine"), "s"),
        "numa.boundary_s": (self_s("numa.boundary"), "s"),
        "gpu.schedule_s": (self_s("gpu.schedule"), "s"),
        "numa.kernels": (calls("numa.engine"), "count"),
        "numa.accesses": (counts.get("numa.accesses", 0), "count"),
        "perf.model_s": (self_s("perf.model"), "s"),
        "sim.cache.store_s": (self_s("sim.cache.store"), "s"),
        "sim.cache.load_s": (self_s("sim.cache.load"), "s"),
        "sim.cache.hit_ratio": (ratio(counts.get("sim.cache.hits", 0),
                                      counts.get("sim.cache.loads", 0)),
                                "ratio"),
        "sim.pool.spawn_s": (self_s("sim.pool.spawn"), "s"),
        "sim.pool.dispatch_s": (self_s("sim.pool.dispatch"), "s"),
        "sim.pool.wait_s": (self_s("sim.pool.wait"), "s"),
        "sim.pool.shutdown_s": (self_s("sim.pool.shutdown"), "s"),
        "sim.pool.busy_share": (
            ratio(totals["worker_busy_s"], scenario.jobs * runner_wall),
            "ratio"),
        "sim.journal.append_s": (self_s("sim.journal.append"), "s"),
        "sim.journal.appends": (calls("sim.journal.append"), "count"),
        "sim.journal.store_result_s": (self_s("sim.journal.store_result"),
                                       "s"),
        "serve.submit_s": (self_s("serve.submit"), "s"),
        "serve.queue_wait_s": (traced.extra.get("queue_wait_s", 0.0), "s"),
        "serve.execute_s": (traced.extra.get("execute_s", 0.0), "s"),
        "serve.store_load_s": (self_s("serve.store_load"), "s"),
        "serve.store_save_s": (self_s("serve.store_save"), "s"),
        "serve.dedup_ratio": (ratio(traced.extra.get("dedup", 0),
                                    len(traced.ops)), "ratio"),
        "serve.rejected": (counts.get("serve.rejected", 0), "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }
    m.update(modelled(traced.modelled_points))
    shares = self_time_shares(ledger.ledger_self(scenario.ledger_roots),
                              traced.wall_s)
    for layer in (*LAYERS, "other"):
        m[f"share.{layer}"] = (shares[layer], "ratio")
    return {name: metric(v, unit) for name, (v, unit) in m.items()}


def print_summary(stamp, metrics, samples, info) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, entry in metrics.items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}{count}")
    for name, (value, unit, n) in info.items():
        print(f"  {name:28s} {value:>16.6g} {unit}  (n={n}, not gated)")
    n = samples.get("job_p90_s")
    if n is not None:
        if samples_beyond(n, 90) < TAIL_MIN_BEYOND:
            print(f"warning: {n} latency samples leave fewer than "
                  f"{TAIL_MIN_BEYOND} beyond the 90th percentile",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(args) -> int:
    if args.record_digests:
        return record_digests(SCENARIOS)
    if args.workload not in SCENARIOS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(SCENARIOS)}")
    cls = SCENARIOS[args.workload]
    if usable_cpus() < cls.jobs:
        return fail(f"{cls.name} runs a {cls.jobs}-worker pool but only "
                    f"{usable_cpus()} CPU(s) are usable; pool metrics "
                    f"would measure contention, not scale-out")
    stamp = environment_stamp(ROOT)
    work = ROOT / ".perfbench-work" / f"{cls.name}-{os.getpid()}"
    work.mkdir(parents=True)
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_JOURNAL_DIR"] = str(work / "journal")
    # The runner stamps journals with `git rev-parse`; keep git from
    # searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ.pop("REPRO_NO_CACHE", None)
    try:
        scenario = cls(args.seed)
        ctx = Context(work, args.seconds)
        untraced = scenario.phase(ctx)
        # Read before the set-up probes, whose children would count.
        rss_mb = peak_rss_mb()
        if untraced.extra.get("exhausted"):
            print("warning: a client ran out of its submission sequence",
                  file=sys.stderr)
        # Expected digests are recorded on the default seed; they hold on
        # every seed only where the seed does not change the traces.
        expected = load_expected()[cls.name]
        if cls.seeded_traces and seed_offset(args.seed) != 0:
            expected = None
        checker = Checker(scenario, expected)
        problems = list(untraced.failures) + checker.check(untraced.points)
        # A fixed point set that includes a baseline point must meet it.
        if cls.seeded_traces and expected is not None \
                and checker.baseline_hits == 0:
            problems.append("no point coincided with a committed baseline")
        attempted = untraced.attempted
        if args.trace:
            ledger = Ledger(work / "spans")
            ctx.ledger = ledger
            patches = install(ledger)
            try:
                traced = scenario.phase(ctx, amount=untraced.amount)
            finally:
                uninstall(patches)
            problems += traced.failures + checker.check(traced.points)
            attempted += traced.attempted
            metrics = per_layer(scenario, ledger, untraced, traced)
            samples, info = {}, {}
        else:
            metrics, samples, info = end_to_end(
                untraced, measure_setup(scenario, ctx), rss_mb,
                len(problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there
    check_metric_names(metrics)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print_summary(stamp, metrics, samples, info)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} "
                    f"is missing")
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
