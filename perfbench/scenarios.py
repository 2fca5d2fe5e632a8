"""The benchmark's three workloads, driven through the public entry points.

Each workload runs a *phase*: the measured loop.  A phase returns what
it did (:class:`Phase`), including the exact amount of work, so the
traced run can replay the same amount and the difference in wall time
is the tracing overhead.  Every phase runs against fresh sim-cache,
journal and serve-store directories.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: The serve-mixed client's long-poll park (the server caps it at 30 s).
EVENT_WAIT_S = 30.0

#: serve-mixed client think time after each finished job.  The clients
#: share the interpreter with the server; with no pause they become its
#: main contender for the interpreter lock, which slows the server and
#: makes hit latency swing from run to run.
THINK_S = 0.02


@dataclass
class Op:
    """One user-visible operation: a simulated point or a serve job."""

    kind: str  # "cold" (executed) or "hit" (answered from a cache)
    latency_s: float


@dataclass
class Phase:
    """What one measured phase did."""

    wall_s: float
    #: The work done; passing it back to ``phase`` replays it exactly.
    amount: object
    ops: list = field(default_factory=list)
    #: Measured accesses simulated by cold operations per host second,
    #: one value per round.
    round_rates: list = field(default_factory=list)
    #: (expectation key, digest) of every point a cold operation
    #: delivered; ``expected_points`` maps each key to its inputs.
    points: list = field(default_factory=list)
    #: Human-readable failures (failed tasks, 429s, wrong results).
    failures: list = field(default_factory=list)
    attempted: int = 0
    #: Digests of the fixed point subset the modelled totals cover.
    modelled_points: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Context:
    """Per-run paths and knobs shared by every phase."""

    def __init__(self, work: Path, seconds: float):
        self.work = work
        self.seconds = seconds
        #: The traced run's :class:`ledger.Ledger`; None when untraced.
        self.ledger = None
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def fresh_cache(self) -> Path:
        """Point the sim cache at a new empty directory."""
        path = self.fresh_dir("simcache")
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path


def seed_offset(seed: int) -> int:
    """The offset added to each ``WorkloadSpec.seed`` (0 keeps the
    suite's own traces, which the committed baselines record)."""
    return seed % 2**16


def seeded_spec(abbr: str, seed: int):
    from repro.workloads import suite

    spec = suite.get(abbr)
    return spec.scaled(seed=spec.seed + seed_offset(seed))


def _digest(result) -> dict:
    from repro.obs.summary import summarize_result

    return summarize_result(result)


def _more_rounds(started: float, last_round_s: float, seconds: float) -> bool:
    """Start another round only if it should end within the budget."""
    return time.perf_counter() - started + last_round_s <= seconds


# ---------------------------------------------------------------------------
# compare-cold
# ---------------------------------------------------------------------------

class CompareCold:
    """The paper's figures and tables for three workloads, regenerated
    by the functions of ``repro.sim.experiments`` from a cold cache,
    and all eight systems compared on each workload (in-process, no
    pool)."""

    name = "compare-cold"
    jobs = 1
    #: The seed offsets each spec's seed, so it changes the traces.
    seeded_traces = True
    ledger_roots = frozenset({"sim.driver", "perf.model"})
    WORKLOADS = ("Lulesh", "SSSP", "stream-triad")
    #: The Table V(a) RDC sizes and Fig. 14 link bandwidths, as the
    #: figure benchmarks under benchmarks/ pass them.
    RDC_SIZES_GB = (0.5, 1.0, 2.0, 4.0)
    LINK_GBS = (16.0, 32.0, 64.0, 128.0, 256.0)

    def __init__(self, seed: int):
        from repro.sim import experiments as E

        self.configs = E.experiment_configs()
        self.specs = {a: seeded_spec(a, seed) for a in self.WORKLOADS}
        #: The figure and table functions, each taking workload names.
        self.figures = (
            lambda w: E.figure2(workloads=w),
            lambda w: E.figure8(workloads=w),
            lambda w: E.figure9(workloads=w),
            lambda w: E.figure11(workloads=w),
            lambda w: E.figure13(workloads=w),
            lambda w: E.figure14(link_bandwidths_gbs=list(self.LINK_GBS),
                                 workloads=w),
            lambda w: E.table5a(rdc_sizes_gb=list(self.RDC_SIZES_GB),
                                workloads=w),
            lambda w: E.table5b(workloads=w),
        )
        #: (workload, config repr) -> expectation key of every point.
        self.keys = {(spec.abbr, repr(cfg)): key
                     for key, spec, cfg, _ in self.expected_points()}

    def setup_probe(self, ctx: Context) -> None:
        ctx.fresh_cache()

    def expected_points(self):
        """(key, spec, config, label) of every point: the compared
        systems, and the Table V(a) sizes they do not include."""
        from repro.sim import experiments as E

        sized = [(f"{E.CARVE_HWC}@{gb:g}GB",
                  E.config_for(E.CARVE_HWC, rdc_bytes=int(gb * E.GB)))
                 for gb in self.RDC_SIZES_GB]
        for abbr, spec in self.specs.items():
            for name, cfg in self.configs.items():
                yield f"{name}/{abbr}", spec, cfg, name
            for name, cfg in sized:
                if cfg not in self.configs.values():
                    yield f"{name}/{abbr}", spec, cfg, E.CARVE_HWC

    def phase(self, ctx: Context, amount: Optional[int] = None) -> Phase:
        from repro.sim import driver, experiments

        out = Phase(wall_s=0.0, amount=0)
        started = time.perf_counter()
        while True:
            ctx.fresh_cache()
            round_t0 = time.perf_counter()
            cold_s = 0.0
            accesses = 0
            #: key -> digest of every point simulated this round.
            seen = {}

            def record(key, result, dt):
                """One point: cold the first time this round, then a
                cache hit that must replay the cold result."""
                nonlocal cold_s, accesses
                digest = _digest(result)
                if key in seen:
                    out.ops.append(Op("hit", dt))
                    if digest != seen[key]:
                        out.failures.append(f"{key}: cached replay "
                                            f"differs from the cold result")
                    return
                out.ops.append(Op("cold", dt))
                cold_s += dt
                accesses += digest["sim.accesses"]
                seen[key] = digest
                out.points.append((key, digest))
                if out.amount == 0:
                    out.modelled_points.append(digest)

            # Workload by workload: the figures in the paper's order, each
            # simulating the points no earlier one needed and reading the
            # rest from the cache, then the comparison of every system,
            # priced.  The figures name workloads, which the wrapper
            # resolves to this run's seeded specs; it also times each
            # point.
            run_workload = experiments.run_workload

            def point(workload, config, *args, **kwargs):
                key = self.keys[(workload, repr(config))]
                t0 = time.perf_counter()
                result = run_workload(self.specs[workload], config,
                                      *args, **kwargs)
                dt = time.perf_counter() - t0
                record(key, result, dt)
                return result

            for abbr, spec in self.specs.items():
                experiments.run_workload = point
                try:
                    for figure in self.figures:
                        figure([abbr])
                finally:
                    experiments.run_workload = run_workload
                for name, cfg in self.configs.items():
                    t0 = time.perf_counter()
                    result = driver.run_workload(spec, cfg, label=name)
                    driver.time_of(result, cfg)
                    dt = time.perf_counter() - t0
                    record(self.keys[(abbr, repr(cfg))], result, dt)
            out.round_rates.append(accesses / cold_s)
            out.amount += 1
            round_s = time.perf_counter() - round_t0
            if amount is not None:
                if out.amount >= amount:
                    break
            elif not _more_rounds(started, round_s, ctx.seconds):
                break
        out.wall_s = time.perf_counter() - started
        out.attempted = len(out.ops)
        return out


# ---------------------------------------------------------------------------
# sweep-pool
# ---------------------------------------------------------------------------

class SweepPool:
    """RDC size x coherence protocol over four small workloads through
    ``run_sweep`` on the worker pool: a cold sweep, then two re-sweeps
    answered by the warm sim cache."""

    name = "sweep-pool"
    jobs = 2
    seeded_traces = True
    ledger_roots = frozenset({"sim.runner", "perf.model"})
    WORKLOADS = ("Euler", "Nekbone", "CoMD", "OverFeat")
    SWEEP = "rdc-x-coherence"
    PASSES = ("cold", "hit", "hit")

    def __init__(self, seed: int):
        from repro.config import COHERENCE_HARDWARE, COHERENCE_SOFTWARE

        self.specs = [seeded_spec(a, seed) for a in self.WORKLOADS]
        self.grid = [(gb, proto)
                     for proto in (COHERENCE_SOFTWARE, COHERENCE_HARDWARE)
                     for gb in (1.0, 2.0, 4.0)]
        self.values = [float(i) for i in range(len(self.grid))]

    def config(self, value: float):
        from repro.config import baseline_config

        gb, proto = self.grid[int(value)]
        return baseline_config().with_rdc(int(gb * 2**30), coherence=proto)

    def setup_probe(self, ctx: Context) -> None:
        ctx.fresh_cache()
        ctx.fresh_dir("journal")

    def expected_points(self):
        from repro.sim.sweep import point_key

        for v in self.values:
            cfg = self.config(v)
            for spec in self.specs:
                yield (point_key(self.SWEEP, v, spec.abbr), spec, cfg,
                       f"{self.SWEEP}={v:g}")

    def phase(self, ctx: Context, amount: Optional[int] = None) -> Phase:
        from repro.sim.journal import Journal
        from repro.sim.runner import RunnerPolicy
        from repro.sim.sweep import point_key, run_sweep

        out = Phase(wall_s=0.0, amount=0)
        journals = []
        started = time.perf_counter()
        while True:
            ctx.fresh_cache()
            journal_dir = ctx.fresh_dir("journal")
            round_t0 = time.perf_counter()
            cold = {}
            for i, kind in enumerate(self.PASSES):
                journal = journal_dir / f"{kind}-{i}.jsonl"
                policy = RunnerPolicy(jobs=self.jobs, journal_path=journal)
                t0 = time.perf_counter()
                sweep = run_sweep(self.SWEEP, self.values, self.config,
                                  self.specs, runner=policy)
                dt = time.perf_counter() - t0
                journals.append((kind, journal))
                out.attempted += len(self.values) * len(self.specs)
                for report in sweep.failures.values():
                    out.failures.append(report.summary())
                for cell in sweep.cancelled:
                    out.failures.append(f"{cell}: cancelled")
                accesses = 0
                for (v, abbr), point in sorted(sweep.points.items()):
                    key = point_key(self.SWEEP, v, abbr)
                    digest = _digest(point.result)
                    accesses += digest["sim.accesses"]
                    if kind == "cold":
                        cold[key] = digest
                        out.points.append((key, digest))
                        if out.amount == 0:
                            out.modelled_points.append(digest)
                    elif digest != cold.get(key):
                        out.failures.append(
                            f"{key}: cached replay differs from the cold "
                            f"result")
                if kind == "cold":
                    out.round_rates.append(accesses / dt)
            out.amount += 1
            round_s = time.perf_counter() - round_t0
            if amount is not None:
                if out.amount >= amount:
                    break
            elif not _more_rounds(started, round_s, ctx.seconds):
                break
        out.wall_s = time.perf_counter() - started
        # Per-point latency is the runner's own dispatch-to-result time,
        # read back from the journals once the clock has stopped.
        for kind, journal in journals:
            for record in Journal(journal).records():
                if record.get("event") == "done":
                    out.ops.append(Op(kind, float(record["elapsed_s"])))
        return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    system: str
    rdc_gb: float
    workloads: tuple
    new: bool


class ServeMixed:
    """An in-process ``repro serve`` driven by two closed-loop clients
    (think time :data:`THINK_S`); a quarter of each client's sequence
    is new configs, the rest repeats of its own finished jobs (CAS
    hits)."""

    name = "serve-mixed"
    jobs = 2
    #: The serve API takes workload names only, so the seed picks the
    #: submission sequence and the traces stay the suite's own.
    seeded_traces = False
    ledger_roots = frozenset({"serve.execute", "serve.store_save"})
    CLIENTS = 2
    WORKLOADS = ("Euler", "Nekbone", "CoMD", "OverFeat")
    RDC_GB = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
    NEW_EVERY = 4

    #: Configs per block; the seed reorders configs only within a block.
    BLOCK = 4

    def __init__(self, seed: int):
        from repro.sim import experiments as E

        carve = (E.CARVE_NOC, E.CARVE_SWC, E.CARVE_HWC)
        plain = [s for s in E.experiment_configs() if s not in carve]
        #: Fixed base order: each RDC size's three CARVE systems, with
        #: one non-CARVE system after each of the first sizes.
        self.configs = []
        for i, gb in enumerate(self.RDC_GB):
            self.configs += [(s, gb) for s in carve]
            if i < len(plain):
                self.configs.append((plain[i], 2.0))
        self.sequences = self.build_sequences(seed)

    def build_sequences(self, seed: int) -> list:
        """Each client's fixed submission sequence for *seed*.

        New jobs come in chains of three per config over a seeded
        permutation (w0 w1 w2 w3) of the workloads: (w0,w1), (w1,w2),
        (w2,w3).  The first executes two points; the next two each find
        one point already in the sim cache, so every chain simulates
        each workload once.  The seed shuffles configs only within
        blocks of the base order, so any run executes nearly the same
        mix of configs whatever the seed.  Chains alternate between
        clients, so the clients never submit the same new key.
        """
        rng = random.Random(seed)
        chains = []
        for b in range(0, len(self.configs), self.BLOCK):
            block = self.configs[b:b + self.BLOCK]
            for system, gb in rng.sample(block, len(block)):
                w = rng.sample(self.WORKLOADS, len(self.WORKLOADS))
                chains.append([JobSpec(system, gb, (w[i], w[i + 1]), True)
                               for i in range(len(w) - 1)])
        sequences = []
        for c in range(self.CLIENTS):
            new = [job for chain in chains[c::self.CLIENTS] for job in chain]
            seq = []
            for job in new:
                seq.append(job)
                done = [j for j in seq if j.new]
                for _ in range(self.NEW_EVERY - 1):
                    pick = rng.choice(done)
                    seq.append(JobSpec(pick.system, pick.rdc_gb,
                                       pick.workloads, False))
            sequences.append(seq)
        return sequences

    def expected_points(self):
        from repro.sim.experiments import GB, config_for
        from repro.workloads import suite

        for system, gb in self.configs:
            cfg = config_for(system, rdc_bytes=int(gb * GB))
            for abbr in self.WORKLOADS:
                yield (self.point_key(system, gb, abbr), suite.get(abbr),
                       cfg, system)

    @staticmethod
    def point_key(system: str, rdc_gb: float, abbr: str) -> str:
        return f"{system}@{rdc_gb:g}GB/{abbr}"

    def start_server(self, ctx: Context):
        from repro.serve.client import ServeClient
        from repro.serve.service import ThreadedServer

        ctx.fresh_cache()
        server = ThreadedServer(ctx.fresh_dir("store"), pool_jobs=self.jobs)
        server.start()
        if not ServeClient(port=server.port).healthz().ok:
            server.stop()
            raise RuntimeError("serve did not answer /healthz")
        return server

    def setup_probe(self, ctx: Context) -> None:
        self.start_server(ctx).stop()

    def phase(self, ctx: Context, amount: Optional[list] = None) -> Phase:
        server = self.start_server(ctx)
        try:
            started = time.perf_counter()
            deadline = started + ctx.seconds
            logs = [[] for _ in range(self.CLIENTS)]
            threads = [
                threading.Thread(
                    target=self._client, name=f"perfbench-client-{c}",
                    args=(ctx, server.port, self.sequences[c], deadline,
                          None if amount is None else amount[c], logs[c]),
                )
                for c in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - started
        finally:
            server.stop()
        out = Phase(wall_s=wall, amount=[len(log) for log in logs])
        accesses = 0
        queue_wait = execute = 0.0
        dedup = 0
        for c, log in enumerate(logs):
            new_seen = 0
            for entry in log:
                out.attempted += 1
                if entry["error"]:
                    out.failures.append(entry["error"])
                    continue
                job = entry["job"]
                if entry["dedup"] != "new":
                    dedup += 1
                kind = "cold" if entry["dedup"] == "new" else "hit"
                out.ops.append(Op(kind, entry["latency_s"]))
                for abbr in job.workloads:
                    key = self.point_key(job.system, job.rdc_gb, abbr)
                    digest = entry["digests"].get(abbr)
                    out.points.append((key, digest))
                    if kind == "cold" and digest is not None:
                        accesses += digest["sim.accesses"]
                        if new_seen < 4:
                            out.modelled_points.append(digest)
                if kind == "cold":
                    new_seen += 1
                    status = entry.get("status")
                    if status:
                        queue_wait += (status["started_at"]
                                       - status["submitted_at"])
                        execute += (status["finished_at"]
                                    - status["started_at"])
            if len(log) == len(self.sequences[c]) and amount is None:
                out.extra["exhausted"] = True
        out.round_rates.append(accesses / wall)
        out.extra.update(queue_wait_s=queue_wait, execute_s=execute,
                         dedup=dedup)
        return out

    def _client(self, ctx, port, sequence, deadline, limit, log) -> None:
        from repro.serve.client import ServeClient

        client = ServeClient(port=port, timeout=120.0)
        ledger = ctx.ledger
        for job in sequence:
            if limit is not None:
                if len(log) >= limit:
                    break
            elif time.perf_counter() >= deadline:
                break
            try:
                entry = self._one_job(client, ledger, job)
            except Exception as exc:  # a dead connection is a failed job
                entry = {"job": job, "error": f"{job}: {exc!r}"}
            log.append(entry)
            time.sleep(THINK_S)

    @staticmethod
    def _timed(ledger, name, fn, *args, **kwargs):
        if ledger is None:
            return fn(*args, **kwargs)
        return ledger.call(name, fn, args, kwargs)

    def _one_job(self, client, ledger, job: JobSpec) -> dict:
        entry = {"job": job, "error": None, "dedup": None, "digests": {}}
        t0 = time.perf_counter()
        resp = self._timed(ledger, "serve.submit", client.submit,
                           job.system, job.workloads, rdc_gb=job.rdc_gb)
        if resp.status == 429:
            if ledger is not None:
                ledger.count("serve.rejected")
            entry["error"] = f"{job}: refused with 429"
            return entry
        if resp.status not in (200, 201):
            entry["error"] = f"{job}: submit answered {resp.status}"
            return entry
        job_id = resp["id"]
        state = resp["state"]
        since = 0
        while state not in ("done", "failed", "cancelled"):
            ev = self._timed(ledger, "serve.wait", client.events, job_id,
                             since=since, wait=EVENT_WAIT_S)
            if ev.status != 200:
                entry["error"] = f"{job_id}: events answered {ev.status}"
                return entry
            state = ev["state"]
            since = ev["next"]
        entry["latency_s"] = time.perf_counter() - t0
        entry["dedup"] = resp["dedup"]
        if state != "done":
            entry["error"] = f"{job_id}: ended {state}"
            return entry
        result = client.result(job_id)
        if result.status != 200 or not result["ok"]:
            entry["error"] = f"{job_id}: result not ok ({result.status})"
            return entry
        entry["digests"] = {abbr: r["metrics"]
                            for abbr, r in result["results"].items()}
        if ledger is not None and resp["dedup"] == "new":
            entry["status"] = client.job(job_id).body
        return entry


SCENARIOS = {cls.name: cls for cls in (CompareCold, SweepPool, ServeMixed)}
