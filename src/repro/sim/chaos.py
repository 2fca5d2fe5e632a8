"""Deterministic, seeded chaos engine and crash drills for the sweep fabric.

The fault-tolerant runner (:mod:`repro.sim.runner`), the persistent
worker pool (:mod:`repro.sim.pool`) and the crash-consistent journal
(:mod:`repro.sim.journal`) together promise that an interrupted sweep is
resumable to **byte-identical** results.  This module is how that
promise gets attacked instead of assumed:

* a :class:`ChaosPlan` maps a seed to a reproducible schedule of
  :class:`FaultEvent` s — worker SIGKILL, raised exception, torn
  journal tail, corrupted sidecar pickle and sim-cache corruption,
  one per recovery mechanism the byte-identity promise rests on;
* a :class:`ChaosEngine` arms the plan across *every process of a
  batch* (parent and forked workers alike) through a single hook,
  :func:`fire`, that the pool, journal and sim-cache call at their
  fault sites.  Cross-process once-only semantics come from
  ``O_CREAT|O_EXCL`` claim files in a shared state directory, which
  doubles as the audit trail of what actually fired;
* :func:`run_drill` (CLI: ``python -m repro chaos``) runs a reference
  sweep fault-free and serially, then the same sweep under a plan —
  SIGKILLing the whole batch mid-flight between ``--resume`` rounds —
  and asserts the end-state invariants: results byte-identical to the
  reference, every key terminal in the journal, no orphan tmp files,
  and an injection record consistent with the plan.

Arming a plan is environment-driven so subprocesses inherit it:
``REPRO_CHAOS_PLAN`` points at a saved plan JSON and
``REPRO_CHAOS_STATE`` at the shared state directory.  In-process code
(tests) can instead call :func:`install` with a constructed engine.

Nothing in this module runs on the simulated path; the wall-clock
calls below are drill orchestration (DET001 allowlists this file next
to ``sim/runner.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

# ---------------------------------------------------------------------------
# Environment contract
# ---------------------------------------------------------------------------

#: Path of a saved :class:`ChaosPlan` JSON; with :data:`STATE_ENV` set,
#: every process of the batch arms the plan at its first fault site.
PLAN_ENV = "REPRO_CHAOS_PLAN"
#: Directory for cross-process claim files and injection records.
STATE_ENV = "REPRO_CHAOS_STATE"

# ---------------------------------------------------------------------------
# Fault sites and kinds
# ---------------------------------------------------------------------------

#: Hook sites.  Each call to :func:`fire` names the site it is at; an
#: event only triggers at the site its kind belongs to.
SITE_TASK = "task"                      # worker task entry (pool/inline)
SITE_JOURNAL_APPEND = "journal_append"  # before a journal line is written
SITE_SIDECAR_STORE = "sidecar_store"    # after a sidecar result landed
SITE_SIMCACHE_STORE = "simcache_store"  # after a sim-cache entry landed

KIND_WORKER_KILL = "worker_kill"            # SIGKILL the executing process
KIND_WORKER_EXCEPTION = "worker_exception"  # raise from the task
KIND_TORN_TAIL = "journal_torn_tail"        # half a line, fsync, SIGKILL
KIND_SIDECAR_CORRUPT = "sidecar_corrupt"    # flip bytes inside the sidecar
KIND_SIMCACHE_CORRUPT = "simcache_corrupt"  # flip bytes in the cache entry

KIND_TO_SITE = {
    KIND_WORKER_KILL: SITE_TASK,
    KIND_WORKER_EXCEPTION: SITE_TASK,
    KIND_TORN_TAIL: SITE_JOURNAL_APPEND,
    KIND_SIDECAR_CORRUPT: SITE_SIDECAR_STORE,
    KIND_SIMCACHE_CORRUPT: SITE_SIMCACHE_STORE,
}

FAULT_KINDS = tuple(KIND_TO_SITE)

#: The kinds every generated plan is guaranteed to schedule — the
#: acceptance drill of docs/chaos.md: kill a worker mid-batch, tear the
#: journal tail, corrupt one sidecar.
REQUIRED_KINDS = (KIND_WORKER_KILL, KIND_TORN_TAIL, KIND_SIDECAR_CORRUPT)


class ChaosInjectedError(RuntimeError):
    """Raised by exception-flavoured fault kinds (never by real code)."""


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    The event triggers at the ``nth`` :func:`fire` call (counted across
    every process of the batch) whose site matches the kind's and whose
    key contains ``match`` — or at the first such call after the nth,
    if the nth call's process died between claiming its turn and
    injecting.  Each event fires at most once per state directory.
    """

    kind: str
    match: str = ""
    nth: int = 1

    def to_payload(self) -> dict:
        return {"kind": self.kind, "match": self.match, "nth": self.nth}

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultEvent":
        kind = payload["kind"]
        if kind not in KIND_TO_SITE:
            raise ValueError(f"unknown fault kind {kind!r}")
        return cls(
            kind=kind,
            match=str(payload.get("match", "")),
            nth=int(payload.get("nth", 1)),
        )


PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChaosPlan:
    """A seed plus the fault schedule derived from it.

    The same seed always generates the same schedule
    (:meth:`generate` uses a private ``random.Random(seed)``), so a
    failing drill is rerunnable bit-for-bit from its seed alone.
    """

    seed: int
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    @classmethod
    def generate(
        cls,
        seed: int,
        keys: Sequence[str] = (),
        extra_events: int = 3,
    ) -> "ChaosPlan":
        """Derive a schedule from *seed*.

        Always schedules the :data:`REQUIRED_KINDS` trio with small
        ``nth`` values (so they trigger even in a short batch), then
        *extra_events* further events drawn from the remaining kinds,
        optionally scoped to one of *keys*.  ``simcache_corrupt`` events
        are never scoped: their site fires with a workload name, not a
        task key, so a scoped one would never match.
        """
        rng = random.Random(int(seed))
        events = [
            FaultEvent(KIND_WORKER_KILL, "", rng.randint(1, 2)),
            FaultEvent(KIND_TORN_TAIL, "", rng.randint(2, 5)),
            FaultEvent(KIND_SIDECAR_CORRUPT, "", rng.randint(1, 2)),
        ]
        optional = [k for k in FAULT_KINDS if k not in REQUIRED_KINDS]
        for _ in range(max(0, extra_events)):
            kind = rng.choice(optional)
            match = rng.choice(("", *keys)) if keys else ""
            if kind == KIND_SIMCACHE_CORRUPT:
                match = ""  # drawn anyway: later events keep their draws
            events.append(FaultEvent(kind, match, rng.randint(1, 4)))
        return cls(seed=int(seed), events=tuple(events))

    def to_payload(self) -> dict:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "events": [e.to_payload() for e in self.events],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ChaosPlan":
        return cls(
            seed=int(payload["seed"]),
            events=tuple(
                FaultEvent.from_payload(e) for e in payload["events"]
            ),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChaosPlan":
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ChaosEngine:
    """Arms a :class:`ChaosPlan` across every process of a batch.

    All coordination happens through *state_dir*:

    * ``ev<i>.tick<n>`` — call-counting claim files.  Each matching
      :func:`fire` call claims the lowest unclaimed tick with
      ``O_CREAT|O_EXCL``, which is atomic across processes;
    * ``ev<i>.injected`` — written (same ``O_EXCL`` discipline) by the
      single process that wins the right to inject event *i*; its JSON
      body records kind/site/key/pid/tick and is the authoritative
      audit trail a drill checks against the plan.

    The record is written *before* the injection, so kill-flavoured
    faults are accounted for even though the process does not survive
    them.
    """

    def __init__(
        self,
        plan: ChaosPlan,
        state_dir: Union[str, Path],
        registry=None,
    ) -> None:
        self.plan = plan
        self.state_dir = Path(state_dir)
        #: Optional MetricsRegistry counting ``chaos.injected{kind}``
        #: for faults injected in *this* process (the state directory,
        #: not the counter, is the cross-process source of truth).
        self.registry = registry

    # -- state files ----------------------------------------------------

    def _fired(self, idx: int) -> bool:
        return (self.state_dir / f"ev{idx}.injected").exists()

    def _claim_tick(self, idx: int) -> int:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        n = 1
        while True:
            try:
                fd = os.open(
                    self.state_dir / f"ev{idx}.tick{n}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            return n

    def _claim_injection(
        self, idx: int, event: FaultEvent, site: str, key: str, tick: int
    ) -> bool:
        record = {
            "event": idx, "kind": event.kind, "site": site,
            "key": key, "pid": os.getpid(), "tick": tick,
        }
        try:
            fd = os.open(
                self.state_dir / f"ev{idx}.injected",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False  # another process injected this event first
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True))
            f.flush()
            os.fsync(f.fileno())
        return True

    @staticmethod
    def injected(state_dir: Union[str, Path]) -> list[dict]:
        """Audit records of every event that fired, in event order."""
        out: list[dict] = []
        for path in sorted(Path(state_dir).glob("ev*.injected")):
            try:
                out.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue  # the injecting process died mid-record
        return out

    # -- firing ---------------------------------------------------------

    def fire(
        self,
        site: str,
        key: str,
        path: Optional[Path] = None,
        line: Optional[str] = None,
    ) -> None:
        for idx, event in enumerate(self.plan.events):
            if KIND_TO_SITE[event.kind] != site:
                continue
            if event.match and event.match not in key:
                continue
            if self._fired(idx):
                continue
            tick = self._claim_tick(idx)
            if tick < event.nth:
                continue
            if not self._claim_injection(idx, event, site, key, tick):
                continue
            self._count(event.kind)
            self._inject(event, key, path=path, line=line)

    def _count(self, kind: str) -> None:
        if self.registry is None:
            return
        from repro.obs.metrics import spec_for

        self.registry.register(spec_for("chaos.injected")).inc(kind=kind)

    def _inject(
        self,
        event: FaultEvent,
        key: str,
        path: Optional[Path],
        line: Optional[str],
    ) -> None:
        kind = event.kind
        if kind == KIND_WORKER_EXCEPTION:
            raise ChaosInjectedError(f"injected task exception for {key!r}")
        if kind == KIND_WORKER_KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == KIND_TORN_TAIL:
            # The crash the journal's tail repair exists for: half a
            # record reaches the disk (flushed and fsynced, so it is
            # durably *there*), then the process dies before completing
            # the line.
            if path is not None and line:
                with open(path, "a", encoding="utf-8") as f:
                    f.write(line[: max(1, len(line) // 2)])
                    f.flush()
                    os.fsync(f.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        if kind in (KIND_SIDECAR_CORRUPT, KIND_SIMCACHE_CORRUPT):
            if path is not None:
                _damage_file(Path(path), seed=self.plan.seed)


def _damage_file(path: Path, seed: int) -> None:
    """Deterministically bit-rot a file at rest (same length)."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    if not data:
        return
    noise = hashlib.sha256(f"chaos:{seed}".encode()).digest()
    pos = len(data) // 3
    damaged = (data[:pos] + noise + data[pos + len(noise):])[: len(data)]
    if damaged == data:  # pathological collision; force a change
        damaged = bytes([data[0] ^ 0xFF]) + data[1:]
    try:
        path.write_bytes(damaged)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Module-level hook (what pool/journal/cache call)
# ---------------------------------------------------------------------------

_engine: Optional[ChaosEngine] = None
_env_engine: Optional[tuple[tuple[str, str], Optional[ChaosEngine]]] = None


def install(engine: ChaosEngine) -> None:
    """Arm *engine* in this process (tests; production uses the env)."""
    global _engine
    _engine = engine


def uninstall() -> None:
    global _engine, _env_engine
    _engine = None
    _env_engine = None


def active() -> Optional[ChaosEngine]:
    """The armed engine, if any: installed one first, then environment.

    The environment bootstrap (:data:`PLAN_ENV` + :data:`STATE_ENV`) is
    memoized on the variable values, so repeated fault-site calls cost
    two dict lookups when chaos is off.
    """
    if _engine is not None:
        return _engine
    global _env_engine
    plan_path = os.environ.get(PLAN_ENV, "")
    state_dir = os.environ.get(STATE_ENV, "")
    key = (plan_path, state_dir)
    if _env_engine is not None and _env_engine[0] == key:
        return _env_engine[1]
    engine: Optional[ChaosEngine] = None
    if plan_path and state_dir:
        try:
            engine = ChaosEngine(ChaosPlan.load(plan_path), state_dir)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            engine = None  # unreadable plan: chaos stays off
    # Per-process memo: after fork each process deliberately rebuilds
    # its own engine from the (identical) environment, so divergence
    # between the parent's and a worker's copy cannot occur.
    _env_engine = (key, engine)
    return engine


def attach_registry(registry) -> None:
    """Give the armed engine a metrics registry if it lacks one."""
    engine = active()
    if engine is not None and engine.registry is None and registry is not None:
        engine.registry = registry


def fire(
    site: str,
    key: str,
    path: Optional[Path] = None,
    line: Optional[str] = None,
) -> None:
    """Fault-site hook: a no-op unless an engine is armed."""
    engine = active()
    if engine is not None:
        engine.fire(site, key, path=path, line=line)


# ---------------------------------------------------------------------------
# The drill
# ---------------------------------------------------------------------------

#: Short, cache-friendly suite slice the drill sweeps by default.
DRILL_WORKLOADS = ("Lulesh", "Euler", "CoMD", "MCB")


@dataclass
class DrillRound:
    """One subprocess round of a drill."""

    label: str        # "reference" | "chaos-<i>" | "final-resume"
    outcome: str      # "exit" | "killed" | "timeout"
    returncode: Optional[int]
    elapsed_s: float


@dataclass
class DrillReport:
    """Everything a drill observed, plus the invariant verdict."""

    seed: int
    system: str
    workloads: tuple
    jobs: int
    pin: bool
    root: str
    plan_events: int = 0
    rounds: list = field(default_factory=list)
    injected: list = field(default_factory=list)
    #: Files quarantined per artifact ("sidecar", "sim-cache").
    quarantined: dict = field(default_factory=dict)
    scan: dict = field(default_factory=dict)
    #: Flight-recorder digest: span-spill totals plus, per victim slot,
    #: the final spans whose end edge never reached the disk.
    flight: dict = field(default_factory=dict)
    #: Invariant violations; empty means the fabric survived the plan.
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [
            f"chaos drill: seed={self.seed} system={self.system} "
            f"jobs={self.jobs} pin={self.pin} "
            f"workloads={','.join(self.workloads)}",
            f"plan: {self.plan_events} event(s) scheduled, "
            f"{len(self.injected)} injected",
        ]
        for rec in self.injected:
            lines.append(
                f"  injected: {rec.get('kind')} at {rec.get('site')} "
                f"(key={rec.get('key') or '<batch>'}, "
                f"tick={rec.get('tick')}, pid={rec.get('pid')})"
            )
        for rnd in self.rounds:
            lines.append(
                f"  round {rnd.label}: {rnd.outcome} "
                f"rc={rnd.returncode} ({rnd.elapsed_s:.1f}s)"
            )
        quarantined = ", ".join(
            f"{n} {artifact}" for artifact, n in self.quarantined.items()
        )
        lines.append(
            f"journal: {self.scan.get('records', 0)} records, "
            f"torn={self.scan.get('torn_tail', 0)} "
            f"corrupt={self.scan.get('corrupt_records', 0)} "
            f"checksum={self.scan.get('checksum_failures', 0)}; "
            f"quarantined: {quarantined or 'none'}"
        )
        if self.flight:
            lines.append(
                f"flight recorder: {self.flight.get('spans', 0)} span(s) "
                f"spilled, {self.flight.get('damaged', 0)} damaged, "
                f"{len(self.flight.get('victims', ()))} victim slot(s)"
            )
            for victim in self.flight.get("victims", ()):
                tail = " -> ".join(
                    f"{s['name']}[{s['key']}]" if s.get("key") else s["name"]
                    for s in victim.get("spans", ())
                ) or "<no spans>"
                lines.append(
                    f"  victim slot {victim.get('slot', -1):02d} "
                    f"(node {victim.get('node', -1)}): {tail}"
                )
        if self.ok:
            lines.append(
                "PASS: results byte-identical to the fault-free serial "
                "reference; every key terminal; no orphans"
            )
        else:
            lines.append(f"FAIL: {len(self.problems)} invariant violation(s)")
            for problem in self.problems:
                lines.append(f"  - {problem}")
        return "\n".join(lines)


def _kill_tree(proc: subprocess.Popen) -> None:
    """SIGKILL a round's whole process group (parent and pool workers).

    Rounds start in their own session, so the group id is the leader's
    pid and stays valid after the leader has exited and been reaped, as
    long as any pool worker it left behind is still alive.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.kill()
        except OSError:
            pass


def run_drill(
    root: Union[str, Path],
    seed: int = 0,
    system: str = "numa-gpu",
    workloads: Sequence[str] = DRILL_WORKLOADS,
    rounds: int = 3,
    jobs: int = 2,
    pin: bool = False,
    timeout_s: float = 8.0,
    round_timeout_s: float = 300.0,
    kill_window: tuple[float, float] = (0.75, 2.5),
    python: str = sys.executable,
    trace: bool = True,
) -> DrillReport:
    """Run the crash drill; see the module docstring for the shape.

    Rounds: one fault-free serial **reference**, then *rounds* chaos
    rounds against a second journal — all but the last SIGKILLed
    (whole process group) after a seeded delay, every round after the
    first resuming — then one plain ``--resume`` round with chaos
    disarmed, which must converge.  Each batch runs as a real
    ``python -m repro suite`` subprocess; nothing is mocked.

    With *trace* (the default) the chaos rounds run ``--trace``, and
    the report carries a **flight recorder**: the span spill survives
    SIGKILL, so each victim's final spans — the ones whose end edge
    never reached the disk — name what it was doing when it died.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    workloads = tuple(workloads)
    if len(workloads) < 2:
        # The required-trio convergence argument (every key completing
        # implies enough task/store/append ticks for the small nth
        # values) needs at least two points.
        raise ValueError("a drill needs at least two workloads")
    keys = [f"{system}/{w}" for w in workloads]

    plan = ChaosPlan.generate(seed, keys=keys)
    plan_path = root / "plan.json"
    plan.save(plan_path)
    state_dir = root / "chaos-state"
    ref_journal = root / "reference.jsonl"
    chaos_journal = root / "chaos-run.jsonl"

    report = DrillReport(
        seed=seed, system=system, workloads=workloads, jobs=jobs, pin=pin,
        root=str(root), plan_events=len(plan.events),
    )
    if ChaosPlan.generate(seed, keys=keys) != plan != ChaosPlan.load(
            plan_path):
        report.problems.append("plan generation is not reproducible")
        return report

    src_root = str(Path(__file__).resolve().parents[2])

    def child_env(cache_dir: Path, chaos_on: bool) -> dict:
        env = dict(os.environ)
        for var in (PLAN_ENV, STATE_ENV, "REPRO_NO_CACHE"):
            env.pop(var, None)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        if chaos_on:
            env[PLAN_ENV] = str(plan_path)
            env[STATE_ENV] = str(state_dir)
        return env

    def suite_cmd(journal: Path, jobs_n: int, resume: bool,
                  pin_run: bool) -> list[str]:
        cmd = [
            python, "-m", "repro", "suite", system,
            "--workloads", *workloads,
            "--jobs", str(jobs_n), "--retries", "1",
            "--journal", str(journal),
        ]
        if jobs_n > 1:
            cmd += ["--timeout", str(timeout_s)]
        if resume:
            cmd.append("--resume")
        if pin_run:
            cmd.append("--pin")
        if trace and journal == chaos_journal:
            cmd.append("--trace")
        return cmd

    def run_round(label: str, cmd: list[str], env: dict,
                  kill_after: Optional[float]) -> DrillRound:
        started = time.monotonic()
        outcome = "exit"
        with (root / f"{label}.log").open("w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(
                    timeout=kill_after if kill_after is not None
                    else round_timeout_s
                )
            except subprocess.TimeoutExpired:
                outcome = "killed" if kill_after is not None else "timeout"
            # Reap the group however the round ended: a leader that
            # crashed or exited can leave pool workers running.
            _kill_tree(proc)
            rc = proc.wait()
        rnd = DrillRound(label, outcome, rc, time.monotonic() - started)
        report.rounds.append(rnd)
        return rnd

    # Round 0: the fault-free serial reference every invariant is
    # measured against.
    ref = run_round(
        "reference",
        suite_cmd(ref_journal, 1, resume=False, pin_run=False),
        child_env(root / "cache-reference", chaos_on=False),
        kill_after=None,
    )
    if ref.returncode != 0:
        report.problems.append(
            f"fault-free reference run failed (rc={ref.returncode}, "
            f"outcome={ref.outcome}); see reference.log"
        )
        return report

    # Chaos rounds: the plan is armed; all but the last are additionally
    # SIGKILLed from outside after a seeded delay.  Exit codes are
    # deliberately unchecked — crashing is these rounds' job.
    kill_rng = random.Random(seed ^ 0x5EED)
    chaos_cache = root / "cache-chaos"
    for i in range(max(1, rounds)):
        kill_after = (
            round(kill_rng.uniform(*kill_window), 3)
            if i < max(1, rounds) - 1 else None
        )
        run_round(
            f"chaos-{i}",
            suite_cmd(chaos_journal, jobs, resume=(i > 0), pin_run=pin),
            child_env(chaos_cache, chaos_on=True),
            kill_after=kill_after,
        )

    # A plan can starve its own required trio: a kill or torn tail
    # early in a round, or the external SIGKILL landing before the
    # first sidecar store, can end every scheduled round before a
    # small-nth event has reached its turn.  Keep running un-killed,
    # resumed chaos rounds — each makes forward progress on the
    # remaining keys, ticking the fault sites — until the trio has
    # fired (bounded; the invariant check flags a plan that still
    # failed to deliver).
    for extra in range(4):
        fired = {
            rec.get("kind") for rec in ChaosEngine.injected(state_dir)
        }
        if all(kind in fired for kind in REQUIRED_KINDS):
            break
        run_round(
            f"chaos-extra-{extra}",
            suite_cmd(chaos_journal, jobs, resume=True, pin_run=pin),
            child_env(chaos_cache, chaos_on=True),
            kill_after=None,
        )

    # Convergence: plain --resume with chaos disarmed must finish clean.
    final = run_round(
        "final-resume",
        suite_cmd(chaos_journal, jobs, resume=True, pin_run=pin),
        child_env(chaos_cache, chaos_on=False),
        kill_after=None,
    )
    if final.returncode != 0:
        report.problems.append(
            f"final --resume did not converge (rc={final.returncode}, "
            f"outcome={final.outcome}); see final-resume.log"
        )

    _check_invariants(report, plan, state_dir, keys,
                      ref_journal, chaos_journal, chaos_cache)
    if trace:
        _flight_record(report, chaos_journal)
    return report


def _flight_record(report: DrillReport, chaos_journal: Path) -> None:
    """Reconstruct each victim's final timeline from the span spill.

    A SIGKILLed worker leaves ``B`` (begin) span records with no ``E``
    edge — flushed before the fault site fired, so they survive the
    kill.  Grouped by slot, the tail of those open spans is what each
    victim was doing when it died.  Interior damage in the spill (a
    record that decodes but fails its checksum) is an invariant
    violation: kills may tear the *tail*, never the middle.
    """
    # Lazy, like every repro import here: sim.journal imports this
    # module at start-up, so it stays stdlib-only at module level.
    from repro.obs.export import open_spans
    from repro.obs.trace import read_spans_dir, spans_dir_for

    records, damaged = read_spans_dir(spans_dir_for(chaos_journal))
    by_slot: dict[int, list[dict]] = {}
    for rec in open_spans(records):
        slot = rec.get("slot", -1)
        if isinstance(slot, int) and slot >= 0:
            by_slot.setdefault(slot, []).append(rec)
    victims = []
    for slot in sorted(by_slot):
        last = by_slot[slot][-5:]
        victims.append({
            "slot": slot,
            "node": last[-1].get("node", -1),
            "spans": [
                {"name": r.get("name", ""), "key": r.get("key", ""),
                 "ts": r.get("ts", 0.0)}
                for r in last
            ],
        })
    report.flight = {
        "spans": len(records),
        "damaged": damaged,
        "victims": victims,
    }
    if damaged:
        report.problems.append(
            f"{damaged} damaged span record(s) in the spill — a crash "
            "may tear the tail, never the interior"
        )


def _check_invariants(
    report: DrillReport,
    plan: ChaosPlan,
    state_dir: Path,
    keys: list[str],
    ref_journal: Path,
    chaos_journal: Path,
    chaos_cache: Path,
) -> None:
    from repro.sim.journal import Journal

    report.injected = ChaosEngine.injected(state_dir)

    # Injection record consistent with the plan.
    valid_ids = set(range(len(plan.events)))
    for rec in report.injected:
        idx = rec.get("event")
        if idx not in valid_ids:
            report.problems.append(f"injection record for unknown event {idx}")
        elif rec.get("kind") != plan.events[idx].kind:
            report.problems.append(
                f"injection record kind {rec.get('kind')!r} does not match "
                f"plan event {idx} ({plan.events[idx].kind!r})"
            )
    fired_kinds = {rec.get("kind") for rec in report.injected}
    for kind in REQUIRED_KINDS:
        if kind not in fired_kinds:
            report.problems.append(f"required fault never fired: {kind}")

    ref = Journal(ref_journal)
    chaos_j = Journal(chaos_journal)

    # Every key terminal ``done``.
    done = chaos_j.completed_keys()
    missing = [k for k in keys if k not in done]
    if missing:
        report.problems.append(
            f"key(s) not terminal done in the chaos journal: {missing}"
        )

    # Results byte-identical to the fault-free serial reference.
    for key in keys:
        ref_bytes = ref.load_result_bytes(key)
        chaos_bytes = chaos_j.load_result_bytes(key)
        if ref_bytes is None:
            report.problems.append(f"reference sidecar unreadable for {key}")
        elif chaos_bytes is None:
            report.problems.append(f"chaos sidecar unreadable for {key}")
        elif ref_bytes != chaos_bytes:
            report.problems.append(
                f"result bytes differ from the fault-free reference for "
                f"{key}"
            )

    # No orphan tmp files survive the final resume (the journal sweeps
    # them at batch start), and no torn/corrupt line survives in the
    # journal itself.
    orphans = [
        p.name
        for d in (ref.results_dir, chaos_j.results_dir) if d.exists()
        for p in sorted(d.glob("*.tmp"))
    ]
    if orphans:
        report.problems.append(f"orphan sidecar tmp file(s): {orphans}")
    scan = chaos_j.scan()
    report.scan = {
        "records": len(scan.records),
        "torn_tail": scan.torn_tail,
        "corrupt_records": scan.corrupt_records,
        "checksum_failures": scan.checksum_failures,
    }
    if scan.torn_tail or scan.corrupt_records or scan.checksum_failures:
        report.problems.append(
            f"final journal is not clean: torn={scan.torn_tail} "
            f"corrupt={scan.corrupt_records} "
            f"checksum={scan.checksum_failures}"
        )

    # Quarantines cannot exceed the faults injected against the artifact.
    for artifact, directory, kind in (
        ("sidecar", chaos_j.results_dir, KIND_SIDECAR_CORRUPT),
        ("sim-cache", chaos_cache, KIND_SIMCACHE_CORRUPT),
    ):
        quarantined = len(list(directory.glob("*.corrupt")))
        faults = sum(1 for rec in report.injected if rec.get("kind") == kind)
        report.quarantined[artifact] = quarantined
        if quarantined > faults:
            report.problems.append(
                f"{quarantined} {artifact} file(s) quarantined but only "
                f"{faults} {artifact} fault(s) injected"
            )


__all__ = [
    "ChaosEngine",
    "ChaosInjectedError",
    "ChaosPlan",
    "DRILL_WORKLOADS",
    "DrillReport",
    "DrillRound",
    "FAULT_KINDS",
    "FaultEvent",
    "KIND_SIDECAR_CORRUPT",
    "KIND_SIMCACHE_CORRUPT",
    "KIND_TORN_TAIL",
    "KIND_TO_SITE",
    "KIND_WORKER_EXCEPTION",
    "KIND_WORKER_KILL",
    "PLAN_ENV",
    "REQUIRED_KINDS",
    "SITE_JOURNAL_APPEND",
    "SITE_SIDECAR_STORE",
    "SITE_SIMCACHE_STORE",
    "SITE_TASK",
    "STATE_ENV",
    "active",
    "attach_registry",
    "fire",
    "install",
    "run_drill",
    "uninstall",
]
