"""Command-line interface.

Exposes the library's common operations without writing Python:

    python -m repro list                      # the Table II suite
    python -m repro run Lulesh --system carve-hwc
    python -m repro compare Lulesh            # all headline systems
    python -m repro suite carve-hwc --jobs 4  # fault-tolerant batch
    python -m repro trace Lulesh              # Perfetto-loadable trace
    python -m repro sharing XSBench           # Fig. 4-style analysis
    python -m repro configs                   # experiment registry
    python -m repro cache --clear             # simulation run/trace cache
    python -m repro baseline record           # commit run records
    python -m repro baseline compare          # two-tier regression gate
    python -m repro report                    # markdown/HTML dashboard
    python -m repro lint                      # determinism/invariant lint
    python -m repro serve --port 8765         # async job service (HTTP)

``run`` and ``trace`` accept ``--metrics-out PATH`` to dump the metric
registry (see ``docs/metrics.md``) as JSON; ``trace`` additionally
writes Chrome ``trace_event`` JSON for
https://ui.perfetto.dev (see ``docs/observability.md``).  The baseline
store, the regression gate's two tiers, and the report layout are
documented in ``docs/regression.md``.

Exit status: 0 on success, 1 when a batch finished with failed points
(or a baseline comparison found a regression, or ``lint`` found new
findings), 2 on an invalid configuration or a missing baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.bottleneck import analyze, render
from repro.analysis.report import format_table
from repro.analysis.sharing import profile_sharing
from repro.config import ConfigError
from repro.numa.system import ENGINE_REFERENCE, ENGINE_VECTORIZED
from repro.obs import Observability
from repro.obs.export import (
    assemble_trace,
    build_chrome_trace,
    write_metrics_json,
    write_trace,
)
from repro.sim import cache as simcache
from repro.sim import experiments as E
from repro.sim.driver import run_workload
from repro.sim.runner import RunnerPolicy, default_journal_dir
from repro.workloads import suite
from repro.workloads.base import generate_trace

_HEADLINE = (E.SINGLE_GPU, E.NUMA_GPU, E.NUMA_REPL_RO, E.CARVE_HWC, E.IDEAL)

#: Points covered by ``baseline record``/``compare`` when not narrowed:
#: the CARVE headline system against the NUMA baseline, on two
#: behaviourally different workloads — small enough to re-run in
#: seconds, wide enough to catch traffic-shape drift.
DEFAULT_BASELINE_SYSTEMS = (E.CARVE_HWC, E.NUMA_GPU)
DEFAULT_BASELINE_WORKLOADS = ("Lulesh", "Euler")


def _cmd_list(_args) -> int:
    rows = [
        [s, name, abbr, fp, suite.GROUPS[abbr]]
        for (s, name, abbr, fp) in suite.table2_rows()
    ]
    print(format_table(
        ["suite", "benchmark", "abbr", "footprint", "behaviour group"],
        rows, title="Workload suite (Table II)",
    ))
    return 0


def _cmd_configs(_args) -> int:
    rows = []
    for name, cfg in E.experiment_configs().items():
        rdc = "-" if cfg.rdc is None else (
            f"{cfg.rdc.size_bytes / 2**30:g} GB / {cfg.rdc.coherence}"
        )
        rows.append([
            name, str(cfg.n_gpus), cfg.replication,
            "yes" if cfg.migration else "no", rdc,
        ])
    print(format_table(
        ["config", "GPUs", "replication", "migration", "RDC"],
        rows, title="Experiment configurations",
    ))
    return 0


def _positive(kind=int, *, zero_ok: bool = False):
    """argparse ``type=``: a *kind* number above zero (or at least zero
    with *zero_ok*).  A bad value exits 2 with a usage line at parse
    time, before any batch, drill or server starts."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > 0 or (zero_ok and value == 0)):
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if zero_ok else '> 0'}, got {text}")
        return value
    return parse


def _gb_bytes(text: str) -> int:
    """argparse ``type=`` for ``--rdc-gb``: a size in GB, returned in
    bytes.  Only the number is checked here; a zero or negative size
    reaches config validation and is refused there (exit 2)."""
    try:
        return int(float(text) * 2**30)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"invalid size in GB: {text!r}") from None


class _StoreGiven(argparse.Action):
    """Store the value and note the option in ``given``, so a command
    can tell an option typed on the command line from its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, option_string)


def _write_metrics(path: str, obs: Observability, **extra) -> None:
    """The one ``--metrics-out`` writer: *obs* plus *extra* top-level
    fields."""
    write_metrics_json(path, obs, extra=extra)
    print(f"metrics written to {path}")


def _cmd_run(args) -> int:
    cfg = E.config_for(args.system, rdc_bytes=args.rdc_bytes)
    obs = Observability() if args.metrics_out else None
    result = run_workload(args.workload, cfg, label=args.system,
                          use_cache=not args.no_cache, obs=obs)
    print(render(analyze(result, cfg)))
    if obs is not None:
        _write_metrics(args.metrics_out, obs,
                       workload=args.workload, system=args.system)
    return 0


def _cmd_trace(args) -> int:
    """Two modes: assemble a batch timeline from a runner journal
    (--journal, docs/tracing.md), or run one workload under full
    observation and export its kernel trace."""
    if args.batch_journal:
        mixed = ([args.workload] if args.workload else []) + [*args.given]
        if mixed:
            print(f"repro trace: --journal assembles a recorded batch and "
                  f"takes no workload, --system, --rdc-gb or "
                  f"--metrics-out (got {', '.join(mixed)})",
                  file=sys.stderr)
            return 2
        return _assemble_journal(Path(args.batch_journal), args.out)
    if not args.workload:
        print("repro trace: a workload (or --journal) is required",
              file=sys.stderr)
        return 2
    cfg = E.config_for(args.system, rdc_bytes=args.rdc_bytes)
    obs = Observability(trace=True)
    # Tracing requires an actual execution: a disk-cached result would
    # produce an empty trace, so the cache is always bypassed here.
    result = run_workload(args.workload, cfg, label=args.system,
                          use_cache=False, obs=obs)
    out = args.out or f"{args.workload}-{args.system}.trace.json"
    write_trace(out, build_chrome_trace(result, cfg, obs))
    dropped = obs.tracer.dropped
    print(f"{len(obs.tracer)} event(s) retained"
          + (f", {dropped} dropped (ring full)" if dropped else ""))
    print(f"Chrome trace written to {out} — open at https://ui.perfetto.dev")
    if args.metrics_out:
        _write_metrics(args.metrics_out, obs,
                       workload=args.workload, system=args.system)
    return 0


def _assemble_journal(journal: Path, out: Optional[str]) -> int:
    """Assemble every batch of a runner journal into one Perfetto
    timeline."""
    if not journal.exists():
        print(f"repro trace: no journal at {journal}", file=sys.stderr)
        return 1
    doc = assemble_trace(journal, title=journal.stem)
    out = out or f"{journal.stem}.trace.json"
    write_trace(out, doc)
    meta = doc["otherData"]
    print(f"{meta['attempts']} attempt(s) in {meta['batches']} batch(es) "
          f"assembled from {journal} ({meta['unfinished']} unfinished)")
    print(f"Perfetto trace written to {out} — open at "
          f"https://ui.perfetto.dev")
    return 0


def _cmd_compare(args) -> int:
    runs = E.run_suites(
        {name: E.SuiteRun(name, E.config_for(name, rdc_bytes=args.rdc_bytes))
         for name in _HEADLINE},
        workloads=[args.workload], use_cache=not args.no_cache,
    )
    t_single = runs[E.SINGLE_GPU].time_s(args.workload)
    rows = []
    for name, run in runs.items():
        r = run.results[args.workload]
        rows.append([name, f"{t_single / run.time_s(args.workload):.2f}x",
                     f"{r.remote_fraction:.1%}",
                     f"{r.replication_pressure:.2f}x"])
    print(format_table(
        ["system", "speedup vs 1 GPU", "remote accesses", "memory pressure"],
        rows, title=f"{args.workload} across the headline systems",
    ))
    return 0


def _cmd_suite(args) -> int:
    """Run one configuration across workloads via the fault-tolerant
    runner; exits 1 when any point ultimately fails so scripts and CI
    can observe partial batches."""
    journal = args.journal or str(
        default_journal_dir() / f"suite-{args.system}.jsonl"
    )
    policy = RunnerPolicy(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        keep_going=args.keep_going,
        journal_path=journal,
        resume=args.resume,
        pin=args.pin,
        fsync_journal=args.fsync_journal,
    )
    run = E.run_suite(
        args.system,
        workloads=args.workloads,
        rdc_bytes=args.rdc_bytes,
        use_cache=not args.no_cache,
        runner=policy,
    )
    rows = []
    for abbr in (args.workloads or suite.all_abbrs()):
        if abbr in run.results:
            rows.append([abbr, f"{run.time_s(abbr):.4g} s", "ok"])
        elif abbr in run.failures:
            f = run.failures[abbr]
            rows.append([abbr, "-", f"{f.kind} x{f.attempts}"])
        else:
            rows.append([abbr, "-", "cancelled"])
    print(format_table(
        ["workload", "time", "status"],
        rows, title=f"{args.system} suite (journal: {journal})",
    ))
    if not run.ok:
        print(f"\n{len(run.failures)} failed, {len(run.cancelled)} "
              f"cancelled point(s):", file=sys.stderr)
        print(run.failure_summary(), file=sys.stderr)
        print("re-run with --resume to retry only the failed points",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    """Run the seeded crash drill (docs/chaos.md): a fault-free serial
    reference sweep, then the same sweep under a chaos plan with the
    batch SIGKILLed between --resume rounds, then invariant checks
    (byte-identical results, terminal journal, no orphans).  Exits 1
    when any invariant is violated."""
    import shutil
    import tempfile

    from repro.sim.chaos import DRILL_WORKLOADS, run_drill

    explicit_dir = args.dir is not None
    root = (
        Path(args.dir) if explicit_dir
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    )
    report = run_drill(
        root,
        seed=args.seed,
        system=args.system,
        workloads=args.workloads or DRILL_WORKLOADS,
        rounds=args.rounds,
        jobs=args.jobs,
        pin=args.pin,
    )
    print(report.render())
    if report.ok and not explicit_dir:
        shutil.rmtree(root, ignore_errors=True)
    elif not report.ok:
        print(f"\ndrill workspace kept for inspection: {root}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_sharing(args) -> int:
    cfg = E.config_for(E.NUMA_GPU)
    spec = suite.get(args.workload)
    profile = profile_sharing(generate_trace(spec, cfg), cfg)
    page = profile.access_distribution("page")
    line = profile.access_distribution("line")
    print(format_table(
        ["granularity", "private", "ro-shared", "rw-shared"],
        [
            ["2 MB page", f"{page.private:.1%}", f"{page.ro_shared:.1%}",
             f"{page.rw_shared:.1%}"],
            ["128 B line", f"{line.private:.1%}", f"{line.ro_shared:.1%}",
             f"{line.rw_shared:.1%}"],
        ],
        title=f"{args.workload}: access distribution (Fig. 4 analysis)",
    ))
    fp = profile.shared_footprint_bytes()
    print(f"\nshared working-set cover: {fp / 2**30:.2f} GB "
          f"(aggregate LLC: {cfg.total_llc_bytes / 2**20:.0f} MB)")
    return 0


def _cmd_baseline(args) -> int:
    """Record, compare, or list the committed baseline store."""
    from repro.obs.baseline import BaselineStore, collect_run_record
    from repro.obs.regress import compare_records, summarize_reports

    store = BaselineStore(args.dir)

    if args.action == "list":
        entries = store.entries()
        if not entries:
            print(f"baseline store {store.root} is empty")
            return 0
        rows = []
        for e in entries:
            fp = e.record.get("fingerprint", {})
            det = e.record.get("deterministic", {})
            rows.append([
                e.system, e.workload,
                str(fp.get("code_version", "-")),
                fp.get("git_sha") or "-",
                fp.get("engine", "-"),
                f"{det.get('sim.accesses', 0):,}",
            ])
        print(format_table(
            ["system", "workload", "code ver", "git sha", "engine",
             "accesses"],
            rows, title=f"baseline store ({store.root})",
        ))
        return 0

    # Systems-major, so the output stays grouped by system.
    points = [(s, w) for s in args.systems for w in args.workloads]

    if args.action == "record":
        for system, workload in points:
            cfg = E.config_for(system, rdc_bytes=args.rdc_bytes)
            record = collect_run_record(
                workload, system, cfg, engine=args.engine
            )
            path = store.save(record)
            det = record["deterministic"]
            print(f"recorded {system}/{workload} -> {path} "
                  f"(accesses={det['sim.accesses']:,}, "
                  f"rdc.hit={det['rdc.hit']:,})")
        return 0

    # compare: re-run every point and gate it against the store.
    reports = []
    missing = []
    for system, workload in points:
        baseline = store.load(system, workload)
        if baseline is None:
            missing.append(f"{system}/{workload}")
            continue
        cfg = E.config_for(system, rdc_bytes=args.rdc_bytes)
        current = collect_run_record(
            workload, system, cfg, engine=args.engine
        )
        reports.append(compare_records(baseline, current))
    if reports:
        print(summarize_reports(reports))
    if args.report:
        from repro.obs.report import comparison_markdown

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(comparison_markdown(reports) + "\n")
        print(f"comparison report written to {args.report}")
    if missing:
        print(
            f"no baseline recorded for: {', '.join(missing)} "
            f"(run `python -m repro baseline record` first)",
            file=sys.stderr,
        )
        return 2
    return 0 if all(r.ok for r in reports) else 1


def _cmd_report(args) -> int:
    """Aggregate journals + metrics dumps into the markdown dashboard."""
    from repro.obs.report import build_report, markdown_to_html

    journals = args.journal or sorted(
        str(p) for p in default_journal_dir().glob("*.jsonl")
    )
    md = build_report(
        journal_paths=journals,
        metrics_paths=args.metrics or (),
    )
    Path(args.out).write_text(md, encoding="utf-8")
    print(f"report written to {args.out} "
          f"({len(journals)} journal(s), {len(args.metrics or ())} "
          f"metrics dump(s))")
    if args.html:
        Path(args.html).write_text(markdown_to_html(md), encoding="utf-8")
        print(f"HTML report written to {args.html}")
    return 0


def _cmd_lint(args) -> int:
    """Run the determinism/invariant linter (docs/lint.md)."""
    from repro.lint import LintConfigError, run_lint

    try:
        result = run_lint(args.path, select=args.select,
                          repo_root=args.root, ver_base=args.ver_base)
    except LintConfigError as exc:
        print(f"error: invalid lint configuration: {exc}",
              file=sys.stderr)
        return 2
    print(result.render(args.format))
    return result.exit_code


def _cmd_serve(args) -> int:
    """Run the async job service until interrupted (docs/serve.md)."""
    import asyncio

    from repro.serve.service import serve

    print(f"repro serve listening on http://{args.host}:{args.port} "
          f"(pool jobs: {args.jobs}, queue depth: {args.queue_depth}, "
          f"store: {args.store})")
    try:
        asyncio.run(serve(
            args.host, args.port,
            store_dir=args.store,
            pool_jobs=args.jobs,
            queue_depth=args.queue_depth,
            store_max_bytes=args.store_max_bytes,
            pool_pin=args.pin,
        ))
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def _cmd_cache(args) -> int:
    if args.clear:
        n = simcache.clear()
        print(f"removed {n} cache file(s) (runs and traces) from "
              f"{simcache.cache_dir()}")
    else:
        parts = []
        for what, entries in (("run", simcache.entries()),
                              ("trace", simcache.trace_entries())):
            total = sum(p.stat().st_size for p in entries)
            parts.append(f"{len(entries)} cached {what}(s), "
                         f"{total / 2**20:.1f} MiB")
        print(f"{'; '.join(parts)} in {simcache.cache_dir()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CARVE multi-GPU NUMA simulator (MICRO 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    configs = sorted(E.experiment_configs())
    abbrs = suite.all_abbrs()

    # The options several subcommands share, each defined once.  A
    # subcommand picks its own default with set_defaults.
    shared = {
        "--system": dict(choices=configs,
                         help="experiment configuration "
                              "(default: %(default)s)"),
        "--rdc-gb": dict(dest="rdc_bytes", type=_gb_bytes, default="2",
                         metavar="GB",
                         help="RDC size per GPU in GB (CARVE systems; "
                              "default: 2)"),
        "--workloads": dict(nargs="+", choices=abbrs,
                            help="workload subset (default: all for "
                                 "suite, Lulesh Euler CoMD MCB for "
                                 "chaos, Lulesh Euler for baseline)"),
        "--no-cache": dict(action="store_true",
                           help="bypass the simulation result cache"),
        "--metrics-out": dict(metavar="PATH",
                              help="write the metric registry "
                                   "(docs/metrics.md) as JSON"),
        "--jobs": dict(type=_positive(), metavar="N",
                       help="pool worker processes; 1 runs in-process "
                            "(default: %(default)s)"),
        "--pin": dict(action="store_true",
                      help="pin pool workers round-robin across NUMA "
                           "nodes (no-op where unsupported)"),
    }

    def options(*flags: str, note_given: bool = False
                ) -> argparse.ArgumentParser:
        # A fresh parent per subcommand: argparse gives every child the
        # parent's own action objects, so one child's set_defaults
        # would otherwise change its siblings' defaults too.
        parent = argparse.ArgumentParser(add_help=False)
        extra = {}
        if note_given:
            extra = dict(action=_StoreGiven)
            parent.set_defaults(given=())
        for flag in flags:
            parent.add_argument(flag, **shared[flag], **extra)
        return parent

    sub.add_parser("list", help="list the workload suite").set_defaults(
        fn=_cmd_list
    )
    sub.add_parser("configs", help="list experiment configs").set_defaults(
        fn=_cmd_configs
    )

    run_p = sub.add_parser(
        "run", help="simulate one workload",
        parents=[options("--system", "--rdc-gb", "--no-cache",
                         "--metrics-out")],
    )
    run_p.add_argument("workload", choices=abbrs)
    run_p.set_defaults(fn=_cmd_run, system=E.CARVE_HWC)

    trace_p = sub.add_parser(
        "trace",
        help="assemble a batch timeline from its journal (--journal), "
             "or run one workload with tracing on; either way the "
             "output is a Perfetto-loadable Chrome trace",
        parents=[options("--system", "--rdc-gb", "--metrics-out",
                         note_given=True)],
    )
    trace_p.add_argument("workload", nargs="?", default=None,
                         choices=abbrs)
    trace_p.add_argument("--journal", dest="batch_journal", default=None,
                         metavar="PATH",
                         help="assemble the timeline of every batch "
                              "a runner journal records")
    trace_p.add_argument("--out", default=None, metavar="PATH",
                         help="Chrome trace path (default: "
                              "<workload>-<system>.trace.json)")
    trace_p.set_defaults(fn=_cmd_trace, system=E.CARVE_HWC)

    cmp_p = sub.add_parser("compare", help="compare the headline systems",
                           parents=[options("--rdc-gb", "--no-cache")])
    cmp_p.add_argument("workload", choices=abbrs)
    cmp_p.set_defaults(fn=_cmd_compare)

    suite_p = sub.add_parser(
        "suite",
        help="run one config across workloads (fault-tolerant batch)",
        parents=[options("--workloads", "--rdc-gb", "--jobs", "--pin",
                         "--no-cache")],
    )
    suite_p.add_argument("system", choices=configs)
    suite_p.add_argument("--timeout", type=_positive(float), default=None,
                         metavar="SECONDS",
                         help="per-point wall-clock budget")
    suite_p.add_argument("--retries", type=_positive(zero_ok=True), default=0,
                         help="retries per point (exponential backoff)")
    suite_p.add_argument("--fail-fast", dest="keep_going",
                         action="store_false",
                         help="abort the batch on the first final failure "
                              "(default: record it and continue)")
    suite_p.add_argument("--journal", default=None, metavar="PATH",
                         help="JSONL execution journal (default: "
                              ".repro-journal/suite-<system>.jsonl)")
    suite_p.add_argument("--fsync-journal", action="store_true",
                         help="fsync every journal append and sidecar "
                              "store (power-loss durability; slower)")
    suite_p.add_argument("--resume", action="store_true",
                         help="skip points the journal records as done "
                              "under the same configuration")
    suite_p.set_defaults(fn=_cmd_suite, jobs=1)

    chaos_p = sub.add_parser(
        "chaos",
        help="seeded crash drill: sweep under a fault plan, kill and "
             "resume repeatedly, assert byte-identical convergence "
             "(docs/chaos.md)",
        parents=[options("--system", "--workloads", "--jobs", "--pin")],
    )
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="chaos plan seed (same seed = same fault "
                              "schedule)")
    chaos_p.add_argument("--rounds", type=_positive(), default=3, metavar="N",
                         help="chaos rounds; all but the last are "
                              "SIGKILLed mid-batch (default: 3)")
    chaos_p.add_argument("--dir", default=None, metavar="DIR",
                         help="drill workspace (kept afterwards; default: "
                              "a tmp dir, removed when the drill passes)")
    chaos_p.set_defaults(fn=_cmd_chaos, system=E.NUMA_GPU, jobs=2)

    sh_p = sub.add_parser("sharing", help="page/line sharing analysis")
    sh_p.add_argument("workload", choices=abbrs)
    sh_p.set_defaults(fn=_cmd_sharing)

    cache_p = sub.add_parser("cache",
                             help="inspect/clear the run and trace cache")
    cache_p.add_argument("--clear", action="store_true")
    cache_p.set_defaults(fn=_cmd_cache)

    base_p = sub.add_parser(
        "baseline",
        help="record/compare/list the committed run-record baseline "
             "store (docs/regression.md)",
        parents=[options("--workloads", "--rdc-gb")],
    )
    base_p.add_argument("action", choices=("record", "compare", "list"))
    base_p.add_argument("--dir", default="baselines", metavar="DIR",
                        help="baseline store root (default: baselines/)")
    base_p.add_argument("--systems", nargs="+", choices=configs,
                        default=list(DEFAULT_BASELINE_SYSTEMS),
                        help="systems to record/compare "
                             "(default: carve-hwc numa-gpu)")
    base_p.add_argument("--engine", default=ENGINE_VECTORIZED,
                        choices=(ENGINE_VECTORIZED, ENGINE_REFERENCE),
                        help="execution engine; deterministic counters "
                             "must be bit-exact across engines")
    base_p.add_argument("--report", default=None, metavar="PATH",
                        help="write the comparison as markdown (compare)")
    base_p.set_defaults(fn=_cmd_baseline,
                        workloads=list(DEFAULT_BASELINE_WORKLOADS))

    lint_p = sub.add_parser(
        "lint",
        help="determinism & invariant lint over src/repro "
             "(docs/lint.md)",
    )
    lint_p.add_argument("path", nargs="?", default="src/repro",
                        help="scan root (default: src/repro)")
    lint_p.add_argument("--root", default=None, metavar="DIR",
                        help="repository root: path display anchor and "
                             "VER001 git anchor (default: "
                             "auto-discovered from the scan root)")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default: text)")
    lint_p.add_argument("--select", nargs="+", default=None,
                        metavar="ID",
                        help="run only these rule ids (VER001 is "
                             "CI-only and must be selected explicitly)")
    lint_p.add_argument("--ver-base", default=None, metavar="REF",
                        help="merge-base ref for VER001 (default: try "
                             "origin/main then main, skipping with a "
                             "notice when neither resolves; an "
                             "explicit ref that fails is exit 2)")
    lint_p.set_defaults(fn=_cmd_lint)

    serve_p = sub.add_parser(
        "serve",
        help="run the async job service: HTTP submit/status/result/"
             "report over the worker-pool fabric (docs/serve.md)",
        parents=[options("--jobs", "--pin")],
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="bind port, 0 for ephemeral "
                              "(default: 8765)")
    serve_p.add_argument("--queue-depth", type=_positive(), default=8,
                         metavar="N",
                         help="bounded submission queue depth; a full "
                              "queue answers 429 + Retry-After "
                              "(default: 8)")
    serve_p.add_argument("--store", default=".repro-serve",
                         metavar="DIR",
                         help="content-addressed result store + "
                              "per-job journals (default: .repro-serve)")
    serve_p.add_argument("--store-max-bytes", type=_positive(), default=None,
                         metavar="N",
                         help="bound the store; least-recently-used "
                              "entries (result + journal + sidecars) are "
                              "evicted past N bytes (default: unbounded)")
    serve_p.set_defaults(fn=_cmd_serve, jobs=2)

    report_p = sub.add_parser(
        "report",
        help="aggregate journals and metrics dumps into a "
             "markdown (+HTML) dashboard",
    )
    report_p.add_argument("--journal", nargs="+", default=None,
                          metavar="PATH",
                          help="runner journal(s) (default: every "
                               ".jsonl under .repro-journal/)")
    report_p.add_argument("--metrics", nargs="+", default=None,
                          metavar="PATH",
                          help="--metrics-out JSON dump(s) to render "
                               "link-traffic matrices from")
    report_p.add_argument("--out", default="report.md", metavar="PATH",
                          help="markdown output path (default: report.md)")
    report_p.add_argument("--html", default=None, metavar="PATH",
                          help="also render a standalone HTML page")
    report_p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # One clear line naming the offending field, before (not during)
        # any simulation.
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
