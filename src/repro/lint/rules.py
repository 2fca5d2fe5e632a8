"""AST-visitor lint rules enforcing the reproduction's invariants.

Every rule subclasses :class:`Rule` and yields
:class:`~repro.lint.findings.Finding` objects from
:meth:`Rule.check_module`.  The rules are deliberately repo-specific:
they encode the invariants the whole reproduction chain rests on —
bit-identical engine results, the ``CODE_VERSION``-keyed sim cache, and
the bit-exact baseline gates (see ``docs/lint.md`` for the catalogue).

Module paths are matched *relative to the scanned package root* with
posix separators (``core/imst.py``), so the rules work unchanged on
fixture trees in tests.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.lint.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)
from repro.lint.scope import import_path


class ModuleContext:
    """One parsed module handed to every AST rule."""

    def __init__(self, rel_path: str, source: str,
                 tree: Optional[ast.AST] = None) -> None:
        self.rel_path = rel_path  # posix, relative to the scan root
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)


class Rule:
    """Base class: one rule id, one severity, one module-level check."""

    id = "XXX000"
    severity = SEVERITY_ERROR
    title = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            rule=self.id, severity=self.severity, path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _import_aliases(tree: ast.AST) -> dict:
    """``local name -> canonical dotted name`` for a module's imports.

    ``import time`` maps ``time -> time``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``;
    ``import numpy as np`` maps ``np -> numpy``.
    """
    aliases: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _resolve_call_name(func: ast.AST, aliases: dict) -> Optional[str]:
    """Canonical dotted name of a call target, or None."""
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


class WallClockRule(Rule):
    """DET001 — no wall-clock reads on the deterministic simulated path.

    ``ENGINE_REFERENCE`` and ``ENGINE_VECTORIZED`` must produce
    bit-identical counters and the sim cache replays results across
    runs, so nothing under the simulated path may observe real time.
    Orchestration code that *measures* wall time (the fault-tolerant
    runner's timeouts) is exempt via :attr:`ALLOWLIST`.
    """

    id = "DET001"
    severity = SEVERITY_ERROR
    title = "wall-clock read on the deterministic simulated path"

    #: Path prefixes forming the deterministic simulated path (plus the
    #: obs layer, whose digests feed bit-exact baseline records, and the
    #: serve layer, kept in scope so any future leak of wall time into a
    #: result payload needs an explicit allowlist entry here).
    SCOPE = ("core/", "numa/", "gpu/", "perf/", "workloads/", "memory/",
             "sim/", "obs/", "serve/")
    #: Modules whose entire purpose is wall-clock orchestration:
    #: the runner's timeouts/backoff, the chaos drill's round timing,
    #: the job service's latency metrics + client-facing timestamps
    #: (serve/jobs.py) and client-side polling deadlines
    #: (serve/client.py), and the distributed-trace spill (obs/trace.py),
    #: whose span records are timestamped observability metadata — none
    #: of which feed simulation results.
    ALLOWLIST = ("sim/runner.py", "sim/chaos.py", "serve/jobs.py",
                 "serve/client.py", "obs/trace.py")

    BANNED = frozenset({
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.rel_path.startswith(self.SCOPE):
            return
        if ctx.rel_path in self.ALLOWLIST:
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve_call_name(node.func, aliases)
            if name in self.BANNED:
                yield self.finding(
                    ctx, node,
                    f"{name}() reads the wall clock inside the "
                    f"deterministic simulated path; results must not "
                    f"depend on real time",
                )


class ReachableInputRule(Rule):
    """DET004 — no clock, entropy or environment read in any module the
    simulated path imports.

    Where DET001 looks at fixed trees, DET004 follows the import walk
    of :mod:`repro.lint.scope` from the simulated path's root modules,
    so a helper module outside those trees cannot carry a
    non-deterministic value into results unseen.  DET001's
    :attr:`~WallClockRule.ALLOWLIST` is honoured.
    """

    id = "DET004"
    severity = SEVERITY_ERROR
    title = "non-deterministic input in a module the simulated path imports"

    SOURCES = WallClockRule.BANNED | {"os.urandom", "os.getenv",
                                      "os.environ.get"}

    def __init__(self, parents: dict) -> None:
        #: Import-walk parents: reached module -> its first importer.
        self.parents = parents

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel_path not in self.parents \
                or ctx.rel_path in WallClockRule.ALLOWLIST:
            return
        path = import_path(self.parents, ctx.rel_path)
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve_call_name(node.func, aliases)
            if name in self.SOURCES:
                yield self.finding(
                    ctx, node,
                    f"{name}() in a module the simulated path imports "
                    f"({path}); a non-deterministic value can flow "
                    f"into simulation results",
                )


class UnseededRandomRule(Rule):
    """DET002 — all randomness must flow from an explicit seed.

    The process-global RNGs (``random.random`` et al.,
    ``numpy.random.<fn>``) and unseeded generator constructions
    (``random.Random()``, ``numpy.random.default_rng()``) make results
    depend on interpreter state, breaking replay and the bit-exact
    regression gates.
    """

    id = "DET002"
    severity = SEVERITY_ERROR
    title = "unseeded or process-global randomness"

    #: Module-level functions of :mod:`random` that use the global RNG.
    GLOBAL_RANDOM = frozenset({
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    })
    #: Legacy global-state entry points of :mod:`numpy.random`.
    GLOBAL_NUMPY = frozenset({
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "normal",
        "uniform", "poisson", "binomial", "exponential",
    })
    #: Constructors that take their seed as the first argument.
    SEEDED_CTORS = frozenset({
        "random.Random", "random.SystemRandom",
        "numpy.random.default_rng", "numpy.random.RandomState",
    })

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve_call_name(node.func, aliases)
            if name is None:
                continue
            if name in self.SEEDED_CTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"{name}() constructed without an explicit "
                        f"seed; pass a seed so runs replay exactly",
                    )
                continue
            if name.startswith("random."):
                fn = name.split(".", 1)[1]
                if fn in self.GLOBAL_RANDOM:
                    yield self.finding(
                        ctx, node,
                        f"{name}() uses the process-global RNG; use an "
                        f"explicitly seeded random.Random / "
                        f"numpy default_rng instead",
                    )
            elif name.startswith("numpy.random."):
                fn = name.split(".", 2)[2]
                if fn in self.GLOBAL_NUMPY:
                    yield self.finding(
                        ctx, node,
                        f"{name}() uses numpy's global RNG state; use "
                        f"an explicitly seeded "
                        f"numpy.random.default_rng(seed) instead",
                    )


class UnsortedIterationRule(Rule):
    """DET003 — set/dict-key iteration feeding output must be sorted.

    Journals, baseline records and reports are diffed byte-for-byte
    across runs and machines; iterating a bare ``set`` (hash-randomised
    for strings) or ``dict.keys()`` into them makes the output order an
    accident.  Wrap the iterable in ``sorted(...)``.
    """

    id = "DET003"
    severity = SEVERITY_WARNING
    title = "unordered iteration feeding journal/baseline/report output"

    #: The modules whose output is diffed across runs.
    SCOPE = (
        "sim/journal.py", "sim/durable.py", "obs/baseline.py", "obs/report.py",
        "obs/export.py", "obs/regress.py", "obs/summary.py",
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel_path not in self.SCOPE:
            return
        for node in ast.walk(ctx.tree):
            iters: Sequence[ast.AST] = ()
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = (node.iter,)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters = tuple(gen.iter for gen in node.generators)
            for it in iters:
                problem = self._unordered(it)
                if problem:
                    yield self.finding(
                        ctx, it,
                        f"iterating {problem} without sorted(...) makes "
                        f"the emitted order non-deterministic",
                    )

    @staticmethod
    def _unordered(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return "dict.keys()"
            if isinstance(func, ast.Name) and func.id in ("set",
                                                          "frozenset"):
                return f"a bare {func.id}(...)"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        return None


class EnumGroup:
    """One named set of enum-like constants a module matches on."""

    def __init__(self, name: str, members: Sequence[str]) -> None:
        self.name = name
        self.members = frozenset(members)


class ExhaustivenessRule(Rule):
    """COH001 — every (state, event) arm of the protocol enums handled.

    The GPU-VI/IMST sharing states and the coherence-protocol selector
    are int/str constants matched with ``if/elif`` chains.  Adding a
    new state that an existing chain silently falls through is exactly
    the class of bug that corrupts traffic counters without failing a
    test, so this rule demands every match site be exhaustive: an
    ``else`` arm, full member coverage, or an explicit terminal
    catch-all (``return``/``raise``) directly after the chain.
    """

    id = "COH001"
    severity = SEVERITY_ERROR
    title = "non-exhaustive match over a protocol enum"

    #: Modules with an enum-like constant group to check, keyed by the
    #: path relative to the scanned package root.
    GROUPS = {
        "core/imst.py": EnumGroup(
            "IMST sharing state",
            ("UNCACHED", "PRIVATE", "READ_SHARED", "RW_SHARED"),
        ),
        "core/coherence.py": EnumGroup(
            "coherence protocol",
            ("COHERENCE_NONE", "COHERENCE_SOFTWARE",
             "COHERENCE_HARDWARE", "COHERENCE_DIRECTORY"),
        ),
    }

    #: Minimum distinct members a chain must mention before it is
    #: treated as a match over the group (single-member guards are
    #: ordinary conditionals, not matches).
    MIN_MATCHED = 2

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        group = self.GROUPS.get(ctx.rel_path)
        if group is None:
            return
        yield from self._check_dict_displays(ctx, group)
        for fn in ast.walk(ctx.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_bodies(ctx, group, fn)

    # -- dict displays over the group (e.g. STATE_NAMES) ----------------

    def _check_dict_displays(self, ctx, group) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            key_names = [k.id for k in node.keys
                         if isinstance(k, ast.Name)]
            matched = group.members & set(key_names)
            if len(matched) < self.MIN_MATCHED:
                continue
            missing = group.members - set(key_names)
            if missing:
                yield self.finding(
                    ctx, node,
                    f"dict over the {group.name} enum is missing "
                    f"member(s): {', '.join(sorted(missing))}",
                )
            extras = [k for k in key_names
                      if k not in group.members and k.isupper()]
            for extra in extras:
                yield self.finding(
                    ctx, node,
                    f"dict over the {group.name} enum includes "
                    f"{extra}, which is not declared in the COH001 "
                    f"enum group — update ExhaustivenessRule.GROUPS",
                )

    # -- if/elif chains and guard runs -----------------------------------

    def _check_bodies(self, ctx, group, fn) -> Iterator[Finding]:
        for body in self._statement_lists(fn):
            idx = 0
            while idx < len(body):
                stmt = body[idx]
                if not (isinstance(stmt, ast.If)
                        and self._members_in(stmt.test, group)):
                    idx += 1
                    continue
                # An if/elif chain is one statement; a guard run is a
                # maximal sequence of member-testing Ifs whose bodies
                # all terminate.
                covered, has_else, arms_term = self._flatten_chain(
                    stmt, group)
                end = idx + 1
                if not has_else and self._terminates(stmt.body) \
                        and not stmt.orelse:
                    while end < len(body):
                        nxt = body[end]
                        if (isinstance(nxt, ast.If) and not nxt.orelse
                                and self._members_in(nxt.test, group)
                                and self._terminates(nxt.body)):
                            covered |= self._members_in(nxt.test, group)
                            end += 1
                        else:
                            break
                yield from self._judge(
                    ctx, stmt, group, covered, has_else, arms_term,
                    follower=body[end] if end < len(body) else None,
                )
                idx = end

    def _judge(self, ctx, stmt, group, covered, has_else, arms_term,
               follower) -> Iterator[Finding]:
        matched = covered & group.members
        if len(matched) < self.MIN_MATCHED:
            return
        if has_else or matched == group.members:
            return
        # No else and partial coverage: only an explicit terminal
        # catch-all directly after the chain keeps this sound — and it
        # is only a catch-all when every matched arm terminates, so the
        # follower runs exclusively for the unmatched members.
        if arms_term and isinstance(follower, (ast.Return, ast.Raise)):
            return
        missing = sorted(group.members - matched)
        yield self.finding(
            ctx, stmt,
            f"match over the {group.name} enum handles "
            f"{len(matched)}/{len(group.members)} members and has no "
            f"else/catch-all; missing: {', '.join(missing)}",
        )

    def _flatten_chain(self, stmt: ast.If, group):
        covered = set(self._members_in(stmt.test, group))
        node = stmt
        has_else = False
        arms_term = self._terminates(stmt.body)
        while node.orelse:
            if len(node.orelse) == 1 and isinstance(node.orelse[0],
                                                    ast.If):
                node = node.orelse[0]
                covered |= self._members_in(node.test, group)
                arms_term = arms_term and self._terminates(node.body)
            else:
                has_else = True
                break
        return covered, has_else, arms_term

    @staticmethod
    def _members_in(test: ast.AST, group) -> frozenset:
        found = set()
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, rhs in zip(node.ops, node.comparators):
                    if isinstance(op, ast.In) and isinstance(
                            rhs, (ast.Tuple, ast.List, ast.Set)):
                        operands.extend(rhs.elts)
                for operand in operands:
                    if isinstance(operand, ast.Name) \
                            and operand.id in group.members:
                        found.add(operand.id)
        return frozenset(found)

    @staticmethod
    def _terminates(body) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    @staticmethod
    def _statement_lists(fn):
        """Every statement list inside *fn* (bodies, orelse, finally).

        Elif continuations are *not* yielded as their own lists — the
        chain is judged once, from its head — and nested function /
        class bodies are skipped because the caller walks them as
        separate scopes.
        """
        stack = [fn.body]
        while stack:
            body = stack.pop()
            yield body
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.If):
                    node = stmt
                    stack.append(node.body)
                    while (len(node.orelse) == 1
                           and isinstance(node.orelse[0], ast.If)):
                        node = node.orelse[0]
                        stack.append(node.body)
                    if node.orelse:
                        stack.append(node.orelse)
                    continue
                for attr in ("body", "orelse", "finalbody"):
                    child = getattr(stmt, attr, None)
                    if child and isinstance(child, list):
                        stack.append(child)
                for handler in getattr(stmt, "handlers", ()):
                    stack.append(handler.body)


class MetricNameRule(Rule):
    """OBS001 — metric-name string literals must resolve.

    Every string literal that *looks like* a metric (dotted lower-case
    with a known subsystem prefix, see
    :class:`~repro.lint.resolver.MetricNameResolver`) must name a
    declared metric or trace-event kind.  This is the AST half of the
    metric contract; ``tools/check_docs.py`` applies the same resolver
    to the Markdown side.
    """

    id = "OBS001"
    severity = SEVERITY_ERROR
    title = "unresolvable metric name literal"

    def __init__(self, resolver=None) -> None:
        self._resolver = resolver

    @property
    def resolver(self):
        if self._resolver is None:
            from repro.lint.resolver import MetricNameResolver

            self._resolver = MetricNameResolver()
        return self._resolver

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            token = node.value
            if not self.resolver.looks_like_metric(token):
                continue
            problem = self.resolver.resolve(token)
            if problem is not None:
                yield self.finding(ctx, node, problem)


#: The AST rules run by default (VER001 is repo-level and CI-only; see
#: :mod:`repro.lint.versioning`).
DEFAULT_RULES = (
    WallClockRule,
    UnseededRandomRule,
    UnsortedIterationRule,
    ExhaustivenessRule,
    MetricNameRule,
)


__all__ = [
    "DEFAULT_RULES",
    "EnumGroup",
    "ExhaustivenessRule",
    "MetricNameRule",
    "ModuleContext",
    "ReachableInputRule",
    "Rule",
    "UnseededRandomRule",
    "UnsortedIterationRule",
    "WallClockRule",
]
