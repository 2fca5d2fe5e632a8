"""Cross-module import/call graph over the scanned package.

One AST pass per module builds a whole-program :class:`ProjectGraph`:
function and class nodes, call edges between them, and the per-function
facts the project-level rules (DET004/DET005/CONC001-003, see
:mod:`repro.lint.projectrules`) consume.  The graph is a plain picklable
value object — :func:`build_graph` caches it on disk keyed on a hash of
every source file, so unrelated re-runs skip the whole analysis pass.

Precision contract (documented for rule consumers in ``docs/lint.md``):

Resolved (an edge exists):

* direct calls to functions of the same module, ``from``-imported
  functions, and ``mod.fn()`` attribute calls on imported project
  modules (aliases honoured);
* project class construction (``Cls(...)`` → ``Cls.__init__``), and
  method calls on ``self``, on parameters/locals whose class is known
  (``x = Cls(...)``, ``def f(c: Cls)``), on attributes assigned a
  constructed class anywhere in the same class (``self.x = Cls(...)``),
  and directly chained ``Cls(...).m()`` / ``Cls.m(obj)`` — inherited
  methods are found by walking project base classes;
* nested ``def``/``lambda`` bodies are inlined into their enclosing
  function (a callback defined inline is analysed as part of its
  definer);
* module-level statements form a ``<module>`` pseudo-function.

Not resolved (the chain is cut; sites are still counted in
:attr:`ProjectGraph.unresolved_calls`):

* calls on values of unannotated parameters, call results, or container
  elements — there is no interprocedural type inference;
* dynamic dispatch: ``getattr``, string-keyed registries, monkeypatched
  names, ``*``-imports;
* function *values* passed as arguments — notably
  ``asyncio.to_thread(fn)`` / ``run_in_executor``: the executor hop
  deliberately cuts CONC001 chains.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.sim.durable import atomic_write

GRAPH_SCHEMA = 3

#: ``qualname`` of the pseudo-function holding module-level statements.
MODULE_BODY = "<module>"

#: Methods on a bare name treated as mutating the named object in
#: place (for the module-global write fact behind CONC002).
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
})

#: Constructors classified as lock-like for the CONC003 held-context
#: fact (plus any name/attribute whose identifier mentions "lock").
_LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
})


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    #: Resolved project target (``module.py::qualname``) or None.
    target: Optional[str] = None
    #: Dotted name after alias resolution (``time.time``) — kept for
    #: external calls and for unresolved attribute chains (``conn.recv``).
    name: Optional[str] = None
    #: True when *target* names a class: a construction edge.
    construct: bool = False


@dataclass
class HeldContext:
    """A ``with`` block holding a lock or an open file handle."""

    kind: str  # "lock" | "file"
    what: str  # rendered context expression
    line: int
    col: int
    end_line: int


@dataclass
class RngEscape:
    """A zero-argument RNG construction passed into another call."""

    ctor: str  # dotted ctor name, e.g. random.Random
    target: Optional[str]  # resolved callee function id (or None)
    callee_name: Optional[str]  # dotted callee name for the message
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function/method node (or a module-body pseudo-node)."""

    module: str  # scan-root-relative posix path
    qualname: str
    line: int
    is_async: bool = False
    calls: list = field(default_factory=list)  # [CallSite]
    #: Module-level names this function writes: [(name, line, col)].
    global_writes: list = field(default_factory=list)
    #: Project classes referenced outside call position (constructible).
    class_refs: list = field(default_factory=list)
    rng_escapes: list = field(default_factory=list)  # [RngEscape]
    held_contexts: list = field(default_factory=list)  # [HeldContext]

    @property
    def id(self) -> str:
        return f"{self.module}::{self.qualname}"


@dataclass
class ClassInfo:
    """One project class: methods plus resolvable project bases."""

    module: str
    name: str
    line: int
    bases: list = field(default_factory=list)  # resolved class ids
    methods: dict = field(default_factory=dict)  # name -> function id

    @property
    def id(self) -> str:
        return f"{self.module}::{self.name}"


class ProjectGraph:
    """The whole-program call graph plus per-function facts."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: list = []  # rel posix paths, sorted
        self.functions: dict = {}  # id -> FunctionInfo
        self.classes: dict = {}  # id -> ClassInfo
        self.resolved_calls = 0
        self.unresolved_calls = 0

    # -- lookups ---------------------------------------------------------

    def function(self, module: str, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{module}::{qualname}")

    def functions_of(self, module: str):
        prefix = module + "::"
        return [f for fid, f in self.functions.items()
                if fid.startswith(prefix)]

    def resolve_method(self, class_id: str,
                       method: str) -> Optional[str]:
        """Method lookup through project base classes (DFS order)."""
        seen = set()
        stack = [class_id]
        while stack:
            cid = stack.pop(0)
            if cid in seen:
                continue
            seen.add(cid)
            cls = self.classes.get(cid)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    def class_methods(self, class_id: str) -> list:
        """Every method id of *class_id* including inherited ones."""
        out, seen_names, seen_cls = [], set(), set()
        stack = [class_id]
        while stack:
            cid = stack.pop(0)
            if cid in seen_cls:
                continue
            seen_cls.add(cid)
            cls = self.classes.get(cid)
            if cls is None:
                continue
            for name, fid in sorted(cls.methods.items()):
                if name not in seen_names:
                    seen_names.add(name)
                    out.append(fid)
            stack.extend(cls.bases)
        return out

    def stats(self) -> dict:
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "classes": len(self.classes),
            "resolved_calls": self.resolved_calls,
            "unresolved_calls": self.unresolved_calls,
        }

    # -- exports ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": GRAPH_SCHEMA,
            "package": self.package,
            "stats": self.stats(),
            "functions": {
                fid: {
                    "module": fn.module,
                    "qualname": fn.qualname,
                    "line": fn.line,
                    "async": fn.is_async,
                    "calls": [
                        {"line": c.line, "target": c.target,
                         "name": c.name, "construct": c.construct}
                        for c in fn.calls
                    ],
                }
                for fid, fn in sorted(self.functions.items())
            },
            "classes": {
                cid: {"bases": list(cls.bases),
                      "methods": dict(sorted(cls.methods.items()))}
                for cid, cls in sorted(self.classes.items())
            },
        }

    def to_dot(self) -> str:
        lines = ["digraph calls {", "  rankdir=LR;"]
        for fid in sorted(self.functions):
            lines.append(f'  "{fid}";')
        for fid, fn in sorted(self.functions.items()):
            seen = set()
            for call in fn.calls:
                if call.target and call.target not in seen:
                    seen.add(call.target)
                    style = " [style=dashed]" if call.construct else ""
                    lines.append(f'  "{fid}" -> "{call.target}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-module symbol tables
# ---------------------------------------------------------------------------

def _module_of_dotted(dotted: str, package: str,
                      modules: set) -> Optional[str]:
    """Project module path for a dotted import name, or None.

    ``repro.sim.driver`` → ``sim/driver.py``; ``repro`` →
    ``__init__.py``; ``repro.workloads`` → ``workloads/__init__.py``.
    """
    if dotted == package:
        return "__init__.py" if "__init__.py" in modules else None
    prefix = package + "."
    if not dotted.startswith(prefix):
        return None
    rel = dotted[len(prefix):].replace(".", "/")
    for candidate in (rel + ".py", rel + "/__init__.py"):
        if candidate in modules:
            return candidate
    return None


class _ModuleTable:
    """Import aliases and top-level symbols of one module."""

    def __init__(self, rel_path: str, tree: ast.AST, package: str,
                 modules: set) -> None:
        self.rel_path = rel_path
        self.package = package
        self.modules = modules
        #: local name -> ("module", rel_path) | ("symbol", rel_path,
        #: name) | ("external", dotted)
        self.imports: dict = {}
        #: top-level def/class names of this module.
        self.defs: set = set()
        self.class_names: set = set()
        self._collect(tree)

    def _dotted_package(self) -> str:
        """Dotted name of the package containing this module."""
        parts = Path(self.rel_path).parts[:-1]
        return ".".join([self.package, *parts]) if parts else self.package

    def _collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    dotted = alias.name if alias.asname \
                        else alias.name.split(".", 1)[0]
                    mod = _module_of_dotted(dotted, self.package,
                                            self.modules)
                    if mod is not None:
                        self.imports[local] = ("module", mod)
                    else:
                        self.imports[local] = ("external", dotted)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg_parts = self._dotted_package().split(".")
                    up = node.level - 1
                    if up:
                        pkg_parts = pkg_parts[:-up] if up < len(pkg_parts) \
                            else pkg_parts[:1]
                    base = ".".join(pkg_parts + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    as_module = _module_of_dotted(
                        f"{base}.{alias.name}", self.package, self.modules
                    )
                    from_module = _module_of_dotted(
                        base, self.package, self.modules
                    )
                    if as_module is not None:
                        self.imports[local] = ("module", as_module)
                    elif from_module is not None:
                        self.imports[local] = (
                            "symbol", from_module, alias.name
                        )
                    else:
                        self.imports[local] = (
                            "external", f"{base}.{alias.name}"
                        )
        for stmt in getattr(tree, "body", ()):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.defs.add(stmt.name)
                self.class_names.add(stmt.name)

    #: Module-level variable names (assignment targets in the body).
    def module_globals(self, tree: ast.AST) -> set:
        names = set()
        for stmt in getattr(tree, "body", ()):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
        return names


def _dotted(node: ast.AST) -> Optional[list]:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]``, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

class _GraphBuilder:
    def __init__(self, package: str, parsed: Sequence) -> None:
        # parsed: [(rel_path, tree)]
        self.graph = ProjectGraph(package)
        self.graph.modules = sorted(rel for rel, _tree in parsed)
        modules = set(self.graph.modules)
        self.tables = {
            rel: _ModuleTable(rel, tree, package, modules)
            for rel, tree in parsed
        }
        self.trees = dict(parsed)

    def build(self) -> ProjectGraph:
        for rel in self.graph.modules:
            self._declare_module(rel)
        self._resolve_bases()
        self._collect_attr_types()
        for rel in self.graph.modules:
            self._analyze_module(rel)
        return self.graph

    # -- declaration pass ------------------------------------------------

    def _declare_module(self, rel: str) -> None:
        tree = self.trees[rel]
        g = self.graph
        body_fn = FunctionInfo(rel, MODULE_BODY, 1)
        g.functions[body_fn.id] = body_fn
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    rel, stmt.name, stmt.lineno,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                g.functions[fn.id] = fn
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(rel, stmt.name, stmt.lineno)
                g.classes[cls.id] = cls
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        fn = FunctionInfo(
                            rel, f"{stmt.name}.{sub.name}", sub.lineno,
                            is_async=isinstance(sub,
                                                ast.AsyncFunctionDef),
                        )
                        g.functions[fn.id] = fn
                        cls.methods[sub.name] = fn.id

    def _resolve_bases(self) -> None:
        for rel in self.graph.modules:
            table = self.tables[rel]
            for stmt in self.trees[rel].body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                cls = self.graph.classes[f"{rel}::{stmt.name}"]
                for base in stmt.bases:
                    cid = self._class_of_expr(base, table)
                    if cid is not None:
                        cls.bases.append(cid)

    def _class_of_expr(self, node: ast.AST,
                       table: _ModuleTable) -> Optional[str]:
        """Resolve an expression naming a project class, or None."""
        parts = _dotted(node)
        if not parts:
            return None
        head = parts[0]
        if len(parts) == 1:
            if head in table.class_names:
                return f"{table.rel_path}::{head}"
            entry = table.imports.get(head)
            if entry and entry[0] == "symbol":
                _kind, mod, name = entry
                cid = f"{mod}::{name}"
                return cid if cid in self.graph.classes else None
            return None
        entry = table.imports.get(head)
        if entry and entry[0] == "module" and len(parts) == 2:
            cid = f"{entry[1]}::{parts[1]}"
            return cid if cid in self.graph.classes else None
        return None

    def _collect_attr_types(self) -> None:
        """``self.x = Cls(...)`` attribute types per class."""
        self.attr_types: dict = {}  # class id -> {attr: class id}
        for rel in self.graph.modules:
            table = self.tables[rel]
            for stmt in self.trees[rel].body:
                if not isinstance(stmt, ast.ClassDef):
                    continue
                cid = f"{rel}::{stmt.name}"
                attrs: dict = {}
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Assign):
                        continue
                    value_cls = (
                        self._class_of_expr(node.value.func, table)
                        if isinstance(node.value, ast.Call) else None
                    )
                    if value_cls is None:
                        continue
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            attrs[target.attr] = value_cls
                self.attr_types[cid] = attrs

    # -- analysis pass ---------------------------------------------------

    def _analyze_module(self, rel: str) -> None:
        tree = self.trees[rel]
        table = self.tables[rel]
        module_globals = table.module_globals(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self.graph.functions[f"{rel}::{stmt.name}"]
                _FunctionAnalyzer(
                    self, table, fn, module_globals, class_id=None
                ).run(stmt)
            elif isinstance(stmt, ast.ClassDef):
                cid = f"{rel}::{stmt.name}"
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        fn = self.graph.functions[
                            f"{rel}::{stmt.name}.{sub.name}"
                        ]
                        _FunctionAnalyzer(
                            self, table, fn, module_globals, class_id=cid
                        ).run(sub)
        # Module-level statements (registries, constants, side effects).
        body_fn = self.graph.functions[f"{rel}::{MODULE_BODY}"]
        analyzer = _FunctionAnalyzer(
            self, table, body_fn, module_globals, class_id=None
        )
        pseudo = ast.Module(
            body=[s for s in tree.body
                  if not isinstance(s, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef))],
            type_ignores=[],
        )
        analyzer.run_body(pseudo.body)


class _FunctionAnalyzer:
    """Extracts call edges and rule facts from one function body."""

    def __init__(self, builder: _GraphBuilder, table: _ModuleTable,
                 fn: FunctionInfo, module_globals: set,
                 class_id: Optional[str]) -> None:
        self.b = builder
        self.table = table
        self.fn = fn
        self.module_globals = module_globals
        self.class_id = class_id
        self.local_types: dict = {}  # name -> class id
        self.rng_locals: dict = {}  # name -> ctor dotted name
        self.local_names: set = set()  # every locally-bound name
        self.global_decls: set = set()

    # -- entry points ----------------------------------------------------

    def run(self, node) -> None:
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.local_names.add(arg.arg)
        for special in (args.vararg, args.kwarg):
            if special is not None:
                self.local_names.add(special.arg)
        for arg, cls in self._annotated_params(node):
            self.local_types[arg] = cls
        self.run_body(node.body)

    def run_body(self, body) -> None:
        for stmt in body:
            self._statement(stmt)

    def _annotated_params(self, node):
        for arg in list(node.args.args) + list(node.args.kwonlyargs) \
                + list(node.args.posonlyargs):
            if arg.annotation is not None:
                cls = self.b._class_of_expr(arg.annotation, self.table)
                if cls is not None:
                    yield arg.arg, cls

    # -- statement walk (nested defs inlined, order preserved) ----------

    def _statement(self, stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Inline nested defs: their calls belong to the definer.
            self.run_body(stmt.body)
            return
        if isinstance(stmt, ast.ClassDef):
            return  # handled as its own scope by the builder
        if isinstance(stmt, ast.Global):
            self.global_decls.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            self._track_assign(stmt)
            self._track_global_write_targets(stmt.targets, stmt)
            return
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._expr(stmt.value)
            self._track_global_write_targets([stmt.target], stmt)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            self._with(stmt)
            return
        # Generic: visit child expressions and child statements once
        # each (iter_child_nodes flattens body/orelse/finalbody lists).
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.stmt):
                self._statement(child)
            elif isinstance(child, ast.excepthandler):
                for sub in child.body:
                    self._statement(sub)
            elif isinstance(child, ast.withitem):
                self._expr(child.context_expr)

    def _with(self, stmt) -> None:
        for item in stmt.items:
            self._expr(item.context_expr)
            kind = self._held_kind(item.context_expr)
            if kind is not None:
                self.fn.held_contexts.append(HeldContext(
                    kind=kind,
                    what=ast.unparse(item.context_expr),
                    line=stmt.lineno, col=stmt.col_offset,
                    end_line=getattr(stmt, "end_lineno", stmt.lineno),
                ))
        for sub in stmt.body:
            self._statement(sub)

    def _held_kind(self, expr) -> Optional[str]:
        node = expr.func if isinstance(expr, ast.Call) else expr
        parts = _dotted(node)
        if parts is None:
            return None
        dotted = ".".join(parts)
        resolved = self._external_name(parts)
        if isinstance(expr, ast.Call) and (
                resolved == "open" or dotted == "open"
                or (resolved or "").endswith(".open")):
            return "file"
        if resolved in _LOCK_CTORS:
            return "lock"
        if "lock" in parts[-1].lower():
            return "lock"
        return None

    # -- assignments -----------------------------------------------------

    def _bound_names(self, target):
        """Names an assignment target *binds* (not subscript bases)."""
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._bound_names(elt)
        elif isinstance(target, ast.Starred):
            yield from self._bound_names(target.value)

    def _track_assign(self, stmt: ast.Assign) -> None:
        for target in stmt.targets:
            for name in self._bound_names(target):
                if name not in self.global_decls:
                    self.local_names.add(name)
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0],
                                                    ast.Name):
            return
        name = stmt.targets[0].id
        self.local_types.pop(name, None)
        self.rng_locals.pop(name, None)
        if not isinstance(stmt.value, ast.Call):
            return
        cls = self.b._class_of_expr(stmt.value.func, self.table)
        if cls is not None:
            self.local_types[name] = cls
            return
        ctor = self._rng_ctor(stmt.value)
        if ctor is not None:
            self.rng_locals[name] = ctor

    def _track_global_write_targets(self, targets, stmt) -> None:
        for target in targets:
            name = None
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    name = target.id
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = target.value
                if isinstance(base, ast.Name) and (
                        base.id in self.global_decls
                        or (base.id in self.module_globals
                            and base.id not in self.local_names
                            and self.fn.qualname != MODULE_BODY)):
                    name = base.id
            if name is not None:
                self.fn.global_writes.append(
                    (name, stmt.lineno, stmt.col_offset)
                )

    # -- expressions -----------------------------------------------------

    def _expr(self, node) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub)
            elif isinstance(sub, ast.Lambda):
                pass  # body walked by ast.walk; calls inlined below
            elif isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, ast.Load):
                self._class_reference(sub)

    def _class_reference(self, node: ast.Name) -> None:
        cid = self.b._class_of_expr(node, self.table)
        if cid is not None:
            self.fn.class_refs.append(cid)

    def _rng_ctor(self, call: ast.Call) -> Optional[str]:
        parts = _dotted(call.func)
        if parts is None:
            return None
        name = self._external_name(parts)
        if name in ("random.Random", "numpy.random.default_rng",
                    "numpy.random.RandomState") \
                and not call.args and not call.keywords:
            return name
        return None

    def _external_name(self, parts) -> Optional[str]:
        """Alias-resolved dotted name for an external reference."""
        head = parts[0]
        entry = self.table.imports.get(head)
        if entry is None:
            return ".".join(parts)
        if entry[0] == "external":
            return ".".join([entry[1], *parts[1:]])
        return None

    def _call(self, call: ast.Call) -> None:
        site = CallSite(line=call.lineno, col=call.col_offset)
        self._resolve_call(call, site)
        self.fn.calls.append(site)
        if site.target is not None:
            self.b.graph.resolved_calls += 1
        else:
            self.b.graph.unresolved_calls += 1
        self._rng_escapes(call, site)
        self._mutator_write(call)

    def _mutator_write(self, call: ast.Call) -> None:
        """``NAME.append(...)`` on a module global is a write fact."""
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)):
            return
        base = func.value.id
        if base in self.global_decls or (
                base in self.module_globals
                and base not in self.local_names
                and self.fn.qualname != MODULE_BODY):
            self.fn.global_writes.append(
                (base, call.lineno, call.col_offset)
            )

    def _rng_escapes(self, call: ast.Call, site: CallSite) -> None:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            ctor = None
            if isinstance(arg, ast.Call):
                ctor = self._rng_ctor(arg)
            elif isinstance(arg, ast.Name):
                ctor = self.rng_locals.get(arg.id)
            if ctor is not None:
                self.fn.rng_escapes.append(RngEscape(
                    ctor=ctor, target=site.target,
                    callee_name=site.name,
                    line=arg.lineno, col=arg.col_offset,
                ))

    def _resolve_call(self, call: ast.Call, site: CallSite) -> None:
        g = self.b.graph
        func = call.func
        # Cls(...).method(...) — resolve the chained method call.
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Call):
            inner_cls = self.b._class_of_expr(func.value.func, self.table)
            if inner_cls is not None:
                target = g.resolve_method(inner_cls, func.attr)
                if target is not None:
                    site.target = target
                    site.name = f"{inner_cls}.{func.attr}"
                    return
        parts = _dotted(func)
        if parts is None:
            return
        head = parts[0]
        # self.method() / self.attr.method()
        if head == "self" and self.class_id is not None:
            if len(parts) == 2:
                site.target = g.resolve_method(self.class_id, parts[1])
                site.name = ".".join(parts)
                return
            if len(parts) == 3:
                attrs = self.b.attr_types.get(self.class_id, {})
                owner = attrs.get(parts[1])
                if owner is not None:
                    site.target = g.resolve_method(owner, parts[2])
                site.name = ".".join(parts)
                return
            site.name = ".".join(parts)
            return
        # method call on a typed local / annotated parameter
        if len(parts) == 2 and head in self.local_types:
            site.target = g.resolve_method(self.local_types[head],
                                           parts[1])
            site.name = ".".join(parts)
            return
        entry = self.table.imports.get(head)
        if entry is None:
            if len(parts) == 1:
                # Same-module function, class, or unknown bare name.
                if head in self.table.class_names:
                    cid = f"{self.table.rel_path}::{head}"
                    self._construction(site, cid, parts)
                    return
                fid = f"{self.table.rel_path}::{head}"
                if fid in g.functions:
                    site.target = fid
                    site.name = head
                    return
                site.name = head
                return
            # Same-module class attribute call: Cls.method(obj)
            if head in self.table.class_names and len(parts) == 2:
                cid = f"{self.table.rel_path}::{head}"
                site.target = g.resolve_method(cid, parts[1])
                site.name = ".".join(parts)
                return
            site.name = ".".join(parts)
            return
        if entry[0] == "module":
            mod = entry[1]
            if len(parts) == 2:
                fid = f"{mod}::{parts[1]}"
                if fid in g.functions:
                    site.target = fid
                    site.name = ".".join(parts)
                    return
                cid = f"{mod}::{parts[1]}"
                if cid in g.classes:
                    self._construction(site, cid, parts)
                    return
            if len(parts) == 3:
                # mod.Cls.method(obj)
                cid = f"{mod}::{parts[1]}"
                if cid in g.classes:
                    site.target = g.resolve_method(cid, parts[2])
                    site.name = ".".join(parts)
                    return
            site.name = ".".join(parts)
            return
        if entry[0] == "symbol":
            _kind, mod, name = entry
            if len(parts) == 1:
                fid = f"{mod}::{name}"
                if fid in g.functions:
                    site.target = fid
                    site.name = f"{mod}::{name}"
                    return
                if fid in g.classes:
                    self._construction(site, fid, parts)
                    return
                site.name = name
                return
            if len(parts) == 2:
                cid = f"{mod}::{name}"
                if cid in g.classes:
                    site.target = g.resolve_method(cid, parts[1])
                    site.name = f"{cid}.{parts[1]}"
                    return
            site.name = ".".join(parts)
            return
        # external import
        site.name = ".".join([entry[1], *parts[1:]])

    def _construction(self, site: CallSite, class_id: str,
                      parts) -> None:
        site.construct = True
        site.target = class_id
        site.name = ".".join(parts)


# ---------------------------------------------------------------------------
# Build + on-disk cache
# ---------------------------------------------------------------------------

def tree_digest(sources: Sequence) -> str:
    """Content hash of ``[(rel_path, source_text)]`` (order-free)."""
    h = hashlib.sha256()
    for rel, source in sorted(sources):
        h.update(rel.encode())
        h.update(b"\0")
        h.update(hashlib.sha256(source.encode()).digest())
    return h.hexdigest()


def build_graph(
    parsed: Sequence,
    *,
    package: str,
    sources: Optional[Sequence] = None,
    cache_dir=None,
) -> ProjectGraph:
    """Build (or load from cache) the project graph.

    *parsed* is ``[(rel_path, ast_tree)]``; *sources* is the matching
    ``[(rel_path, source_text)]`` used only for the cache key.  With a
    *cache_dir*, the built graph is pickled keyed on the source-tree
    hash and the analysis pass is skipped entirely on a key hit —
    unrelated (doc-only) changes re-use the artifact.
    """
    cache_path = None
    if cache_dir is not None and sources is not None:
        key = tree_digest(sources)
        cache_dir = Path(cache_dir)
        cache_path = cache_dir / f"graph-v{GRAPH_SCHEMA}-{key[:24]}.pkl"
        if cache_path.exists():
            try:
                with cache_path.open("rb") as fh:
                    cached = pickle.load(fh)
                if isinstance(cached, ProjectGraph) \
                        and cached.package == package:
                    return cached
            except Exception:
                pass  # unreadable cache: rebuild below
    graph = _GraphBuilder(package, parsed).build()
    if cache_path is not None:
        try:
            for stale in cache_dir.glob("graph-*.pkl"):
                if stale != cache_path:
                    stale.unlink(missing_ok=True)
            atomic_write(cache_path,
                         pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
        except OSError:
            pass  # cache is best-effort
    return graph


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "HeldContext",
    "MODULE_BODY",
    "ProjectGraph",
    "RngEscape",
    "build_graph",
    "tree_digest",
]
