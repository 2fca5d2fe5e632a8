"""Unit tests for reachability and scope derivation (repro.lint.dataflow)."""

import ast

import pytest

from repro.lint.dataflow import (
    ScopePolicy,
    derive_scope,
    diff_scope,
    reach,
    render_chain,
    scope_document,
)
from repro.lint.findings import LintConfigError
from repro.lint.graph import build_graph


def graph_of(files, package="repro"):
    parsed = [(rel, ast.parse(src)) for rel, src in sorted(files.items())]
    return build_graph(parsed, package=package)


CHAIN_TREE = {
    "sim/driver.py": (
        "from repro.core import helper_a\n"
        "def run_workload():\n    return helper_a.compute()\n"
    ),
    "core/helper_a.py": (
        "from repro.core import helper_b\n"
        "def compute():\n    return helper_b.stamp()\n"
    ),
    "core/helper_b.py": (
        "import time\n"
        "def stamp():\n    return time.time()\n"
    ),
    "obs/report.py": "def render():\n    return 'x'\n",
}


class TestReach:
    def test_calls_mode_follows_edges_with_parents(self):
        g = graph_of(CHAIN_TREE)
        r = reach(g, [("sim/driver.py", "run_workload")], mode="calls")
        assert "core/helper_b.py::stamp" in r
        assert "obs/report.py::render" not in r
        chain = r.chain("core/helper_b.py::stamp")
        assert [s["func"] for s in chain] == [
            "run_workload", "compute", "stamp"
        ]
        assert chain[0]["note"] == "root"

    def test_wide_mode_includes_constructed_class_methods(self):
        g = graph_of({
            "sim/driver.py": (
                "from repro.core import model\n"
                "def run_workload():\n    return model.System()\n"
            ),
            "core/model.py": (
                "class System:\n"
                "    def run(self):\n        return 1\n"
                "    def helper(self):\n        return 2\n"
            ),
        })
        calls = reach(g, [("sim/driver.py", "run_workload")],
                      mode="calls")
        wide = reach(g, [("sim/driver.py", "run_workload")],
                     mode="wide")
        # calls mode: only __init__ would be reachable (absent here).
        assert "core/model.py::System.run" not in calls
        # wide mode: construction makes every method reachable.
        assert "core/model.py::System.run" in wide
        assert "core/model.py::System.helper" in wide

    def test_wide_mode_treats_class_reference_as_constructible(self):
        g = graph_of({
            "sim/driver.py": (
                "from repro.core.model import System\n"
                "REGISTRY = {'sys': System}\n"
                "def run_workload():\n    return REGISTRY\n"
            ),
            "core/model.py": (
                "class System:\n    def run(self):\n        return 1\n"
            ),
        })
        wide = reach(g, [("sim/driver.py", "run_workload")],
                     mode="wide")
        # run_workload reaches the module body (wide), which references
        # the class: its methods become reachable.
        assert "core/model.py::System.run" in wide

    def test_class_root_expands_to_methods(self):
        g = graph_of({
            "numa/system.py": (
                "class MultiGpuSystem:\n"
                "    def run(self):\n        return self.step()\n"
                "    def step(self):\n        return 1\n"
            ),
        })
        r = reach(g, [("numa/system.py", "MultiGpuSystem")],
                  mode="calls")
        assert "numa/system.py::MultiGpuSystem.run" in r
        assert "numa/system.py::MultiGpuSystem.step" in r


    def test_stale_root_raises_config_error(self):
        # The module is in the graph but the named entry is not: the
        # root went stale, and walking from nothing would hide it.
        g = graph_of(CHAIN_TREE)
        with pytest.raises(LintConfigError, match="run_suite"):
            reach(g, [("sim/driver.py", "run_suite")])

    def test_root_in_absent_module_is_skipped(self):
        g = graph_of(CHAIN_TREE)
        assert len(reach(g, [("sim/runner.py", "run_tasks")])) == 0


class TestScope:
    POLICY = ScopePolicy(
        roots=(("sim/driver.py", "run_workload"),),
        exclude_prefixes=("sim/", "obs/"),
    )

    def test_derived_scope_excludes_orchestration(self):
        g = graph_of(CHAIN_TREE)
        scope = derive_scope(g, self.POLICY)
        assert "core/helper_a.py" in scope.modules
        assert "core/helper_b.py" in scope.modules
        assert "sim/driver.py" not in scope.modules
        assert "obs/report.py" not in scope.modules
        assert scope.prefixes == ["core/"]

    def test_package_closure_pulls_siblings(self):
        files = dict(CHAIN_TREE)
        files["core/untouched.py"] = "def nothing():\n    return 0\n"
        scope = derive_scope(graph_of(files), self.POLICY)
        assert scope.modules["core/untouched.py"] == "package-closure"
        assert scope.modules["core/helper_b.py"] == "reachable"

    def test_document_and_diff_round_trip(self):
        g = graph_of(CHAIN_TREE)
        scope = derive_scope(g, self.POLICY)
        doc = scope_document(scope, g, self.POLICY,
                             repo_prefix="src/repro/")
        assert doc["result_affecting"] == ["src/repro/core/"]
        assert diff_scope(doc, doc) == []

    def test_diff_reports_drift_both_directions(self):
        g = graph_of(CHAIN_TREE)
        scope = derive_scope(g, self.POLICY)
        doc = scope_document(scope, g, self.POLICY,
                             repo_prefix="src/repro/")
        stale = {**doc, "modules": {}, "result_affecting": []}
        problems = diff_scope(stale, doc)
        assert any("missing from the committed scope" in p
                   for p in problems)
        extra = {**doc,
                 "modules": {**doc["modules"], "gone/old.py": "reachable"}}
        problems = diff_scope(extra, doc)
        assert any("no longer derived" in p for p in problems)


class TestRenderChain:
    def test_renders_indented_steps(self):
        out = render_chain([
            {"func": "run_workload", "path": "sim/driver.py",
             "line": 0, "note": "root"},
            {"func": "compute", "path": "core/helper_a.py",
             "line": 3, "note": "call"},
            {"func": "stamp", "path": "core/helper_b.py",
             "line": 2, "note": "calls time.time()"},
        ])
        lines = out.splitlines()
        assert lines[0].startswith("run_workload")
        assert lines[1].startswith("  compute")
        assert lines[2].startswith("    stamp")
        assert "[calls time.time()]" in lines[2]
        assert "[call]" not in lines[1]  # plain calls are not annotated
