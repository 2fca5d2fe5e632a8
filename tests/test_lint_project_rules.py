"""Import-walk tests: DET004 and the result-affecting scope of VER001.

Each fixture is a throwaway ``<root>/src/repro`` tree run through the
real engine and CLI, including the acceptance-path case: ``time.time()``
in the perf model, reached from ``sim/driver.py`` through two helper
modules, reported with its one-line import path.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.scope import scope_prefixes, walk

# --- fixture trees ---------------------------------------------------------

#: time.time() in the perf model, two helper modules below the driver:
#: DET001's per-file scope sees the direct call in model.py, DET004
#: sees that the simulated path imports it.
TAINT_TREE = {
    "sim/driver.py": (
        "from repro.core import helper_a\n"
        "def run_workload():\n"
        "    return helper_a.compute()\n"
    ),
    "core/helper_a.py": (
        "from repro.core import helper_b\n"
        "def compute():\n"
        "    return helper_b.scale()\n"
    ),
    "core/helper_b.py": (
        "from repro.perf import model\n"
        "def scale():\n"
        "    return model.total_time_s()\n"
    ),
    "perf/model.py": (
        "import time\n"
        "def total_time_s():\n"
        "    return time.time()\n"
    ),
}

TAINT_PATH = ("sim/driver.py -> core/helper_a.py -> core/helper_b.py "
              "-> perf/model.py")


def write_tree(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    return tmp_path


def lint(root, **kwargs):
    return run_lint(root / "src" / "repro", repo_root=root, **kwargs)


def findings_of(result, rule):
    return [f for f in result.findings if f.rule == rule]


def walk_of(files):
    return walk({rel: ast.parse(src) for rel, src in files.items()},
                "repro")


# --- DET004 ----------------------------------------------------------------

class TestDet004:
    def test_two_intermediate_helpers(self, tmp_path):
        root = write_tree(tmp_path, TAINT_TREE)
        result = lint(root, select=["DET004"])
        (finding,) = findings_of(result, "DET004")
        assert finding.path == "src/repro/perf/model.py"
        assert (finding.line, finding.col) == (3, 11)
        assert "time.time" in finding.message
        assert TAINT_PATH in finding.message
        assert result.exit_code == 1

    def test_direct_call_case_also_caught_by_det001(self, tmp_path):
        # The equivalent direct-call case DET001 already caught stays
        # caught; DET004 adds the import path to the same sink.
        root = write_tree(tmp_path, TAINT_TREE)
        result = lint(root, select=["DET001", "DET004"])
        assert {f.rule for f in result.findings} == {"DET001", "DET004"}
        det001, det004 = sorted(result.findings, key=lambda f: f.rule)
        assert det001.path == det004.path == "src/repro/perf/model.py"
        assert det001.line == det004.line

    def test_text_output_names_import_path(self, tmp_path, capsys):
        root = write_tree(tmp_path, TAINT_TREE)
        argv = ["lint", str(root / "src" / "repro"),
                "--root", str(root), "--select", "DET004"]
        assert main(argv) == 1
        (line, summary) = capsys.readouterr().out.splitlines()
        assert line.startswith("src/repro/perf/model.py:3:11: DET004")
        assert TAINT_PATH in line
        assert summary.startswith("1 new finding(s)")

    def test_det001_allowlist_honored_at_sink(self, tmp_path):
        files = dict(TAINT_TREE)
        # Move the sink into an allowlisted orchestration module the
        # perf model imports: no DET004 finding.
        files["sim/runner.py"] = (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        files["perf/model.py"] = (
            "from repro.sim import runner\n"
            "def total_time_s():\n"
            "    return runner.now()\n"
        )
        root = write_tree(tmp_path, files)
        result = lint(root, select=["DET004"])
        assert findings_of(result, "DET004") == []

    def test_env_read_is_a_source(self, tmp_path):
        files = dict(TAINT_TREE)
        files["perf/model.py"] = (
            "import os\n"
            "def total_time_s():\n"
            "    return float(os.environ.get('SPEED', '1'))\n"
        )
        root = write_tree(tmp_path, files)
        (finding,) = findings_of(lint(root, select=["DET004"]), "DET004")
        assert "os.environ.get" in finding.message

    def test_unreachable_sink_not_flagged(self, tmp_path):
        files = dict(TAINT_TREE)
        files["core/helper_b.py"] = (
            "def scale():\n    return 1.0\n"
        )  # import cut: perf/model.py is no longer reached
        root = write_tree(tmp_path, files)
        assert findings_of(lint(root, select=["DET004"]), "DET004") == []


# --- DET005's fixture, now covered by DET002 -------------------------------

#: The fixture of the retired DET005 rule: an unseeded generator passed
#: from the driver into the simulated path.
RNG_ESCAPE_TREE = {
    "sim/driver.py": (
        "import random\n"
        "from repro.core import model\n"
        "def run_workload():\n"
        "    return model.simulate(random.Random())\n"
    ),
    "core/model.py": (
        "def simulate(rng):\n    return rng.random()\n"
    ),
}


class TestDet005:
    def test_unseeded_rng_escaping_into_scope(self, tmp_path):
        # DET002 flags the construction itself, at the very line and
        # column DET005 reported — which is why DET005 was retired.
        root = write_tree(tmp_path, RNG_ESCAPE_TREE)
        (finding,) = findings_of(lint(root), "DET002")
        assert finding.path == "src/repro/sim/driver.py"
        assert (finding.line, finding.col) == (4, 26)
        assert "random.Random" in finding.message

    def test_seeded_rng_is_clean(self, tmp_path):
        files = dict(RNG_ESCAPE_TREE)
        files["sim/driver.py"] = files["sim/driver.py"].replace(
            "random.Random()", "random.Random(1302)")
        root = write_tree(tmp_path, files)
        assert lint(root).findings == []


# --- suppression auditability ---------------------------------------------

class TestSuppressionAudit:
    """# lint: disable=<ID> findings stay visible in --format json with
    suppressed: true — for import-walk findings too."""

    @pytest.mark.parametrize("rule,files,sink", [
        ("DET004",
         {**TAINT_TREE,
          "perf/model.py": (
              "import time\n"
              "def total_time_s():\n"
              "    return time.time()  # lint: disable=DET004 - test\n"
          )},
         "src/repro/perf/model.py"),
    ])
    def test_suppressed_chain_finding_in_json(self, tmp_path, capsys,
                                              rule, files, sink):
        root = write_tree(tmp_path, files)
        argv = ["lint", str(root / "src" / "repro"),
                "--root", str(root), "--select", rule,
                "--format", "json"]
        assert main(argv) == 0  # suppressed findings don't fail
        doc = json.loads(capsys.readouterr().out)
        flagged = [f for f in doc["findings"]
                   if f["rule"] == rule and f["path"] == sink]
        assert flagged
        assert all(f["suppressed"] is True for f in flagged)
        assert all(TAINT_PATH in f["message"] for f in flagged)


# --- the import walk -------------------------------------------------------

class TestImportWalk:
    def test_repo_walk_derives_the_eight_prefixes(self):
        # Pins the result-affecting scope VER001 gates in this
        # repository: a change to it shows up in review here.
        from repro.lint.engine import python_files

        scan = Path(__file__).resolve().parent.parent / "src" / "repro"
        trees = {p.relative_to(scan).as_posix(): ast.parse(p.read_text())
                 for p in python_files(scan)}
        assert scope_prefixes(walk(trees, "repro")) == [
            "analysis/", "config.py", "core/", "gpu/", "memory/",
            "numa/", "perf/", "workloads/",
        ]

    def test_follows_imports_with_parents(self):
        parents = walk_of({**TAINT_TREE,
                           "obs/report.py": "def render():\n    pass\n"})
        assert parents == {
            "sim/driver.py": None,
            "core/helper_a.py": "sim/driver.py",
            "core/helper_b.py": "core/helper_a.py",
            "perf/model.py": "core/helper_b.py",
        }

    def test_function_level_and_relative_imports(self):
        parents = walk_of({
            "sim/driver.py": (
                "def run_workload():\n"
                "    from ..core import rdc\n"
                "    return rdc\n"
            ),
            "core/rdc.py": "from . import epoch\nfrom .. import config\n",
            "core/epoch.py": "import repro.memory.cache\n",
            "memory/cache.py": "",
            "config.py": "",
        })
        assert parents["core/rdc.py"] == "sim/driver.py"
        assert parents["core/epoch.py"] == "core/rdc.py"
        assert parents["config.py"] == "core/rdc.py"
        assert parents["memory/cache.py"] == "core/epoch.py"

    def test_from_import_of_a_name_reaches_its_module(self):
        parents = walk_of({
            "numa/system.py": "from repro.core.carve import CarveState\n",
            "core/carve.py": "class CarveState:\n    pass\n",
            "core/__init__.py": "",
        })
        assert parents["core/carve.py"] == "numa/system.py"
        assert "core/__init__.py" not in parents

    def test_excluded_modules_are_walked_through_not_scoped(self):
        parents = walk_of({
            "sim/driver.py": "from repro.sim import cache\n",
            "sim/cache.py": "from repro.obs import metrics\n",
            "obs/metrics.py": "from repro.gpu import sm\n",
            "gpu/sm.py": "",
        })
        assert "gpu/sm.py" in parents
        assert scope_prefixes(parents) == ["gpu/"]

    def test_scope_closes_over_top_level_packages(self):
        files = {**TAINT_TREE,
                 "core/untouched.py": "def nothing():\n    return 0\n"}
        parents = walk_of(files)
        assert "core/untouched.py" not in parents
        # The prefix gates the whole package, the unreached sibling too.
        assert scope_prefixes(parents) == ["core/", "perf/"]

    def test_absent_roots_are_skipped(self):
        assert walk_of({"core/helper_b.py": "import time\n"}) == {}
