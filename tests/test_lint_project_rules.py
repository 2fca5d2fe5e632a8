"""Whole-program rule tests (DET004/DET005, CONC001-003, VER002).

Each fixture is a throwaway ``<root>/src/repro`` tree exercising one
rule through the real engine and CLI, including the acceptance-path
cases: ``time.time()`` reaching the perf model through two intermediate
helper modules (DET004), and a blocking ``http.client`` call planted
in a serve route (CONC001) — both with ``--explain`` printing the full
source→sink chain.
"""

import json

import pytest

from repro.cli import main
from repro.lint import run_lint

# --- fixture trees ---------------------------------------------------------

#: time.time() reaches the perf model two helper modules below the
#: driver: DET001's per-file scope sees the direct call in model.py,
#: DET004 sees the *chain* from run_workload.
#: The driver's other scope roots; a tree that has ``sim/driver.py``
#: must define every root of it, or the lint reports stale config.
DRIVER_ROOTS = (
    "def time_of():\n    return 0\n"
    "def run_time():\n    return 0\n"
)

TAINT_TREE = {
    "sim/driver.py": (
        "from repro.core import helper_a\n"
        "def run_workload():\n"
        "    return helper_a.compute()\n"
        + DRIVER_ROOTS
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

#: A serve route whose helper opens a sync http.client connection
#: (blocking the loop), next to a route correctly hopping through
#: asyncio.to_thread.
SERVE_TREE = {
    "serve/routes.py": (
        "import asyncio\n"
        "from repro.serve import upstream\n"
        "async def job_events(request):\n"
        "    return upstream.fetch_status()\n"
        "async def job_result(request):\n"
        "    return await asyncio.to_thread(upstream.fetch_status)\n"
    ),
    "serve/upstream.py": (
        "import http.client\n"
        "def fetch_status():\n"
        "    conn = http.client.HTTPConnection('localhost')\n"
        "    conn.request('GET', '/status')\n"
        "    return conn.getresponse().read()\n"
    ),
}


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


# --- DET004 ----------------------------------------------------------------

class TestDet004:
    def test_two_intermediate_helpers(self, tmp_path):
        root = write_tree(tmp_path, TAINT_TREE)
        result = lint(root, select=["DET004"])
        (finding,) = findings_of(result, "DET004")
        assert finding.path == "src/repro/perf/model.py"
        assert "time.time" in finding.message
        assert "run_workload" in finding.message
        funcs = [s["func"] for s in finding.chain]
        assert funcs == ["run_workload", "compute", "scale",
                         "total_time_s", "total_time_s"]
        assert result.exit_code == 1

    def test_direct_call_case_also_caught_by_det001(self, tmp_path):
        # The equivalent direct-call case DET001 already caught stays
        # caught; DET004 adds the chain view of the same sink.
        root = write_tree(tmp_path, TAINT_TREE)
        result = lint(root, select=["DET001", "DET004"])
        assert {f.rule for f in result.findings} == {"DET001", "DET004"}
        det001, det004 = sorted(result.findings, key=lambda f: f.rule)
        assert det001.path == det004.path == "src/repro/perf/model.py"
        assert det001.line == det004.line

    def test_explain_prints_full_chain(self, tmp_path, capsys):
        root = write_tree(tmp_path, TAINT_TREE)
        sink_line = 3  # time.time() call in perf/model.py
        argv = ["lint", str(root / "src" / "repro"),
                "--root", str(root), "--select", "DET004",
                "--explain", f"DET004:src/repro/perf/model.py:{sink_line}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for fn in ("run_workload", "compute", "scale", "total_time_s"):
            assert fn in out
        assert "time.time" in out

    def test_det001_allowlist_honored_at_sink(self, tmp_path):
        files = dict(TAINT_TREE)
        # Move the sink into an allowlisted orchestration module and
        # call it from the chain: no DET004 finding.
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
        )  # chain cut: perf/model.py no longer reachable
        root = write_tree(tmp_path, files)
        assert findings_of(lint(root, select=["DET004"]), "DET004") == []


# --- DET005 ----------------------------------------------------------------

class TestDet005:
    def test_unseeded_rng_escaping_into_scope(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/driver.py": (
                "import random\n"
                "from repro.core import model\n"
                "def run_workload():\n"
                "    return model.simulate(random.Random())\n"
                + DRIVER_ROOTS
            ),
            "core/model.py": (
                "def simulate(rng):\n    return rng.random()\n"
            ),
        })
        (finding,) = findings_of(lint(root, select=["DET005"]), "DET005")
        assert "random.Random" in finding.message
        assert finding.chain[-1]["path"] == "src/repro/core/model.py"

    def test_seeded_rng_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/driver.py": (
                "import random\n"
                "from repro.core import model\n"
                "def run_workload():\n"
                "    return model.simulate(random.Random(1302))\n"
                + DRIVER_ROOTS
            ),
            "core/model.py": (
                "def simulate(rng):\n    return rng.random()\n"
            ),
        })
        assert findings_of(lint(root, select=["DET005"]), "DET005") == []


# --- CONC001 ---------------------------------------------------------------

class TestConc001:
    def test_blocking_http_client_in_route(self, tmp_path):
        root = write_tree(tmp_path, SERVE_TREE)
        result = lint(root, select=["CONC001"])
        flagged = findings_of(result, "CONC001")
        assert flagged, "planted http.client call must be caught"
        assert all(f.path == "src/repro/serve/upstream.py"
                   for f in flagged)
        assert any("http.client.HTTPConnection" in f.message
                   for f in flagged)
        (first,) = [f for f in flagged
                    if "HTTPConnection" in f.message]
        assert [s["func"] for s in first.chain][0] == "job_events"
        assert "job_events" in first.message

    def test_to_thread_hop_cuts_the_chain(self, tmp_path):
        files = dict(SERVE_TREE)
        # Remove the direct-call route: only the to_thread route stays.
        files["serve/routes.py"] = (
            "import asyncio\n"
            "from repro.serve import upstream\n"
            "async def job_result(request):\n"
            "    return await asyncio.to_thread(upstream.fetch_status)\n"
        )
        root = write_tree(tmp_path, files)
        assert findings_of(lint(root, select=["CONC001"]),
                           "CONC001") == []

    def test_time_sleep_in_route_helper(self, tmp_path):
        root = write_tree(tmp_path, {
            "serve/routes.py": (
                "from repro.serve import util\n"
                "async def healthz(request):\n"
                "    return util.backoff()\n"
            ),
            "serve/util.py": (
                "import time\n"
                "def backoff():\n    time.sleep(1)\n"
            ),
        })
        (finding,) = findings_of(lint(root, select=["CONC001"]),
                                 "CONC001")
        assert "time.sleep" in finding.message

    def test_sync_code_outside_serve_not_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/runner.py": (
                "import time\n"
                "def wait():\n    time.sleep(1)\n"
            ),
        })
        assert findings_of(lint(root, select=["CONC001"]),
                           "CONC001") == []

    def test_explain_prints_route_to_sink_chain(self, tmp_path, capsys):
        root = write_tree(tmp_path, SERVE_TREE)
        argv = ["lint", str(root / "src" / "repro"),
                "--root", str(root), "--select", "CONC001",
                "--explain",
                "CONC001:src/repro/serve/upstream.py:3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "job_events" in out
        assert "fetch_status" in out
        assert "http.client.HTTPConnection" in out


# --- CONC002 ---------------------------------------------------------------

CONC002_TREE = {
    "sim/state.py": (
        "COUNTS = {}\n"
        "def record(key):\n"
        "    COUNTS[key] = COUNTS.get(key, 0) + 1\n"
        "def reset():\n"
        "    COUNTS.clear()\n"
    ),
    "sim/pool.py": (
        "from repro.sim import state\n"
        "def _worker_main(conn):\n"
        "    state.record('task')\n"
        "class WorkerPool:\n"
        "    def shutdown(self):\n"
        "        state.reset()\n"
    ),
}


class TestConc002:
    def test_global_written_on_both_sides(self, tmp_path):
        root = write_tree(tmp_path, CONC002_TREE)
        (finding,) = findings_of(lint(root, select=["CONC002"]),
                                 "CONC002")
        assert finding.path == "src/repro/sim/state.py"
        assert "'COUNTS'" in finding.message
        notes = [s["note"] for s in finding.chain]
        assert any("worker-side write" in n for n in notes)
        assert any("parent-side" in n for n in notes)

    def test_single_sided_write_is_clean(self, tmp_path):
        files = dict(CONC002_TREE)
        files["sim/pool.py"] = (
            "from repro.sim import state\n"
            "def _worker_main(conn):\n"
            "    state.record('task')\n"
            "class WorkerPool:\n"
            "    def shutdown(self):\n"
            "        pass\n"
        )
        root = write_tree(tmp_path, files)
        assert findings_of(lint(root, select=["CONC002"]),
                           "CONC002") == []


# --- CONC003 ---------------------------------------------------------------

class TestConc003:
    def test_lock_held_across_spawn(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/pool.py": (
                "import threading\n"
                "_POOL_LOCK = threading.Lock()\n"
                "def _spawn(ctx):\n"
                "    proc = ctx.Process(target=None)\n"
                "    proc.start()\n"
                "    return proc\n"
                "def grow(ctx):\n"
                "    with _POOL_LOCK:\n"
                "        return _spawn(ctx)\n"
            ),
        })
        (finding,) = findings_of(lint(root, select=["CONC003"]),
                                 "CONC003")
        assert finding.path == "src/repro/sim/pool.py"
        assert "lock" in finding.message
        notes = " ".join(s["note"] for s in finding.chain)
        assert "holds lock" in notes
        assert "ctx.Process" in notes

    def test_lock_released_before_spawn_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "sim/pool.py": (
                "import threading\n"
                "_POOL_LOCK = threading.Lock()\n"
                "def _spawn(ctx):\n"
                "    return ctx.Process(target=None)\n"
                "def grow(ctx):\n"
                "    with _POOL_LOCK:\n"
                "        n = 1\n"
                "    return _spawn(ctx)\n"
            ),
        })
        assert findings_of(lint(root, select=["CONC003"]),
                           "CONC003") == []


# --- suppression auditability ---------------------------------------------

class TestSuppressionAudit:
    """# lint: disable=<ID> findings stay visible in --format json with
    suppressed: true — for chain findings too."""

    @pytest.mark.parametrize("rule,files,sink", [
        ("DET004",
         {**TAINT_TREE,
          "perf/model.py": (
              "import time\n"
              "def total_time_s():\n"
              "    return time.time()  # lint: disable=DET004 - test\n"
          )},
         "src/repro/perf/model.py"),
        ("CONC001",
         {**SERVE_TREE,
          "serve/upstream.py": (
              "import http.client\n"
              "def fetch_status():\n"
              "    conn = http.client.HTTPConnection('h')  # lint: disable=CONC001 - test\n"
              "    return conn\n"
          )},
         "src/repro/serve/upstream.py"),
        ("CONC002",
         {**CONC002_TREE,
          "sim/state.py": (
              "COUNTS = {}\n"
              "def record(key):\n"
              "    COUNTS[key] = 1  # lint: disable=CONC002 - test\n"
              "def reset():\n"
              "    # lint: disable=CONC002 - test\n"
              "    COUNTS.clear()\n"
          )},
         "src/repro/sim/state.py"),
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
        assert any("chain" in f for f in flagged)


# --- VER002 (scope drift) --------------------------------------------------

class TestVer002:
    def test_update_scope_then_clean_then_drift(self, tmp_path, capsys):
        root = write_tree(tmp_path, TAINT_TREE)
        scan = str(root / "src" / "repro")
        assert main(["lint", scan, "--root", str(root),
                     "--update-scope"]) == 0
        capsys.readouterr()
        scope_file = root / "lint-scope.json"
        assert scope_file.exists()
        doc = json.loads(scope_file.read_text())
        assert "src/repro/core/" in doc["result_affecting"]
        assert "src/repro/perf/" in doc["result_affecting"]
        # Committed scope matches the derivation: clean.
        assert main(["lint", scan, "--root", str(root),
                     "--select", "VER002"]) == 0
        capsys.readouterr()
        # A new result-affecting module appears: VER002 fires until the
        # scope file is regenerated and committed.
        extra = root / "src" / "repro" / "memory" / "cache.py"
        extra.parent.mkdir(parents=True)
        extra.write_text("def lookup():\n    return 1\n")
        helper = root / "src" / "repro" / "core" / "helper_b.py"
        helper.write_text(
            "from repro.memory import cache\n"
            "def scale():\n    return cache.lookup()\n"
        )
        assert main(["lint", scan, "--root", str(root),
                     "--select", "VER002"]) == 1
        out = capsys.readouterr().out
        assert "VER002" in out
        assert "memory" in out

    def test_missing_scope_file_is_a_notice_not_a_failure(
            self, tmp_path, capsys):
        root = write_tree(tmp_path, TAINT_TREE)
        result = lint(root, select=["VER002"])
        assert result.exit_code == 0
        assert any("lint-scope.json" in n for n in result.notices)

    def test_repo_scope_file_matches_derivation(self):
        # The committed lint-scope.json of *this* repository is in sync
        # with the graph derivation (the VER002 gate CI relies on).
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        result = run_lint(repo / "src" / "repro", repo_root=repo,
                          select=["VER002"])
        assert result.exit_code == 0, [
            f.message for f in result.findings
        ]
        assert result.notices == []

    def test_repo_scope_covers_legacy_ver001_list(self):
        # Acceptance: the derived scope covers at least the hand-coded
        # VER001 path list it replaces.
        from pathlib import Path

        from repro.lint.versioning import RESULT_AFFECTING

        repo = Path(__file__).resolve().parent.parent
        doc = json.loads((repo / "lint-scope.json").read_text())
        for prefix in RESULT_AFFECTING:
            assert prefix in doc["result_affecting"], prefix
