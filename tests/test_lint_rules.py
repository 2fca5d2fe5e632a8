"""Fixture-driven tests for the repro.lint AST rules.

Each rule gets at least one *bad* fixture it must fire on and one
*good* fixture it must stay silent on, plus suppression-comment
coverage.  Fixtures are plain source strings handed to
:class:`~repro.lint.rules.ModuleContext` under a chosen relative path,
so no files need to exist on disk.
"""

from pathlib import Path
from types import SimpleNamespace

import repro
from repro.lint.findings import apply_suppressions, parse_suppressions
from repro.lint.resolver import MetricNameResolver
from repro.lint.rules import (
    ExhaustivenessRule,
    MetricNameRule,
    ModuleContext,
    UnseededRandomRule,
    UnsortedIterationRule,
    WallClockRule,
)


def run_rule(rule, rel_path, source):
    ctx = ModuleContext(rel_path, source)
    findings = list(rule.check_module(ctx))
    apply_suppressions(findings, parse_suppressions(source))
    return findings


def new_findings(rule, rel_path, source):
    return [f for f in run_rule(rule, rel_path, source)
            if not f.suppressed]


# ---------------------------------------------------------------------------
# DET001 — wall clock on the deterministic path
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_fires_on_time_time_in_core(self):
        src = "import time\nT0 = time.time()\n"
        found = new_findings(WallClockRule(), "core/foo.py", src)
        assert len(found) == 1
        assert found[0].rule == "DET001"
        assert found[0].line == 2
        assert "time.time" in found[0].message

    def test_fires_on_aliased_from_import(self):
        src = "from time import perf_counter as pc\nX = pc()\n"
        assert new_findings(WallClockRule(), "obs/foo.py", src)

    def test_fires_on_datetime_now(self):
        src = "import datetime\nNOW = datetime.datetime.now()\n"
        assert new_findings(WallClockRule(), "sim/foo.py", src)

    def test_silent_outside_scope(self):
        src = "import time\nT0 = time.time()\n"
        assert new_findings(WallClockRule(), "analysis/foo.py", src) == []

    def test_silent_on_allowlisted_runner(self):
        src = "import time\nT0 = time.monotonic()\n"
        assert new_findings(WallClockRule(), "sim/runner.py", src) == []

    def test_allowlist_names_only_existing_files(self):
        # A stale entry would silently exempt whatever file later
        # reuses the name.
        package = Path(repro.__file__).parent
        missing = [rel for rel in WallClockRule.ALLOWLIST
                   if not (package / rel).is_file()]
        assert missing == []

    def test_silent_on_non_clock_time_use(self):
        src = "import time\ntime.sleep(0)\n"
        assert new_findings(WallClockRule(), "core/foo.py", src) == []

    def test_suppression_comment(self):
        src = ("import time\n"
               "T0 = time.time()  # lint: disable=DET001\n")
        found = run_rule(WallClockRule(), "core/foo.py", src)
        assert len(found) == 1
        assert found[0].suppressed

    def test_standalone_suppression_covers_next_line(self):
        src = ("import time\n"
               "# lint: disable=DET001\n"
               "T0 = time.time()\n")
        assert new_findings(WallClockRule(), "core/foo.py", src) == []


# ---------------------------------------------------------------------------
# DET002 — unseeded / process-global randomness
# ---------------------------------------------------------------------------

class TestUnseededRandom:
    def test_fires_on_global_random(self):
        src = "import random\nX = random.random()\n"
        found = new_findings(UnseededRandomRule(), "workloads/foo.py", src)
        assert [f.rule for f in found] == ["DET002"]

    def test_fires_on_unseeded_random_ctor(self):
        src = "import random\nRNG = random.Random()\n"
        assert new_findings(UnseededRandomRule(), "workloads/foo.py", src)

    def test_fires_on_numpy_global_state(self):
        src = "import numpy as np\nX = np.random.rand(3)\n"
        assert new_findings(UnseededRandomRule(), "workloads/foo.py", src)

    def test_fires_on_unseeded_default_rng(self):
        src = ("import numpy as np\n"
               "RNG = np.random.default_rng()\n")
        assert new_findings(UnseededRandomRule(), "workloads/foo.py", src)

    def test_silent_on_seeded_ctors(self):
        src = ("import random\n"
               "import numpy as np\n"
               "A = random.Random(42)\n"
               "B = np.random.default_rng(7)\n"
               "C = np.random.default_rng(seed=7)\n")
        assert new_findings(UnseededRandomRule(), "workloads/foo.py",
                            src) == []

    def test_silent_on_method_of_seeded_instance(self):
        src = ("import random\n"
               "RNG = random.Random(1)\n"
               "X = RNG.random()\n")
        assert new_findings(UnseededRandomRule(), "workloads/foo.py",
                            src) == []

    def test_suppression_comment(self):
        src = ("import random\n"
               "X = random.random()  # lint: disable=DET002\n")
        assert new_findings(UnseededRandomRule(), "workloads/foo.py",
                            src) == []


# ---------------------------------------------------------------------------
# DET003 — unordered iteration feeding diffed output
# ---------------------------------------------------------------------------

class TestUnsortedIteration:
    def test_fires_on_dict_keys_iteration(self):
        src = ("def emit(d):\n"
               "    for k in d.keys():\n"
               "        print(k)\n")
        found = new_findings(UnsortedIterationRule(), "sim/journal.py", src)
        assert [f.rule for f in found] == ["DET003"]
        assert found[0].severity == "warning"

    def test_fires_on_set_call_iteration(self):
        src = ("def emit(xs):\n"
               "    return [x for x in set(xs)]\n")
        assert new_findings(UnsortedIterationRule(), "obs/report.py", src)

    def test_fires_on_set_literal_iteration(self):
        src = ("def emit():\n"
               "    for x in {3, 1, 2}:\n"
               "        print(x)\n")
        assert new_findings(UnsortedIterationRule(), "obs/baseline.py", src)

    def test_silent_when_sorted(self):
        src = ("def emit(d, xs):\n"
               "    for k in sorted(d):\n"
               "        print(k)\n"
               "    return [x for x in sorted(set(xs))]\n")
        assert new_findings(UnsortedIterationRule(), "sim/journal.py",
                            src) == []

    def test_silent_outside_scope(self):
        src = ("def emit(d):\n"
               "    for k in d.keys():\n"
               "        print(k)\n")
        assert new_findings(UnsortedIterationRule(), "core/foo.py",
                            src) == []

    def test_suppression_comment(self):
        src = ("def emit(d):\n"
               "    # lint: disable=DET003\n"
               "    for k in d.keys():\n"
               "        print(k)\n")
        assert new_findings(UnsortedIterationRule(), "sim/journal.py",
                            src) == []


# ---------------------------------------------------------------------------
# COH001 — exhaustive protocol-enum matches
# ---------------------------------------------------------------------------

PREAMBLE = ("UNCACHED = 0\nPRIVATE = 1\nREAD_SHARED = 2\n"
            "RW_SHARED = 3\n")


class TestExhaustiveness:
    def test_fires_on_partial_chain_without_else(self):
        src = PREAMBLE + (
            "def on_event(state):\n"
            "    if state == UNCACHED:\n"
            "        out = 1\n"
            "    elif state == PRIVATE:\n"
            "        out = 2\n"
            "    return out\n"
        )
        found = new_findings(ExhaustivenessRule(), "core/imst.py", src)
        assert [f.rule for f in found] == ["COH001"]
        assert "READ_SHARED" in found[0].message
        assert "RW_SHARED" in found[0].message

    def test_silent_with_else(self):
        src = PREAMBLE + (
            "def on_event(state):\n"
            "    if state == UNCACHED:\n"
            "        return 1\n"
            "    elif state == PRIVATE:\n"
            "        return 2\n"
            "    else:\n"
            "        return 0\n"
        )
        assert new_findings(ExhaustivenessRule(), "core/imst.py", src) == []

    def test_silent_with_full_coverage(self):
        src = PREAMBLE + (
            "def on_event(state):\n"
            "    if state in (UNCACHED, PRIVATE):\n"
            "        return 1\n"
            "    elif state in (READ_SHARED, RW_SHARED):\n"
            "        return 2\n"
        )
        assert new_findings(ExhaustivenessRule(), "core/imst.py", src) == []

    def test_silent_on_guard_run_with_terminal_follower(self):
        src = PREAMBLE + (
            "def on_event(state):\n"
            "    if state == UNCACHED:\n"
            "        return 1\n"
            "    if state == PRIVATE:\n"
            "        return 2\n"
            "    raise ValueError(state)\n"
        )
        assert new_findings(ExhaustivenessRule(), "core/imst.py", src) == []

    def test_fires_on_dict_missing_member(self):
        src = PREAMBLE + (
            "NAMES = {UNCACHED: 'u', PRIVATE: 'p', READ_SHARED: 'r'}\n"
        )
        found = new_findings(ExhaustivenessRule(), "core/imst.py", src)
        assert found and "RW_SHARED" in found[0].message

    def test_fires_on_undeclared_group_member(self):
        src = PREAMBLE + (
            "EXCLUSIVE = 4\n"
            "NAMES = {UNCACHED: 'u', PRIVATE: 'p', READ_SHARED: 'r',\n"
            "         RW_SHARED: 'w', EXCLUSIVE: 'x'}\n"
        )
        found = new_findings(ExhaustivenessRule(), "core/imst.py", src)
        assert found and "EXCLUSIVE" in found[0].message

    def test_silent_on_single_member_guard(self):
        src = PREAMBLE + (
            "def touch(state):\n"
            "    if state == RW_SHARED:\n"
            "        return True\n"
            "    return False\n"
        )
        assert new_findings(ExhaustivenessRule(), "core/imst.py", src) == []

    def test_silent_outside_grouped_modules(self):
        src = PREAMBLE + (
            "def on_event(state):\n"
            "    if state == UNCACHED:\n"
            "        out = 1\n"
            "    elif state == PRIVATE:\n"
            "        out = 2\n"
            "    return out\n"
        )
        assert new_findings(ExhaustivenessRule(), "core/other.py",
                            src) == []

    def test_real_modules_are_clean(self):
        from pathlib import Path

        import repro

        pkg = Path(repro.__file__).parent
        rule = ExhaustivenessRule()
        for rel in rule.GROUPS:
            src = (pkg / rel).read_text(encoding="utf-8")
            assert new_findings(rule, rel, src) == [], rel


# ---------------------------------------------------------------------------
# OBS001 — metric-name literal resolution
# ---------------------------------------------------------------------------

def _fake_resolver():
    specs = [
        SimpleNamespace(name="rdc.hit", labels=()),
        SimpleNamespace(name="link.bytes", labels=("src", "dst")),
    ]
    return MetricNameResolver(specs, ["coh.invalidate", "kernel"])


class TestMetricNames:
    def test_fires_on_unknown_metric(self):
        rule = MetricNameRule(_fake_resolver())
        src = "NAME = 'rdc.bogus'\n"
        found = new_findings(rule, "obs/foo.py", src)
        assert [f.rule for f in found] == ["OBS001"]
        assert "rdc.bogus" in found[0].message

    def test_fires_on_wrong_labels(self):
        rule = MetricNameRule(_fake_resolver())
        src = "NAME = 'link.bytes{src}'\n"
        assert new_findings(rule, "obs/foo.py", src)

    def test_silent_on_known_metric_event_and_labels(self):
        rule = MetricNameRule(_fake_resolver())
        src = ("A = 'rdc.hit'\n"
               "B = 'link.bytes{src,dst}'\n"
               "C = 'coh.invalidate'\n")
        assert new_findings(rule, "obs/foo.py", src) == []

    def test_silent_on_unknown_prefix(self):
        rule = MetricNameRule(_fake_resolver())
        src = "MOD = 'repro.obs.registry'\n"
        assert new_findings(rule, "obs/foo.py", src) == []

    def test_live_contract_resolves_registry_names(self):
        from repro.obs.metrics import SPECS

        rule = MetricNameRule()
        src = "\n".join(
            f"N{i} = {spec.name!r}" for i, spec in enumerate(SPECS)
        ) + "\n"
        assert new_findings(rule, "obs/foo.py", src) == []

    def test_suppression_comment(self):
        rule = MetricNameRule(_fake_resolver())
        src = "NAME = 'rdc.bogus'  # lint: disable=OBS001\n"
        assert new_findings(rule, "obs/foo.py", src) == []
