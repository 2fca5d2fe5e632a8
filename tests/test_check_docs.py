"""Tests for the docs consistency checker (tools/check_docs.py)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", mod)
    spec.loader.exec_module(mod)
    return mod


class TestLinks:
    def test_broken_relative_link_flagged(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("[dead](nope/gone.md)\n")
        problems = checker.check_links(md, tmp_path)
        assert len(problems) == 1
        assert "nope/gone.md" in problems[0]

    def test_existing_link_and_anchor_ok(self, checker, tmp_path):
        (tmp_path / "b.md").write_text("# target\n")
        md = tmp_path / "a.md"
        md.write_text("[ok](b.md#target) [ext](https://example.com/x.md)\n")
        assert checker.check_links(md, tmp_path) == []


class TestMetricTokens:
    def test_unknown_metric_flagged(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("counts `rdc.hits` per kernel\n")  # typo: hits
        problems = checker.check_metric_tokens(md, tmp_path)
        assert len(problems) == 1
        assert "rdc.hits" in problems[0]

    def test_known_metric_and_event_ok(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("`rdc.hit{gpu}` and `link.bytes{src,dst}` "
                      "and the `mig.page` event\n")
        assert checker.check_metric_tokens(md, tmp_path) == []

    def test_label_mismatch_flagged(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("`link.bytes{dst,src}`\n")
        problems = checker.check_metric_tokens(md, tmp_path)
        assert len(problems) == 1 and "labels" in problems[0]

    def test_benchmark_ledger_names_ok(self, checker, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "setup_s"}], '
            '"per_layer": [{"name": "sim.pool.busy_share"}]}\n')
        md = tmp_path / "a.md"
        md.write_text("`sim.pool.busy_share` but not `sim.pool.busy`\n")
        problems = checker.check_metric_tokens(md, tmp_path)
        assert len(problems) == 1
        assert "`sim.pool.busy`" in problems[0]

    def test_ledger_names_need_benchmark_json(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("`sim.pool.busy_share`\n")
        assert len(checker.check_metric_tokens(md, tmp_path)) == 1

    def test_module_paths_ignored(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("see `repro.obs.registry`, `numpy.ndarray` and "
                      "`runner.py`\n")
        assert checker.check_metric_tokens(md, tmp_path) == []


class TestReferenceCompleteness:
    def test_missing_reference_file_flagged(self, checker, tmp_path):
        problems = checker.check_reference_complete(tmp_path)
        assert problems == ["docs/metrics.md is missing"]

    def test_undocumented_metric_flagged(self, checker, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "metrics.md").write_text("# empty\n")
        problems = checker.check_reference_complete(tmp_path)
        assert any("rdc.hit" in p for p in problems)


class TestMetricsEmitted:
    def test_metric_no_module_names_is_flagged(self, checker, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "obs").mkdir(parents=True)
        # The contract's own literals do not count as emitting.
        (package / "obs" / "metrics.py").write_text(
            'NAMES = ("rdc.hit", "link.bytes")\n')
        (package / "emit.py").write_text(
            '"""Counts link.bytes (a docstring is not a literal name)."""\n'
            'COUNTED = "rdc.hit"\n')
        problems = checker.check_metrics_emitted(tmp_path)
        assert any("`link.bytes`" in p for p in problems)
        assert not any("`rdc.hit`" in p for p in problems)


class TestEndpointTokens:
    def test_unknown_endpoint_flagged(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("call `GET /jobs/<id>/logs` for logs\n")
        problems = checker.check_endpoint_tokens(md, tmp_path)
        assert len(problems) == 1
        assert "GET /jobs/<id>/logs" in problems[0]

    def test_known_endpoints_ok(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("`POST /jobs` then `GET /jobs/<id>/result` "
                      "then `GET /healthz`\n")
        assert checker.check_endpoint_tokens(md, tmp_path) == []

    def test_wrong_method_flagged(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("`DELETE /jobs` is not a thing\n")
        problems = checker.check_endpoint_tokens(md, tmp_path)
        assert len(problems) == 1

    def test_plain_paths_ignored(self, checker, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("see `/jobs` and `docs/serve.md` and plain "
                      "GET /jobs outside backticks\n")
        assert checker.check_endpoint_tokens(md, tmp_path) == []


class TestRoutesDocumented:
    def test_missing_reference_file_flagged(self, checker, tmp_path):
        problems = checker.check_routes_documented(tmp_path)
        assert problems == ["docs/serve.md is missing"]

    def test_undocumented_route_flagged(self, checker, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "serve.md").write_text("# only one\n`POST /jobs`\n")
        problems = checker.check_routes_documented(tmp_path)
        assert any("GET /jobs/<id>/result" in p for p in problems)
        assert not any("POST /jobs`" in p for p in problems)


class TestCliCommandsDocumented:
    @staticmethod
    def _write_cli(root, commands):
        cli = root / "src" / "repro"
        cli.mkdir(parents=True)
        lines = ["def build_parser(sub):"]
        lines += [f"    sub.add_parser({c!r}, help='x')" for c in commands]
        (cli / "cli.py").write_text("\n".join(lines) + "\n")

    def test_subcommands_found_by_ast(self, checker, tmp_path):
        self._write_cli(tmp_path, ["run", "serve"])
        assert checker.cli_subcommands(tmp_path) == ["run", "serve"]

    def test_missing_command_flagged(self, checker, tmp_path):
        self._write_cli(tmp_path, ["run", "serve"])
        (tmp_path / "README.md").write_text(
            "use `repro run` for runs\n"
        )
        problems = checker.check_cli_commands_documented(tmp_path)
        assert len(problems) == 1 and "`serve`" in problems[0]

    def test_both_mention_styles_accepted(self, checker, tmp_path):
        self._write_cli(tmp_path, ["run", "serve"])
        (tmp_path / "README.md").write_text(
            "| `repro run` | runs |\n\n    python -m repro serve\n"
        )
        assert checker.check_cli_commands_documented(tmp_path) == []


class TestRealRepo:
    def test_repository_docs_are_clean(self, checker):
        assert checker.run_checks(REPO_ROOT) == []

    def test_every_live_route_documented_in_serve_md(self, checker):
        # the real serve.md covers the real registry, both directions
        assert checker.check_routes_documented(REPO_ROOT) == []
        text = (REPO_ROOT / "docs" / "serve.md").read_text()
        assert checker.check_endpoint_tokens(
            REPO_ROOT / "docs" / "serve.md", REPO_ROOT) == []
        from repro.serve.routes import ROUTES
        for spec in ROUTES:
            assert f"`{spec.rendered()}`" in text

    def test_every_cli_subcommand_in_readme(self, checker):
        assert checker.check_cli_commands_documented(REPO_ROOT) == []
        assert "serve" in checker.cli_subcommands(REPO_ROOT)
