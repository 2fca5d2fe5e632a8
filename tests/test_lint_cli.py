"""End-to-end tests for ``python -m repro lint``.

Drives :func:`repro.cli.main` against throwaway scan trees and asserts
the exit-code contract (0 clean / 1 new findings / 2 bad
configuration), the JSON report schema, the baseline round-trip, and
suppression accounting.
"""

import json

import pytest

from repro.cli import main

BAD_CORE = "import time\nT0 = time.time()\n"
GOOD_CORE = "def f(x):\n    return x + 1\n"


@pytest.fixture
def tree(tmp_path):
    """A minimal scan root: <root>/src/repro with one core module."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "foo.py").write_text(GOOD_CORE)
    return tmp_path


def lint_argv(root, *extra):
    return ["lint", str(root / "src" / "repro"),
            "--root", str(root), *extra]


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert main(lint_argv(tree)) == 0
        assert "lint ok" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tree, capsys):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree)) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "core/foo.py:2" in out

    def test_unknown_rule_id_exits_two(self, tree, capsys):
        assert main(lint_argv(tree, "--select", "NOPE001")) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tree, capsys):
        bad = tree / "broken.json"
        bad.write_text("{not json")
        assert main(lint_argv(tree, "--baseline", str(bad))) == 2
        assert "invalid lint configuration" in capsys.readouterr().err

    def test_missing_explicit_baseline_exits_two(self, tree, capsys):
        missing = tree / "nope.json"
        assert main(lint_argv(tree, "--baseline", str(missing))) == 2

    def test_missing_scan_root_exits_two(self, tree, capsys):
        argv = ["lint", str(tree / "does-not-exist"),
                "--root", str(tree)]
        assert main(argv) == 2

    def test_ignore_silences_rule(self, tree):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--ignore", "DET001")) == 0


class TestJsonFormat:
    def test_schema(self, tree, capsys):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--format", "json")) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert set(doc["rules"]) == {
            "DET001", "DET002", "DET003", "DET004", "COH001", "OBS001",
        }
        assert doc["summary"] == {
            "total": 1, "new": 1, "suppressed": 0, "baselined": 0
        }
        assert doc["notices"] == []
        (finding,) = doc["findings"]
        assert finding["rule"] == "DET001"
        assert finding["severity"] == "error"
        assert finding["path"] == "src/repro/core/foo.py"
        assert finding["line"] == 2
        assert finding["suppressed"] is False
        assert finding["baselined"] is False
        assert "time.time" in finding["message"]

    def test_suppressed_findings_are_reported(self, tree, capsys):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(
            "import time\n"
            "T0 = time.time()  # lint: disable=DET001\n"
        )
        assert main(lint_argv(tree, "--format", "json")) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["suppressed"] == 1
        assert doc["summary"]["new"] == 0
        assert doc["findings"][0]["suppressed"] is True


class TestBaselineRoundTrip:
    def test_update_then_clean(self, tree, capsys):
        core = tree / "src" / "repro" / "core" / "foo.py"
        core.write_text(BAD_CORE)
        # Without a baseline the finding is new.
        assert main(lint_argv(tree)) == 1
        # Grandfather it.
        assert main(lint_argv(tree, "--update-baseline")) == 0
        assert (tree / "lint-baseline.json").exists()
        capsys.readouterr()
        # The default <root>/lint-baseline.json is picked up.
        assert main(lint_argv(tree)) == 0
        doc_out = capsys.readouterr().out
        assert "1 baselined" in doc_out

    def test_new_finding_on_top_of_baseline_fails(self, tree):
        core = tree / "src" / "repro" / "core" / "foo.py"
        core.write_text(BAD_CORE)
        assert main(lint_argv(tree, "--update-baseline")) == 0
        core.write_text(BAD_CORE + "import random\nX = random.random()\n")
        assert main(lint_argv(tree)) == 1

    def test_baseline_file_is_stable_json(self, tree):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--update-baseline")) == 0
        doc = json.loads((tree / "lint-baseline.json").read_text())
        assert doc["version"] == 2
        (entry,) = doc["findings"]
        assert entry["rule"] == "DET001"
        assert entry["path"] == "src/repro/core/foo.py"
        assert entry["count"] == 1

    def test_repo_baseline_is_empty(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        doc = json.loads(
            (repo / "lint-baseline.json").read_text(encoding="utf-8")
        )
        assert doc == {"findings": [], "version": 2}


class TestPathNormalization:
    """Finding paths are repo-relative POSIX regardless of cwd."""

    def _paths(self, tree, capsys, *extra):
        main(lint_argv(tree, "--format", "json", *extra))
        doc = json.loads(capsys.readouterr().out)
        return [f["path"] for f in doc["findings"]]

    def test_chdir_does_not_change_paths(self, tree, capsys,
                                         monkeypatch):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        from_root = self._paths(tree, capsys)
        monkeypatch.chdir(tree / "src")
        from_src = self._paths(tree, capsys)
        monkeypatch.chdir("/")
        from_slash = self._paths(tree, capsys)
        assert from_root == from_src == from_slash
        assert from_root == ["src/repro/core/foo.py"]

    def test_baseline_matches_across_cwds(self, tree, capsys,
                                          monkeypatch):
        # A baseline recorded from the repo root grandfathers the same
        # finding when lint later runs from inside src/.
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--update-baseline")) == 0
        monkeypatch.chdir(tree / "src")
        assert main(lint_argv(tree)) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_root_is_discovered_without_flag(self, tree, capsys):
        # No --root: the engine walks up from the scan root (the src/
        # layout fallback) and still displays repo-relative paths.
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        argv = ["lint", str(tree / "src" / "repro"),
                "--format", "json"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["path"] == "src/repro/core/foo.py"


class TestRepositoryIsClean:
    def test_head_lints_clean(self, capsys):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        argv = ["lint", str(repo / "src" / "repro"), "--root", str(repo)]
        assert main(argv) == 0
        assert "lint ok" in capsys.readouterr().out
