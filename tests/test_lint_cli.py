"""End-to-end tests for ``python -m repro lint``.

Drives :func:`repro.cli.main` against throwaway scan trees and asserts
the exit-code contract (0 clean / 1 new findings / 2 bad
configuration), the JSON report schema, and suppression accounting
(inline ``# lint: disable`` comments are the only suppression).
"""

import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent

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

    def test_missing_scan_root_exits_two(self, tree, capsys):
        argv = ["lint", str(tree / "does-not-exist"),
                "--root", str(tree)]
        assert main(argv) == 2

    def test_select_narrows_the_rules(self, tree):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--select", "DET002", "COH001")) == 0
        assert main(lint_argv(tree, "--select", "DET001")) == 1


class TestJsonFormat:
    def test_schema(self, tree, capsys):
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--format", "json")) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 3
        assert set(doc["rules"]) == {
            "DET001", "DET002", "DET003", "DET004", "COH001", "OBS001",
        }
        assert doc["summary"] == {
            "total": 1, "new": 1, "suppressed": 0
        }
        assert doc["notices"] == []
        (finding,) = doc["findings"]
        assert finding["rule"] == "DET001"
        assert finding["severity"] == "error"
        assert finding["path"] == "src/repro/core/foo.py"
        assert finding["line"] == 2
        assert finding["suppressed"] is False
        assert "baselined" not in finding
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


class TestSuppression:
    def test_a_baseline_file_suppresses_nothing(self, tree, capsys):
        # A grandfather list left at the repo root by older versions is
        # not read, even one naming the finding exactly: only inline
        # disables suppress.
        (tree / "src" / "repro" / "core" / "foo.py").write_text(BAD_CORE)
        assert main(lint_argv(tree, "--format", "json")) == 1
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        (tree / "lint-baseline.json").write_text(json.dumps({
            "version": 2,
            "findings": [{key: finding[key]
                          for key in ("rule", "path", "message")}],
        }))
        assert main(lint_argv(tree)) == 1


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

    def test_suppression_matches_across_cwds(self, tree, capsys,
                                             monkeypatch):
        # An inline disable covers its finding whichever directory lint
        # runs from.
        (tree / "src" / "repro" / "core" / "foo.py").write_text(
            "import time\n"
            "T0 = time.time()  # lint: disable=DET001 - test fixture\n"
        )
        for cwd in (tree, tree / "src", tree / "src" / "repro"):
            monkeypatch.chdir(cwd)
            assert main(lint_argv(tree)) == 0
            assert "1 suppressed" in capsys.readouterr().out

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
        argv = ["lint", str(REPO / "src" / "repro"), "--root", str(REPO)]
        assert main(argv) == 0
        assert "lint ok" in capsys.readouterr().out

    def test_every_disable_gives_a_reason(self):
        # Inline disables are the only suppression, so each one says
        # why: after its ids, or on the comment line directly above a
        # standalone directive.
        directive = re.compile(
            r"#\s*lint:\s*disable=[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*(.*)$")
        seen = 0
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                match = tok.type == tokenize.COMMENT \
                    and directive.match(tok.string)
                if not match:
                    continue
                seen += 1
                if match.group(1).strip(" -:\u2014"):
                    continue
                row = tok.start[0]
                above = lines[row - 2].strip() if row > 1 else ""
                where = f"{path.relative_to(REPO)}:{row}"
                assert lines[row - 1].strip().startswith("#"), where
                assert above.startswith("#") \
                    and not directive.match(above), where
        assert seen
