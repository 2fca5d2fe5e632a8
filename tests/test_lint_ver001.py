"""VER001 — CODE_VERSION bump gate, exercised on throwaway git repos.

Builds a tiny repository with the result-affecting layout
(``src/repro/sim/driver.py`` importing ``src/repro/core/imst.py``, plus
``src/repro/sim/cache.py``), then simulates
the PR diff VER001 gates in CI: a core change without a
``CODE_VERSION`` bump must produce a finding; the same change plus the
bump must pass; a bogus base ref or an empty result-affecting scope
must be a configuration error (exit 2), never a silent pass.
"""

import shutil
import subprocess

import pytest

from repro.cli import main
from repro.lint.engine import run_lint
from repro.lint.findings import LintConfigError
from repro.lint.versioning import CodeVersionRule

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="git not available"
)

BASE_REF = "lint-base"

#: The root module the import walk starts from; it puts core/ in scope.
DRIVER = "from repro.core import imst\n"


def git(repo, *argv):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture
def repo(tmp_path):
    """A git repo at the base revision, checked out on a work branch."""
    git(tmp_path, "init", "-q", "-b", BASE_REF)
    core = tmp_path / "src" / "repro" / "core"
    sim = tmp_path / "src" / "repro" / "sim"
    core.mkdir(parents=True)
    sim.mkdir(parents=True)
    (core / "imst.py").write_text("X = 1\n")
    (sim / "driver.py").write_text(DRIVER)
    (sim / "cache.py").write_text("CODE_VERSION = 10\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "base")
    git(tmp_path, "checkout", "-qb", "work")
    return tmp_path


def lint(repo):
    return run_lint(
        repo / "src" / "repro",
        select=["VER001"],
        repo_root=repo,
        ver_base=BASE_REF,
    )


class TestCodeVersionGate:
    def test_clean_when_nothing_changed(self, repo):
        result = lint(repo)
        assert result.exit_code == 0
        assert result.findings == []

    def test_fires_on_core_change_without_bump(self, repo):
        (repo / "src" / "repro" / "core" / "imst.py").write_text("X = 2\n")
        git(repo, "commit", "-qam", "core change")
        result = lint(repo)
        assert result.exit_code == 1
        (finding,) = result.findings
        assert finding.rule == "VER001"
        assert "src/repro/core/imst.py" in finding.message
        assert "CODE_VERSION" in finding.message

    def test_fires_on_uncommitted_core_change(self, repo):
        # The worktree diff counts too, not just committed changes.
        (repo / "src" / "repro" / "core" / "imst.py").write_text("X = 2\n")
        assert lint(repo).exit_code == 1

    def test_clean_with_version_bump(self, repo):
        (repo / "src" / "repro" / "core" / "imst.py").write_text("X = 2\n")
        (repo / "src" / "repro" / "sim" / "cache.py").write_text(
            "CODE_VERSION = 11\n"
        )
        git(repo, "commit", "-qam", "core change + bump")
        assert lint(repo).exit_code == 0

    def test_clean_on_non_result_affecting_change(self, repo):
        tools = repo / "tools"
        tools.mkdir()
        (tools / "helper.py").write_text("Y = 1\n")
        git(repo, "add", "-A")
        git(repo, "commit", "-qam", "tooling only")
        assert lint(repo).exit_code == 0

    def test_bad_base_ref_is_config_error(self, repo):
        with pytest.raises(LintConfigError):
            run_lint(
                repo / "src" / "repro",
                select=["VER001"],
                repo_root=repo,
                ver_base="no-such-ref",
            )

    def test_rule_is_not_in_the_default_selection(self):
        from repro.lint.engine import DEFAULT_RULE_IDS

        assert CodeVersionRule.id not in DEFAULT_RULE_IDS


class TestNoticeSkip:
    """Without an explicit --ver-base, VER001 degrades to a notice."""

    def test_no_git_repo_skips_with_notice(self, tmp_path):
        # A bare directory tree, no `git init`: the rule cannot run,
        # but that is a local-environment fact, not a lint failure.
        pkg = tmp_path / "src" / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "sim").mkdir()
        (pkg / "core" / "imst.py").write_text("X = 1\n")
        (pkg / "sim" / "driver.py").write_text(DRIVER)
        result = run_lint(
            tmp_path / "src" / "repro",
            select=["VER001"],
            repo_root=tmp_path,
            ver_base=None,
        )
        assert result.exit_code == 0
        assert result.findings == []
        assert any("VER001 skipped" in n for n in result.notices)

    def test_missing_default_refs_skip_with_notice(self, repo):
        # A real repo whose refs are neither origin/main nor main:
        # unset base -> try both, then notice instead of exit 2.
        result = run_lint(
            repo / "src" / "repro",
            select=["VER001"],
            repo_root=repo,
            ver_base=None,
        )
        assert result.exit_code == 0
        assert any("VER001 skipped" in n for n in result.notices)

    def test_explicit_bad_ref_still_exits_two(self, tmp_path):
        # Explicitly requesting a base in a non-repo stays a hard
        # configuration error — CI must never silently skip the gate.
        pkg = tmp_path / "src" / "repro"
        (pkg / "sim").mkdir(parents=True)
        (pkg / "x.py").write_text("X = 1\n")
        (pkg / "sim" / "driver.py").write_text("from repro import x\n")
        with pytest.raises(LintConfigError, match="git"):
            run_lint(
                pkg,
                select=["VER001"],
                repo_root=tmp_path,
                ver_base="main",
            )


class TestScopeDrivenPrefixes:
    def test_new_import_widens_the_gate(self, repo):
        # memory/ is out of scope until the driver imports it; from
        # then on a memory/ change without a bump fires.
        memory = repo / "src" / "repro" / "memory"
        memory.mkdir()
        (memory / "cache.py").write_text("Z = 1\n")
        git(repo, "add", "-A")
        git(repo, "commit", "-qam", "memory change")
        assert lint(repo).exit_code == 0
        (repo / "src" / "repro" / "sim" / "driver.py").write_text(
            DRIVER + "from repro.memory import cache\n"
        )
        git(repo, "commit", "-qam", "driver imports memory")
        result = lint(repo)
        assert result.exit_code == 1
        (finding,) = result.findings
        assert "src/repro/memory/cache.py" in finding.message

    def test_empty_scope_exits_two(self, repo, capsys):
        # No root module left: the walk derives nothing, and VER001
        # refuses to gate an empty scope.
        (repo / "src" / "repro" / "sim" / "driver.py").unlink()
        argv = ["lint", str(repo / "src" / "repro"), "--root", str(repo),
                "--select", "VER001", "--ver-base", BASE_REF]
        assert main(argv) == 2
        assert "no result-affecting module" in capsys.readouterr().err
