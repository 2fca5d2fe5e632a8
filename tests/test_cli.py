"""Tests for the command-line interface."""

import pytest

from repro.cli import _HEADLINE as HEADLINE
from repro.cli import build_parser, main
from repro.sim import experiments as E
from repro.sim.driver import run_workload, time_of
from repro.sim.runner import KIND_CRASH, FailureReport


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "DOOM"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "Lulesh", "--system", "magic"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Lulesh"])
        assert args.system == "carve-hwc"
        assert not args.no_cache

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite", "carve-hwc"])
        assert args.jobs == 1
        assert args.timeout is None
        assert args.retries == 0
        assert args.keep_going
        assert not args.resume
        assert args.journal is None

    def test_suite_flags(self):
        args = build_parser().parse_args([
            "suite", "numa-gpu", "--workloads", "Lulesh", "XSBench",
            "--jobs", "4", "--timeout", "120", "--retries", "2",
            "--fail-fast", "--journal", "/tmp/j.jsonl", "--resume",
        ])
        assert args.workloads == ["Lulesh", "XSBench"]
        assert args.jobs == 4 and args.timeout == 120.0
        assert args.retries == 2
        assert not args.keep_going
        assert args.resume and args.journal == "/tmp/j.jsonl"

    def test_suite_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "magic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "RandAccess" in out and "rw-shared" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "carve-hwc" in out and "ideal" in out

    def test_sharing(self, capsys):
        assert main(["sharing", "Lulesh"]) == 0
        out = capsys.readouterr().out
        assert "rw-shared" in out
        assert "shared working-set cover" in out

    def test_cache_status(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache"]) == 0
        assert "cached run(s)" in capsys.readouterr().out

    def test_cache_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "x.pkl").write_bytes(b"x")
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["cache", "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_compare_speedups_match_direct_runs(self, capsys):
        # Euler: cheap, and its speedups differ across the systems.
        assert main(["compare", "Euler", "--no-cache"]) == 0
        out = capsys.readouterr().out
        times = {
            name: time_of(
                run_workload("Euler", E.config_for(name), label=name,
                             use_cache=False),
                E.config_for(name),
            )
            for name in HEADLINE
        }
        cells = [[c.strip() for c in line.split("|")]
                 for line in out.splitlines()]
        rows = {c[0]: c[1] for c in cells if c[0] in times}
        assert rows == {
            name: f"{times[E.SINGLE_GPU] / t:.2f}x"
            for name, t in times.items()
        }

    @pytest.mark.slow
    def test_run_end_to_end(self, capsys):
        # Lulesh is the smallest trace in the suite; no-cache keeps the
        # test hermetic.
        assert main(["run", "Lulesh", "--system", "numa-gpu",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Lulesh on numa-gpu" in out
        assert "demand access mix" in out


class TestExitStatus:
    def test_suite_with_failures_exits_1(self, capsys, monkeypatch):
        def fake_run_suite(config_name, **kwargs):
            run = E.SuiteRun(config_name=config_name, config=None)
            run.failures["Lulesh"] = FailureReport(
                key=f"{config_name}/Lulesh", kind=KIND_CRASH,
                exception_type="WorkerCrash",
                message="worker died without a result (killed by signal 9)",
                traceback="", config_hash="deadbeef", attempts=2,
                elapsed_s=1.5,
            )
            return run

        monkeypatch.setattr(E, "run_suite", fake_run_suite)
        rc = main(["suite", "carve-hwc", "--workloads", "Lulesh"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "crash x2" in captured.out
        assert "WorkerCrash" in captured.err
        assert "--resume" in captured.err

    def test_suite_all_ok_exits_0(self, capsys, monkeypatch):
        class FakeRun:
            results = {"Lulesh": object()}
            failures = {}
            cancelled = []
            ok = True

            def time_s(self, abbr):
                return 1.25

        monkeypatch.setattr(E, "run_suite", lambda *a, **k: FakeRun())
        assert main(["suite", "carve-hwc", "--workloads", "Lulesh"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_configuration_exits_2(self, capsys):
        # A negative RDC size survives argument parsing but fails
        # SystemConfig.validate() at the experiments entry point.
        rc = main(["run", "Lulesh", "--rdc-gb", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err

    def test_zero_rdc_size_is_refused_not_defaulted(self, capsys):
        # --rdc-gb 0 is a value, not an absent flag: it must reach
        # validation instead of silently simulating the 2 GB default.
        rc = main(["run", "Lulesh", "--system", "carve-swc",
                   "--rdc-gb", "0"])
        assert rc == 2
        assert "RDC size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["suite", "numa-gpu", "--jobs", "0"],
        ["suite", "numa-gpu", "--jobs", "two"],
        ["suite", "numa-gpu", "--retries", "-1"],
        ["suite", "numa-gpu", "--timeout", "0"],
        ["chaos", "--jobs", "0"],
        ["chaos", "--rounds", "0"],
        ["trace", "Lulesh", "--ring", "0"],
        ["trace", "Lulesh", "--sample", "0"],
        ["serve", "--jobs", "0"],
        ["serve", "--queue-depth", "0"],
        ["serve", "--store-max-bytes", "0"],
    ])
    def test_bad_numeric_option_exits_2_at_parse_time(self, capsys,
                                                      argv):
        # Refused by the parser (exit 2, usage line) before any batch,
        # drill or server starts; parsing alone never runs anything.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}")
        assert f"argument {argv[-2]}:" in err
