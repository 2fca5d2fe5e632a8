"""Tests of the benchmark's own arithmetic, seeding and gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import multiprocessing
from pathlib import Path

import common
import ledger as ledger_mod
import pytest
import run as run_mod
from scenarios import SCENARIOS, ServeMixed, seed_offset, seeded_spec

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(ledger_mod.time, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_enclosed_children(tmp_path, clock):
    led = ledger_mod.Ledger(tmp_path)

    def leaf(seconds):
        clock.now += seconds

    def outer():
        clock.now += 1.0
        led.call("workloads.generate", leaf, (2.0,), {})
        led.call("analysis.profile", leaf, (3.0,), {})
        clock.now += 0.5

    led.call("sim.driver", outer, (), {})
    spans = led.snapshot()["spans"]
    assert spans["sim.driver"] == [1.5, 6.5, 1]
    assert spans["workloads.generate"] == [2.0, 2.0, 1]
    assert spans["analysis.profile"] == [3.0, 3.0, 1]

    layer_self = led.ledger_self({"sim.driver"})
    shares = ledger_mod.self_time_shares(layer_self, wall_s=10.0)
    assert shares["sim.driver"] == pytest.approx(0.15)
    assert shares["workloads"] == pytest.approx(0.2)
    assert shares["analysis"] == pytest.approx(0.3)
    assert shares["other"] == pytest.approx(0.35)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_ledger_counts_only_threads_rooted_in_the_timeline(tmp_path, clock):
    led = ledger_mod.Ledger(tmp_path)
    led.call("serve.submit", lambda: setattr(clock, "now", clock.now + 4),
             (), {})
    layer_self = led.ledger_self({"serve.execute"})
    assert sum(layer_self.values()) == 0.0
    with pytest.raises(ValueError):
        ledger_mod.self_time_shares(layer_self, wall_s=0.0)


def test_nested_same_layer_spans_are_not_double_counted(tmp_path, clock):
    led = ledger_mod.Ledger(tmp_path)

    def inner():
        clock.now += 1.0

    def outer():
        led.call("perf.model", inner, (), {})
        clock.now += 0.25

    led.call("perf.model", outer, (), {})
    assert led.snapshot()["spans"]["perf.model"] == [1.25, 2.25, 2]
    assert led.ledger_self({"perf.model"})["perf"] == pytest.approx(1.25)


def _child(led):
    led.call("numa.engine", led.count, ("numa.accesses", 7), {})


def test_forked_worker_spills_its_own_totals(tmp_path):
    led = ledger_mod.Ledger(tmp_path)
    led.call("numa.engine", lambda: None, (), {})  # parent-side span
    proc = multiprocessing.get_context("fork").Process(
        target=_child, args=(led,))
    proc.start()
    proc.join(30)
    assert proc.exitcode == 0
    workers = ledger_mod.read_worker_spills(tmp_path)
    assert len(workers) == 1
    assert workers[0]["spans"]["numa.engine"][2] == 1
    merged = ledger_mod.merge_totals(led.snapshot(), workers)
    assert merged["spans"]["numa.engine"][2] == 2
    assert merged["counts"]["numa.accesses"] == 7
    assert merged["worker_busy_s"] == workers[0]["root_s"]


def test_install_wraps_and_uninstall_restores(tmp_path):
    import repro.sim.driver as driver

    original = driver.generate_trace
    led = ledger_mod.Ledger(tmp_path)
    patches = ledger_mod.install(led)
    try:
        assert driver.generate_trace is not original
        assert driver.generate_trace.__perfbench_original__ is original
    finally:
        ledger_mod.uninstall(patches)
    assert driver.generate_trace is original
    assert {name for _, name, _ in ledger_mod.TARGETS} <= \
        set(ledger_mod.SPAN_LAYERS)


def test_p90_needs_ten_samples_beyond():
    assert common.samples_beyond(100, 90) >= common.TAIL_MIN_BEYOND
    assert common.samples_beyond(92, 90) >= common.TAIL_MIN_BEYOND
    assert common.samples_beyond(91, 90) < common.TAIL_MIN_BEYOND


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert common.percentile(values, 50) == pytest.approx(50.5)
    assert common.percentile(values, 90) == pytest.approx(90.1)
    assert common.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_quartile_spread_is_relative_to_the_median():
    assert common.quartile_spread([1.0] * 10) == 0.0
    assert common.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


def test_metric_names_match_the_contract_alphabet():
    bench = json.loads(BENCHMARK.read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert common.METRIC_NAME.match(name), name
    for bad in ("", "a b", "x/y", "_lead", "a" * 65, "p50%"):
        assert not common.METRIC_NAME.match(bad)
    with pytest.raises(ValueError):
        common.check_metric_names({"ok.name": 1, "bad name": 2})


def test_benchmark_json_names_the_workloads():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(SCENARIOS)


def test_seed_offsets_each_workload_spec():
    from repro.workloads import suite

    base = suite.get("Lulesh")
    assert seeded_spec("Lulesh", 0) == base
    assert seeded_spec("Lulesh", 3).seed == base.seed + 3
    assert seeded_spec("Lulesh", 3).scaled(seed=base.seed) == base
    assert seed_offset(-1) >= 0


def test_serve_sequence_is_chosen_by_the_seed():
    a = ServeMixed(4).sequences
    assert a == ServeMixed(4).sequences
    assert a != ServeMixed(5).sequences
    new_keys = []
    for seq in a:
        assert seq[0].new
        new = [job for job in seq if job.new]
        assert len(new) * ServeMixed.NEW_EVERY == len(seq)
        for i, job in enumerate(seq):
            if not job.new:
                earlier = {(j.system, j.rdc_gb, j.workloads)
                           for j in seq[:i] if j.new}
                assert (job.system, job.rdc_gb, job.workloads) in earlier
        new_keys.append({(j.system, j.rdc_gb, j.workloads) for j in new})
    assert not new_keys[0] & new_keys[1]


def _lulesh_point():
    scenario = SCENARIOS["compare-cold"](0)
    expected = run_mod.load_expected()["compare-cold"]
    key = "numa-gpu/Lulesh"
    return scenario, expected, key


def test_digest_gate_accepts_the_expected_digest():
    scenario, expected, key = _lulesh_point()
    checker = run_mod.Checker(scenario, expected)
    assert checker.check([(key, dict(expected[key]))]) == []
    assert checker.baseline_hits == 1


@pytest.mark.parametrize("field,delta", [("rdc.hit", 1), ("link.bytes", -64),
                                         ("sim.accesses", 1)])
def test_digest_gate_fails_on_a_perturbed_digest(field, delta):
    scenario, expected, key = _lulesh_point()
    digest = dict(expected[key])
    digest[field] += delta
    problems = run_mod.Checker(scenario, expected).check([(key, digest)])
    assert problems
    # Without expectations (another seed) the baseline and the
    # generated-access checks still catch it.
    assert run_mod.Checker(scenario, None).check([(key, digest)])
