"""Tests for the ``repro serve`` job service (docs/serve.md).

Fast tests monkeypatch :func:`repro.serve.jobs.execute_request` with a
gated fake so scheduling behaviour (coalescing, backpressure, graceful
shutdown) is exercised deterministically, without simulating anything.
A small number of integration tests run the real simulator through the
full socket path.
"""

from __future__ import annotations

import json
import os
import threading
from types import SimpleNamespace

import pytest

from repro.lint.resolver import MetricNameResolver
from repro.obs.events import EVENT_KINDS
from repro.obs.metrics import SPECS, default_registry
from repro.serve import ServeClient, ThreadedServer
from repro.serve.jobs import JobRequest, RequestError
from repro.serve.routes import ROUTES, match_route, methods_for
from repro.serve.store import ResultStore, cas_key
from repro.sim import durable
from repro.sim.chaos import KIND_WORKER_KILL, FaultEvent
from tests.conftest import arm_chaos, pooled_attempts

WORKLOAD = "Lulesh"
OTHER_WORKLOADS = ("XSBench", "AMG", "CoMD", "MCB", "HPGMG")


def _fake_execute(started=None, release=None, ok=True):
    """A stand-in for execute_request, optionally gated on events."""

    def fake(request, journal_path, pool_jobs, *, on_event=None,
             pin=False):
        if started is not None:
            started.set()
        if release is not None:
            assert release.wait(30), "test never released the fake job"
        payload = {
            "system": request.system,
            "workloads": list(request.workloads),
            "rdc_gb": request.rdc_gb,
            "fingerprint": {"fake": True},
            "ok": ok,
            "elapsed_s": 0.0,
            "results": {},
            "failures": {} if ok else {
                WORKLOAD: {"key": f"{request.system}/{WORKLOAD}",
                           "kind": "exception",
                           "exception_type": "RuntimeError",
                           "message": "boom", "traceback": "",
                           "config_hash": "", "attempts": 1,
                           "elapsed_s": 0.0},
            },
            "cancelled": [],
        }
        return payload, SimpleNamespace(ok=ok)

    return fake


# ---------------------------------------------------------------------------
# Route registry
# ---------------------------------------------------------------------------

class TestRoutes:
    def test_every_route_matches_its_own_pattern(self):
        for spec in ROUTES:
            sample = spec.pattern.replace("<id>", "job-0001-abcdef01")
            matched = match_route(spec.method, sample)
            assert matched is not None
            assert matched[0] is spec

    def test_path_params_extracted(self):
        spec, params = match_route("GET", "/jobs/job-0007-cafe/result")
        assert spec.name == "job_result"
        assert params == {"id": "job-0007-cafe"}

    def test_unknown_path_matches_nothing(self):
        assert match_route("GET", "/nope") is None
        assert methods_for("/nope") == []

    def test_wrong_method_reports_allowed(self):
        assert match_route("DELETE", "/jobs") is None
        assert methods_for("/jobs") == ["GET", "POST"]


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

class TestJobRequest:
    def test_minimal_payload_fills_defaults(self):
        req = JobRequest.from_payload(
            {"system": "numa-gpu", "workloads": [WORKLOAD]}
        )
        assert req.system == "numa-gpu"
        assert req.workloads == (WORKLOAD,)
        assert req.rdc_gb == 2.0 and req.use_cache is True

    @pytest.mark.parametrize("payload, fragment", [
        ([], "JSON object"),
        ({"workloads": [WORKLOAD]}, "system:"),
        ({"system": "warp-drive"}, "system:"),
        ({"system": "numa-gpu", "workloads": []}, "workloads:"),
        ({"system": "numa-gpu", "workloads": ["NotAWorkload"]},
         "NotAWorkload"),
        ({"system": "numa-gpu", "rdc_gb": -1}, "rdc_gb:"),
        ({"system": "numa-gpu", "use_cache": "yes"}, "use_cache:"),
        ({"system": "numa-gpu", "timeout_s": 0}, "timeout_s:"),
        ({"system": "numa-gpu", "retries": -2}, "retries:"),
        ({"system": "numa-gpu", "surprise": 1}, "unknown field"),
        ({"system": "numa-gpu", "workloads": ["Euler", WORKLOAD, "Euler"]},
         "workloads: Euler given more than once"),
    ])
    def test_bad_payloads_name_the_field(self, payload, fragment):
        with pytest.raises(RequestError, match=None) as exc:
            JobRequest.from_payload(payload)
        assert fragment in str(exc.value)

    def test_cas_key_ignores_runner_knobs(self):
        base = {"system": "numa-gpu", "workloads": [WORKLOAD]}
        a = JobRequest.from_payload(base)
        b = JobRequest.from_payload({**base, "retries": 3,
                                     "timeout_s": 60.0})
        assert a.cas_key() == b.cas_key()

    def test_cas_key_varies_with_config(self):
        a = JobRequest.from_payload(
            {"system": "numa-gpu", "workloads": [WORKLOAD]})
        b = JobRequest.from_payload(
            {"system": "carve-hwc", "workloads": [WORKLOAD]})
        c = JobRequest.from_payload(
            {"system": "carve-hwc", "workloads": [WORKLOAD],
             "rdc_gb": 4.0})
        assert len({a.cas_key(), b.cas_key(), c.cas_key()}) == 3


# ---------------------------------------------------------------------------
# The content-addressed store
# ---------------------------------------------------------------------------

class TestResultStore:
    @pytest.fixture(autouse=True)
    def _fresh_warning_latch(self, monkeypatch):
        """Quarantines warn once per artifact kind per process."""
        monkeypatch.setattr(durable, "_warned_kinds", set())

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = cas_key(config_hash="abc", code_version=1,
                      system="numa-gpu", workloads=(WORKLOAD,))
        assert store.load(key) is None
        store.save(key, {"ok": True, "n": 42})
        assert store.load(key) == {"ok": True, "n": 42}
        assert store.keys() == [key]

    def test_workload_order_does_not_change_the_key(self):
        kw = dict(config_hash="abc", code_version=1, system="s")
        assert cas_key(workloads=("A", "B"), **kw) == \
            cas_key(workloads=("B", "A"), **kw)

    def test_corrupt_file_is_quarantined_and_counted(self, tmp_path):
        registry = default_registry()
        store = ResultStore(tmp_path, registry=registry)
        key = "deadbeef" * 4
        store.save(key, {"ok": True})
        path = store.result_path(key)
        path.write_text(path.read_text()[:-20] + "garbage}\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load(key) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        assert registry.get("serve.store_quarantined").total() == 1
        # quarantine cleared the slot: a fresh save works again
        store.save(key, {"ok": True})
        assert store.load(key) == {"ok": True}

    def test_checksum_mismatch_detected(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cafebabe" * 4
        store.save(key, {"value": 1})
        path = store.result_path(key)
        envelope = json.loads(path.read_text())
        envelope["payload"]["value"] = 2  # silent bit-flip, sum stale
        path.write_text(json.dumps(envelope))
        with pytest.warns(RuntimeWarning):
            assert store.load(key) is None

    def test_orphaned_tmp_swept_on_open(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "feedface" * 4
        store.save(key, {"ok": True})
        # A save SIGKILLed between write and rename leaves its tmp file.
        orphan = store.results_dir / f"{key}.4242.abcd1234.tmp"
        orphan.write_text("{half-written")
        reopened = ResultStore(tmp_path)
        assert not orphan.exists()
        assert reopened.load(key) == {"ok": True}

    def test_key_mismatch_detected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a" * 32, {"value": 1})
        # file renamed to the wrong address
        store.result_path("a" * 32).rename(store.result_path("b" * 32))
        with pytest.warns(RuntimeWarning):
            assert store.load("b" * 32) is None


# ---------------------------------------------------------------------------
# Scheduling behaviour (fake executor — fast and deterministic)
# ---------------------------------------------------------------------------

class TestScheduling:
    def test_inflight_coalescing(self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            first = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert first.status == 201 and first["dedup"] == "new"
            assert started.wait(10)
            # same config while running → same job id, one execution
            second = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert second.status == 200
            assert second["dedup"] == "coalesced"
            assert second["id"] == first["id"]
            release.set()
            final = c.wait(first["id"], timeout=30)
            assert final["state"] == "done"
            snap = c.metricsz().body
            assert snap["serve.coalesced"]["values"][""] == 1

    def test_completed_config_is_a_cas_hit(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute())
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            first = c.submit("numa-gpu", workloads=[WORKLOAD])
            c.wait(first["id"], timeout=30)
            again = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert again.status == 200
            assert again["dedup"] == "cached"
            assert again["state"] == "done"
            assert again["id"] != first["id"]
            assert again["key"] == first["key"]
            # the cached job serves the stored payload
            assert c.result(again["id"])["fingerprint"] == {"fake": True}

    def test_concurrent_clients_execute_each_config_once(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute())
        configs = [WORKLOAD, *OTHER_WORKLOADS[:2]]
        dedups: list[str] = []
        lock = threading.Lock()
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            def client_main() -> None:
                c = ServeClient(port=srv.port)
                for _ in range(2):
                    for workload in configs:
                        r = c.submit("numa-gpu", workloads=[workload])
                        with lock:
                            dedups.append(r["dedup"])

            threads = [threading.Thread(target=client_main)
                       for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            c = ServeClient(port=srv.port)
            for job in c.jobs()["jobs"]:
                c.wait(job["id"], timeout=30)
            snap = c.metricsz().body
        assert len(dedups) == 18
        assert dedups.count("new") == len(configs)
        assert set(dedups) <= {"new", "coalesced", "cached"}
        hits = (snap["serve.coalesced"]["values"].get("", 0)
                + snap["serve.deduped"]["values"].get("", 0))
        assert hits == len(dedups) - len(configs)

    def test_cas_survives_restart(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute())
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD])
            c.wait(r["id"], timeout=30)
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            again = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert again["dedup"] == "cached"

    def test_queue_full_answers_429_with_retry_after(self, tmp_path,
                                                     monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1, queue_depth=1) as srv:
            c = ServeClient(port=srv.port)
            # distinct configs: dedup must not mask the queue
            c.submit("numa-gpu", workloads=[WORKLOAD])
            assert started.wait(10)          # executing, queue empty
            queued = c.submit("numa-gpu", workloads=[OTHER_WORKLOADS[0]])
            assert queued.status == 201      # fills the queue
            rejected = c.submit("numa-gpu",
                                workloads=[OTHER_WORKLOADS[1]])
            assert rejected.status == 429
            assert rejected.headers["retry-after"] == "5"
            assert rejected["retry_after_s"] == 5
            # a coalescing submit still bypasses the full queue
            again = c.submit("numa-gpu", workloads=[OTHER_WORKLOADS[0]])
            assert again.status == 200 and again["dedup"] == "coalesced"
            release.set()
            snap = c.metricsz().body
            assert snap["serve.rejected"]["values"][""] == 1

    def test_failed_jobs_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(ok=False))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD])
            final = c.wait(r["id"], timeout=30)
            assert final["state"] == "failed"
            assert final["failures"][WORKLOAD]["kind"] == "exception"
            # failure is a property of the attempt: resubmit re-runs
            again = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert again["dedup"] == "new"

    def test_graceful_shutdown_drains_inflight_cancels_queued(
            self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        srv = ThreadedServer(tmp_path, pool_jobs=1)
        srv.start()
        c = ServeClient(port=srv.port)
        running = c.submit("numa-gpu", workloads=[WORKLOAD])
        assert started.wait(10)
        queued = c.submit("numa-gpu", workloads=[OTHER_WORKLOADS[0]])
        stopper = threading.Thread(target=srv.stop)
        stopper.start()
        release.set()
        stopper.join(30)
        assert not stopper.is_alive()
        # the in-flight job completed and its result was stored ...
        store = ResultStore(tmp_path)
        running_req = JobRequest.from_payload(
            {"system": "numa-gpu", "workloads": [WORKLOAD]})
        assert store.load(running_req.cas_key()) is not None
        # ... while the queued one never executed
        queued_req = JobRequest.from_payload(
            {"system": "numa-gpu", "workloads": [OTHER_WORKLOADS[0]]})
        assert store.load(queued_req.cas_key()) is None
        assert running["id"] != queued["id"]

    def test_two_new_jobs_run_at_once(self, tmp_path, monkeypatch):
        both_started, release = threading.Event(), threading.Event()
        gated = _fake_execute(release=release)
        starts = []
        lock = threading.Lock()

        def fake(*args, **kwargs):
            with lock:
                starts.append(args[0].workloads)
                if len(starts) == 2:
                    both_started.set()
            return gated(*args, **kwargs)

        monkeypatch.setattr("repro.serve.jobs.execute_request", fake)
        with ThreadedServer(tmp_path, pool_jobs=2) as srv:
            c = ServeClient(port=srv.port)
            ids = [c.submit("numa-gpu", workloads=[w])["id"]
                   for w in (WORKLOAD, OTHER_WORKLOADS[0])]
            # Both execute before either is released.
            assert both_started.wait(10)
            assert [c.job(i)["state"] for i in ids] == ["running"] * 2
            release.set()
            assert [c.wait(i, timeout=30)["state"] for i in ids] == \
                ["done"] * 2


# ---------------------------------------------------------------------------
# The bounded store (LRU eviction, docs/serve.md)
# ---------------------------------------------------------------------------

class TestStoreGC:
    def _filled(self, root, keys, registry=None, max_bytes=None):
        store = ResultStore(root, registry=registry, max_bytes=max_bytes)
        for i, key in enumerate(keys):
            store.save(key, {"n": i, "pad": "x" * 64})
            # deterministic LRU order regardless of filesystem timestamp
            # resolution
            os.utime(store.result_path(key), (i, i))
        return store

    def test_unbounded_store_never_evicts(self, tmp_path):
        keys = ["a" * 32, "b" * 32]
        store = self._filled(tmp_path, keys)
        assert sorted(store.keys()) == keys

    def test_post_write_eviction_is_lru_and_counted(self, tmp_path):
        registry = default_registry()
        keys = ["a" * 32, "b" * 32]
        store = self._filled(tmp_path, keys, registry=registry)
        entry = store._entry_bytes(keys[0])
        store.max_bytes = 2 * entry  # room for two entries
        newest = "c" * 32
        store.save(newest, {"n": 2, "pad": "x" * 64})
        # oldest mtime went first; the just-written key is protected
        assert sorted(store.keys()) == sorted([keys[1], newest])
        assert registry.get("serve.store_evicted").total() == 1

    def test_load_refreshes_lru_position(self, tmp_path):
        registry = default_registry()
        keys = ["a" * 32, "b" * 32]
        store = self._filled(tmp_path, keys, registry=registry)
        store.max_bytes = 2 * store._entry_bytes(keys[0])
        assert store.load(keys[0]) is not None  # touch: "a" now newest
        store.save("c" * 32, {"n": 2, "pad": "x" * 64})
        assert sorted(store.keys()) == sorted([keys[0], "c" * 32])

    def test_startup_gc_enforces_the_bound(self, tmp_path):
        registry = default_registry()
        keys = ["a" * 32, "b" * 32, "c" * 32]
        store = self._filled(tmp_path, keys)
        bound = store._entry_bytes(keys[0]) * 2
        reopened = ResultStore(tmp_path, registry=registry,
                               max_bytes=bound)
        assert sorted(reopened.keys()) == sorted(keys[1:])
        assert registry.get("serve.store_evicted").total() == 1

    def test_eviction_removes_the_whole_entry(self, tmp_path):
        from repro.sim.journal import Journal

        key = "a" * 32
        store = self._filled(tmp_path, [key])
        journal = Journal(store.journal_path(key))
        journal.append("meta", "", fingerprint={})
        journal.store_result("numa-gpu/Lulesh", {"time_s": 1.0})
        assert journal.results_dir.is_dir()
        store.max_bytes = 1  # smaller than anything
        protected = "b" * 32
        store.save(protected, {"n": 1})
        assert store.keys() == [protected]
        assert not journal.path.exists()
        assert not journal.results_dir.exists()


# ---------------------------------------------------------------------------
# The event stream and the trace endpoint (docs/tracing.md)
# ---------------------------------------------------------------------------

class TestEventStreamAndTrace:
    def test_long_poll_cursor_and_terminal_drain(self, tmp_path,
                                                 monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            job = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert started.wait(10)
            first = c.events(job["id"])
            assert first.status == 200
            kinds = [e["kind"] for e in first["events"]]
            assert kinds == ["job.queued", "job.running"]
            assert first["next"] == first["events"][-1]["seq"]
            release.set()
            # the long poll parks until the terminal event arrives
            more = c.events(job["id"], since=first["next"], wait=10)
            assert [e["kind"] for e in more["events"]] == ["job.done"]
            assert more["state"] == "done"
            # a terminal job returns immediately, stream drained
            drained = c.events(job["id"], since=more["next"], wait=30)
            assert drained["events"] == []
            snap = c.metricsz().body
            assert snap["serve.stream_clients"]["values"][""] == 0

    def test_coalesced_submit_is_visible_in_the_stream(self, tmp_path,
                                                       monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            job = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert started.wait(10)
            c.submit("numa-gpu", workloads=[WORKLOAD])  # coalesces
            release.set()
            c.wait(job["id"], timeout=30)
            stream = c.events(job["id"])
            assert "job.coalesced" in [e["kind"] for e in stream["events"]]

    def test_events_error_cases(self, tmp_path):
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            assert c.events("job-9999-missing").status == 404
            r = c.request("GET", "/jobs/job-9999-missing/events?since=x")
            assert r.status == 404  # unknown job wins over bad params

    def test_bad_cursor_is_a_400(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute())
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            job = c.submit("numa-gpu", workloads=[WORKLOAD])
            c.wait(job["id"], timeout=30)
            r = c.request("GET", f"/jobs/{job['id']}/events?since=x")
            assert r.status == 400

    def test_trace_unready_answers_409(self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            assert c.trace("job-9999-missing").status == 404
            job = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert started.wait(10)
            pending = c.trace(job["id"])
            assert pending.status == 409
            assert pending["state"] == "running"
            release.set()


# ---------------------------------------------------------------------------
# HTTP surface details (fake executor)
# ---------------------------------------------------------------------------

class TestHttpSurface:
    def test_unknown_job_404s(self, tmp_path):
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            assert c.job("job-9999-missing").status == 404
            assert c.result("job-9999-missing").status == 404
            assert c.report("job-9999-missing").status == 404

    def test_unknown_route_404s_wrong_method_405s(self, tmp_path):
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            assert c.request("GET", "/nope").status == 404
            r = c.request("DELETE", "/jobs")
            assert r.status == 405
            assert r.headers["allow"] == "GET, POST"

    def test_invalid_submissions_400(self, tmp_path):
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("warp-drive")
            assert r.status == 400 and "system:" in r["error"]
            r = c.submit("numa-gpu", workloads=["NotAWorkload"])
            assert r.status == 400 and "NotAWorkload" in r["error"]

    def test_repeated_workload_400(self, tmp_path):
        # Refused at the boundary: no job, no execution.
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=["Euler", "Euler"])
            assert r.status == 400
            assert "Euler given more than once" in r["error"]
        assert list((tmp_path / "journals").iterdir()) == []

    def test_result_before_completion_409s(self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr("repro.serve.jobs.execute_request",
                            _fake_execute(started, release))
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD])
            assert started.wait(10)
            pending = c.result(r["id"])
            assert pending.status == 409
            assert pending["state"] == "running"
            release.set()

    def test_healthz_and_job_list(self, tmp_path):
        with ThreadedServer(tmp_path, queue_depth=3) as srv:
            c = ServeClient(port=srv.port)
            h = c.healthz()
            assert h.status == 200 and h["ok"] is True
            assert h["accepting"] is True
            assert h["queue_capacity"] == 3
            listing = c.jobs()
            assert listing.status == 200
            assert listing["jobs"] == []

    def test_metricsz_names_resolve_against_the_contract(self, tmp_path):
        resolver = MetricNameResolver(SPECS, EVENT_KINDS)
        with ThreadedServer(tmp_path) as srv:
            c = ServeClient(port=srv.port)
            snap = c.metricsz().body
        assert "serve.submitted" in snap
        for name in snap:
            assert resolver.looks_like_metric(name), name
            assert resolver.resolve(name) is None, name


# ---------------------------------------------------------------------------
# Integration (real simulator through the real socket)
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_submit_status_result_report_round_trip(self, tmp_path):
        with ThreadedServer(tmp_path, pool_jobs=1) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD],
                         use_cache=False)
            assert r.status == 201
            final = c.wait(r["id"], timeout=300)
            assert final["state"] == "done"
            result = c.result(r["id"])
            assert result.status == 200 and result["ok"] is True
            digest = result["results"][WORKLOAD]["metrics"]
            assert digest["sim.accesses"] > 0
            assert result["results"][WORKLOAD]["time_s"] > 0
            fp = result["fingerprint"]
            assert fp["config_hash"] and fp["code_version"]
            report = c.report(r["id"])
            assert report.status == 200
            assert report.headers["content-type"].startswith("text/html")
            assert "<html" in report.body
            # the journal really is the report's source
            store = ResultStore(tmp_path)
            assert store.journal_path(final["key"]).exists()

    def test_concurrent_jobs_match_a_serial_server(self, tmp_path):
        # Two new jobs at once on a 2-slot budget give byte-identical
        # result digests to the same jobs on a one-job-at-a-time server.
        requests = [("numa-gpu", [WORKLOAD, "Euler"]),
                    ("carve-swc", [WORKLOAD])]

        def digests(store, pool_jobs):
            with ThreadedServer(store, pool_jobs=pool_jobs) as srv:
                c = ServeClient(port=srv.port)
                ids = [c.submit(system, workloads=w, use_cache=False)["id"]
                       for system, w in requests]
                finals = [c.wait(i, timeout=300) for i in ids]
                assert [f["state"] for f in finals] == ["done"] * 2
                keys = [f["key"] for f in finals]
                out = [json.dumps(c.result(i)["results"], sort_keys=True)
                       for i in ids]
            return out, [ResultStore(store).journal_path(k) for k in keys]

        concurrent, journals = digests(tmp_path / "two", 2)
        assert concurrent == digests(tmp_path / "one", 1)[0]
        # The jobs drew from one budget: attempts that overlap in time
        # ran on different slots.
        spans = [pooled_attempts(j) for j in journals]
        assert all(spans)
        for slot_a, start_a, end_a in spans[0]:
            for slot_b, start_b, end_b in spans[1]:
                if start_a < end_b and start_b < end_a:
                    assert slot_a != slot_b

    def test_trace_endpoint_round_trip(self, tmp_path):
        from repro.obs.export import PID_WORKER_BASE

        # pool_jobs=2: the isolated pool path, so the attempt lands on
        # a worker row rather than the runner row
        with ThreadedServer(tmp_path, pool_jobs=2) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD],
                         use_cache=False)
            final = c.wait(r["id"], timeout=300)
            assert final["state"] == "done"
            assert final["events"] >= 3
            doc = c.trace(r["id"])
            assert doc.status == 200
            body = doc.body
            assert body["otherData"]["attempts"] == 1
            assert body["otherData"]["unfinished"] == 0
            (attempt,) = [e for e in body["traceEvents"] if e["ph"] == "X"]
            assert attempt["args"]["key"] == f"numa-gpu/{WORKLOAD}"
            assert attempt["args"]["status"] == "ok"
            # the attempt landed on its labeled worker row
            assert attempt["pid"] >= PID_WORKER_BASE
            # the serve lifecycle rides along as its own row
            serve_row = [e for e in body["traceEvents"]
                         if e.get("cat") == "serve"]
            assert any(e["name"] == "job.done" for e in serve_row)
            # offline assembly of the same artifacts agrees
            offline = c.request("GET", f"/jobs/{r['id']}/trace")
            assert offline.status == 200

    def test_worker_crash_surfaces_failure_report(self, tmp_path,
                                                  monkeypatch):
        # SIGKILL the pool worker at task entry (a one-event chaos
        # plan); pool_jobs=2 keeps the crash in an isolated worker.
        arm_chaos(monkeypatch, tmp_path / "chaos",
                  FaultEvent(KIND_WORKER_KILL, WORKLOAD))
        with ThreadedServer(tmp_path, pool_jobs=2) as srv:
            c = ServeClient(port=srv.port)
            r = c.submit("numa-gpu", workloads=[WORKLOAD],
                         use_cache=False)
            final = c.wait(r["id"], timeout=300)
            assert final["state"] == "failed"
            report = final["failures"][WORKLOAD]
            assert report["kind"] == "crash"
            assert report["key"] == f"numa-gpu/{WORKLOAD}"
            assert report["attempts"] >= 1
            # failed configs never enter the CAS
            assert ResultStore(tmp_path).keys() == []
