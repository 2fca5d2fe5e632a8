#!/usr/bin/env python
"""End-to-end acceptance drive of a live ``repro serve`` process.

Run by the CI ``serve`` job (and usable locally).  Spawns the real CLI
(``python -m repro serve``) as a subprocess, then exercises the whole
documented contract through the real socket:

1.  ``GET /healthz`` answers and reports an empty queue.
2.  Two *concurrent* submissions of the same config coalesce onto one
    job id — exactly one execution happens.
3.  A ``GET /jobs/<id>/events`` long-poll follows the job live from
    ``job.queued`` through per-point ``point.done`` to ``job.done``,
    with a gapless cursor.
4.  ``GET /jobs/<id>`` reaches ``done``; ``GET /jobs/<id>/result``
    carries per-workload digests and a provenance fingerprint.
5.  A post-completion resubmission is a CAS hit (``"dedup": "cached"``)
    and its result matches the executed one byte for byte.
6.  ``GET /jobs/<id>/report`` returns the HTML dashboard.
7.  ``GET /jobs/<id>/trace`` returns the timeline assembled from the
    job's journal: one attempt slice per workload, each carrying one of
    the job's keys and sitting on a ``worker NN`` row, and no
    unfinished attempts.
8.  ``GET /metricsz`` confirms the dedup counters: 1 coalesced, 1
    cached, and a single execution's completion.

Exit status 0 when every step holds; 1 with a message otherwise.  The
store directory (CAS + journals) is left behind at ``--store`` so CI
can upload it as an artifact on failure.

Usage::

    PYTHONPATH=src python tools/serve_e2e.py [--store DIR] [--port N]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

SYSTEM = "carve-hwc"
WORKLOADS = ["Lulesh", "XSBench"]


def wait_for_server(client: ServeClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().ok:
                return
        except OSError:
            time.sleep(0.2)
    raise RuntimeError(f"server not answering after {timeout}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default="serve-e2e-store",
                        help="store directory (kept for CI artifacts)")
    parser.add_argument("--port", type=int, default=8971)
    args = parser.parse_args(argv)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(args.port),
         "--jobs", "2", "--queue-depth", "4", "--store", args.store],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        client = ServeClient(port=args.port, timeout=60)
        wait_for_server(client)
        health = client.healthz()
        assert health["ok"] and health["queue_depth"] == 0, health.body

        # -- concurrent duplicate submissions coalesce ------------------
        results: list = [None, None]

        def submit(slot: int) -> None:
            results[slot] = client.submit(SYSTEM, workloads=WORKLOADS,
                                          use_cache=False)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        a, b = results
        assert a.status in (200, 201) and b.status in (200, 201), \
            (a.body, b.body)
        assert a["id"] == b["id"], \
            f"concurrent duplicates got distinct jobs: {a.body} {b.body}"
        dispositions = sorted((a["dedup"], b["dedup"]))
        assert dispositions == ["coalesced", "new"], dispositions
        job_id = a["id"]
        print(f"e2e: concurrent duplicates coalesced onto {job_id}")

        # -- the live event stream follows the job to completion --------
        seen: list = []
        cursor = 0
        stream_deadline = time.monotonic() + 600
        while time.monotonic() < stream_deadline:
            stream = client.events(job_id, since=cursor, wait=10)
            assert stream.status == 200, stream.body
            seen.extend(stream["events"])
            cursor = stream["next"]
            if stream["state"] in ("done", "failed", "cancelled") \
                    and not stream["events"]:
                break
        kinds = [e["kind"] for e in seen]
        assert kinds[0] == "job.queued", kinds
        assert "job.running" in kinds, kinds
        assert kinds[-1] == "job.done", kinds
        assert kinds.count("point.done") == len(WORKLOADS), kinds
        assert [e["seq"] for e in seen] == list(range(1, len(seen) + 1)), \
            "event stream has gaps"
        print(f"e2e: streamed {len(seen)} events live: "
              f"{' -> '.join(kinds)}")

        # -- completion, result, provenance -----------------------------
        final = client.wait(job_id, timeout=600)
        assert final["state"] == "done", final.body
        result = client.result(job_id)
        assert result.status == 200 and result["ok"], result.body
        for w in WORKLOADS:
            digest = result["results"][w]["metrics"]
            assert digest["sim.accesses"] > 0, digest
        fp = result["fingerprint"]
        assert fp["config_hash"] and fp["code_version"], fp
        print(f"e2e: {job_id} done; fingerprint {fp['config_hash']} "
              f"@ code_version {fp['code_version']}")

        # -- post-completion resubmit is a CAS hit ----------------------
        cached = client.submit(SYSTEM, workloads=WORKLOADS,
                               use_cache=False)
        assert cached.status == 200 and cached["dedup"] == "cached", \
            cached.body
        assert cached["state"] == "done"
        assert client.result(cached["id"]).body == result.body
        print(f"e2e: resubmission served from CAS as {cached['id']}")

        # -- the report endpoint renders HTML ---------------------------
        report = client.report(job_id)
        assert report.status == 200, report.body
        assert report.headers["content-type"].startswith("text/html")
        assert "<html" in report.body and job_id in report.body
        print(f"e2e: report is {len(report.body)} bytes of HTML")

        # -- the assembled timeline -------------------------------------
        trace = client.trace(job_id)
        assert trace.status == 200, trace.body
        other = trace["otherData"]
        assert other["unfinished"] == 0, other
        rows = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
                if e["name"] == "process_name"}
        assert "runner" in rows.values() and "serve" in rows.values(), rows
        keys = {f"{SYSTEM}/{w}" for w in WORKLOADS}
        slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {s["args"]["key"] for s in slices} == keys, slices
        for s in slices:
            assert rows[s["pid"]].startswith("worker "), \
                f"attempt {s['name']} is not on a worker row: {rows}"
        print(f"e2e: timeline has {other['attempts']} attempts on rows "
              f"{sorted(rows.values())}")

        # -- metrics agree with the story -------------------------------
        snap = client.metricsz().body
        counters = {k: v["values"].get("", 0) for k, v in snap.items()
                    if k.startswith("serve.")
                    and v["kind"] == "counter" and not v["labels"]}
        assert counters["serve.submitted"] == 3, counters
        assert counters["serve.coalesced"] == 1, counters
        assert counters["serve.deduped"] == 1, counters
        assert counters["serve.rejected"] == 0, counters
        print(f"e2e: counters {counters}")

        print("serve e2e ok: coalesce + CAS hit + report, "
              "one execution total")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


if __name__ == "__main__":
    sys.exit(main())
