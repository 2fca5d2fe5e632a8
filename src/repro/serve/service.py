"""The HTTP frontend of ``repro serve`` — stdlib asyncio, no framework.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`:
parse one request, dispatch through the route registry
(:mod:`repro.serve.routes`), write one response, close.  Every response
body is JSON except the per-job HTML report.  The wire contract —
status codes, headers, schemas — is documented in ``docs/serve.md``.

Backpressure is explicit: when the submission queue is full, ``POST
/jobs`` answers **429** with a ``Retry-After`` header instead of
buffering unboundedly; during shutdown it answers **503** while
in-flight work drains.

:class:`ThreadedServer` runs the whole service inside a background
thread with its own event loop — the harness tests and the load bench
drive a real socket without managing asyncio themselves.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import threading
import urllib.parse
from pathlib import Path
from typing import Optional

from repro.obs.metrics import default_registry
from repro.serve.jobs import (
    DONE,
    FAILED,
    RETRY_AFTER_S,
    JobRequest,
    JobService,
    QueueFullError,
    RequestError,
    ShuttingDownError,
)
from repro.serve.routes import match_route, methods_for
from repro.serve.store import ResultStore

#: Largest accepted request body; a suite config is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Ceiling on one ``GET /jobs/<id>/events`` long-poll wait, seconds.
#: Clients re-poll with the returned ``next`` cursor; capping the wait
#: bounds how long a dead client can hold a connection open.
MAX_EVENT_WAIT_S = 30.0

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServeApp:
    """Route handlers bound to one :class:`JobService` + store."""

    def __init__(self, service: JobService):
        self.service = service

    # Handlers return (status, headers-dict, body-bytes-or-obj).  A dict
    # or list body is JSON-encoded; bytes pass through (report HTML).

    def submit(self, params, body):
        try:
            request = JobRequest.from_payload(body)
            job, disposition = self.service.submit(request)
        except RequestError as exc:
            return 400, {}, {"error": str(exc)}
        except QueueFullError as exc:
            return (429, {"Retry-After": str(RETRY_AFTER_S)},
                    {"error": str(exc), "retry_after_s": RETRY_AFTER_S})
        except ShuttingDownError as exc:
            return 503, {}, {"error": str(exc)}
        status = 200 if disposition != "new" else 201
        return status, {}, {
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "dedup": disposition,
        }

    def list_jobs(self, params, body):
        return 200, {}, {
            "jobs": [j.status_payload() for j in self.service.jobs()],
            "queue_depth": self.service.queue_size(),
        }

    def job_status(self, params, body):
        job = self.service.get(params["id"])
        if job is None:
            return 404, {}, {"error": f"no such job {params['id']!r}"}
        return 200, {}, job.status_payload()

    def job_result(self, params, body):
        job = self.service.get(params["id"])
        if job is None:
            return 404, {}, {"error": f"no such job {params['id']!r}"}
        if job.state not in (DONE, FAILED) or job.result is None:
            return 409, {}, {
                "error": f"job {job.id} has no result yet "
                         f"(state: {job.state})",
                "state": job.state,
            }
        return 200, {}, job.result

    def job_report(self, params, body):
        job = self.service.get(params["id"])
        if job is None:
            return 404, {}, {"error": f"no such job {params['id']!r}"}
        journal = self.service.store.journal_path(job.key)
        if not job.terminal or not journal.exists():
            return 409, {}, {
                "error": f"job {job.id} has no report yet "
                         f"(state: {job.state})",
                "state": job.state,
            }
        # Imported lazily: report rendering is the one handler that
        # needs the analysis stack, and it only runs on demand.
        from repro.obs.report import build_report, markdown_to_html

        md = build_report(
            journal_paths=(journal,),
            title=f"repro serve · {job.id} · {job.request.system}",
        )
        html = markdown_to_html(
            md, title=f"repro serve · {job.id}"
        )
        return 200, {"Content-Type": "text/html; charset=utf-8"}, \
            html.encode("utf-8")

    async def job_events(self, params, body):
        """Long-poll event stream (docs/tracing.md documents a session).

        Query parameters: ``since`` (last seq already seen, default 0)
        and ``wait`` (seconds to park when nothing is fresh, default 0,
        capped at :data:`MAX_EVENT_WAIT_S`).  The response carries a
        ``next`` cursor to pass as the following ``since``.
        """
        job = self.service.get(params["id"])
        if job is None:
            return 404, {}, {"error": f"no such job {params['id']!r}"}
        try:
            since = int(params.get("since", 0))
            wait_s = float(params.get("wait", 0.0))
        except (TypeError, ValueError):
            return 400, {}, {
                "error": "since/wait must be numeric query parameters"
            }
        wait_s = max(0.0, min(wait_s, MAX_EVENT_WAIT_S))
        events = await self.service.wait_events(job, since=since,
                                                timeout_s=wait_s)
        next_seq = events[-1]["seq"] if events else since
        return 200, {}, {
            "id": job.id,
            "state": job.state,
            "next": next_seq,
            "events": events,
        }

    def job_trace(self, params, body):
        job = self.service.get(params["id"])
        if job is None:
            return 404, {}, {"error": f"no such job {params['id']!r}"}
        journal = self.service.store.journal_path(job.key)
        if not job.terminal or not journal.exists():
            return 409, {}, {
                "error": f"job {job.id} has no trace yet "
                         f"(state: {job.state})",
                "state": job.state,
            }
        # Imported lazily: assembly only runs on demand.
        from repro.obs.export import assemble_trace

        doc = assemble_trace(
            journal,
            title=f"repro serve · {job.id} · {job.request.system}",
            serve_events=job.events,
        )
        return 200, {}, doc

    def healthz(self, params, body):
        return 200, {}, {
            "ok": True,
            "accepting": self.service.accepting,
            "queue_depth": self.service.queue_size(),
            "queue_capacity": self.service.queue_depth,
            "jobs": len(self.service.jobs()),
        }

    def metricsz(self, params, body):
        registry = self.service.registry
        if registry is None:
            return 200, {}, {}
        return 200, {}, registry.snapshot()


async def handle_connection(app: ServeApp, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    try:
        status, headers, body = await _handle_request(app, reader)
    except Exception as exc:  # defensive: a handler bug must not kill the loop
        status, headers, body = 500, {}, {
            "error": f"{type(exc).__name__}: {exc}"
        }
    try:
        _write_response(writer, status, headers, body)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _handle_request(app: ServeApp, reader: asyncio.StreamReader):
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        return 400, {}, {"error": "empty request"}
    parts = request_line.split()
    if len(parts) != 3:
        return 400, {}, {"error": f"malformed request line: "
                                  f"{request_line!r}"}
    method, target, _version = parts
    path, _, query = target.partition("?")

    content_length = 0
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return 400, {}, {"error": "bad Content-Length"}
    if content_length > MAX_BODY_BYTES:
        return 413, {}, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}

    body_obj = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            body_obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {}, {"error": f"request body is not valid JSON: "
                                      f"{exc}"}

    matched = match_route(method, path)
    if matched is None:
        allowed = methods_for(path)
        if allowed:
            return (405, {"Allow": ", ".join(allowed)},
                    {"error": f"{method} not allowed on {path}; "
                              f"allowed: {', '.join(allowed)}"})
        return 404, {}, {"error": f"no route for {method} {path}"}
    spec, params = matched
    # Query parameters merge under the path parameters (a path segment
    # always wins over a same-named query key).
    for key, value in urllib.parse.parse_qsl(query):
        params.setdefault(key, value)
    handler = getattr(app, spec.name)
    result = handler(params, body_obj)
    if inspect.isawaitable(result):  # long-poll handlers are async
        result = await result
    return result


def _write_response(writer: asyncio.StreamWriter, status: int,
                    headers: dict, body) -> None:
    if isinstance(body, (dict, list)):
        payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        headers.setdefault("Content-Type", "application/json")
    else:
        payload = body if isinstance(body, bytes) else str(body).encode()
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    headers.setdefault("Content-Length", str(len(payload)))
    headers.setdefault("Connection", "close")
    head.extend(f"{k}: {v}" for k, v in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(payload)


async def serve(host: str, port: int, *, store_dir, pool_jobs: int = 2,
                queue_depth: int = 8, registry=None,
                ready: Optional[threading.Event] = None,
                shutdown: Optional[asyncio.Event] = None,
                bound_port: Optional[list] = None,
                store_max_bytes: Optional[int] = None,
                pool_pin: bool = False) -> None:
    """Run the service until *shutdown* is set (or forever).

    *ready*/*bound_port* let a launcher learn the ephemeral port when
    binding port 0 (tests, the bench harness).  *store_max_bytes*
    bounds the result store with LRU eviction; *pool_pin* NUMA-pins
    the simulator workers.
    """
    if registry is None:
        registry = default_registry()
    store = ResultStore(Path(store_dir), registry=registry,
                        max_bytes=store_max_bytes)
    service = JobService(store, pool_jobs=pool_jobs,
                         queue_depth=queue_depth, registry=registry,
                         pool_pin=pool_pin)
    app = ServeApp(service)
    await service.start()
    server = await asyncio.start_server(
        lambda r, w: handle_connection(app, r, w), host, port
    )
    if bound_port is not None:
        bound_port.append(server.sockets[0].getsockname()[1])
    if ready is not None:
        ready.set()
    try:
        if shutdown is None:
            async with server:
                await server.serve_forever()
        else:
            async with server:
                await shutdown.wait()
    finally:
        # Graceful drain: stop accepting, finish the running jobs,
        # cancel the queue — then the sockets go away.
        await service.stop()
        server.close()
        await server.wait_closed()


class ThreadedServer:
    """The service on a background thread — for tests and the bench.

    Binds an ephemeral port by default; ``stop()`` performs the same
    graceful drain as Ctrl-C on the CLI path.
    """

    def __init__(self, store_dir, *, host: str = "127.0.0.1",
                 port: int = 0, pool_jobs: int = 1, queue_depth: int = 8,
                 registry=None, store_max_bytes: Optional[int] = None,
                 pool_pin: bool = False):
        self.store_dir = Path(store_dir)
        self.host = host
        self.registry = registry if registry is not None \
            else default_registry()
        self._requested_port = port
        self._pool_jobs = pool_jobs
        self._queue_depth = queue_depth
        self._store_max_bytes = store_max_bytes
        self._pool_pin = pool_pin
        self._ready = threading.Event()
        self._bound: list = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "ThreadedServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self, timeout: float = 30.0) -> None:
        def _run():
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            self._shutdown = asyncio.Event()
            try:
                self._loop.run_until_complete(serve(
                    self.host, self._requested_port,
                    store_dir=self.store_dir,
                    pool_jobs=self._pool_jobs,
                    queue_depth=self._queue_depth,
                    registry=self.registry,
                    ready=self._ready,
                    shutdown=self._shutdown,
                    bound_port=self._bound,
                    store_max_bytes=self._store_max_bytes,
                    pool_pin=self._pool_pin,
                ))
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("repro serve failed to start "
                               f"within {timeout}s")
        self.port = self._bound[0]

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("repro serve did not shut down "
                               f"within {timeout}s")
        self._thread = None


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_EVENT_WAIT_S",
    "ServeApp",
    "ThreadedServer",
    "serve",
]
