"""Scenario results as a service: the versioned stdlib-only HTTP API.

Route table (all JSON, all wrapped in the envelope of
:mod:`repro.server.responses`):

.. code-block:: text

    GET  /api/v1/health               liveness + job/cache counters
    GET  /api/v1/scenarios            registry listing (name, description, spec)
    GET  /api/v1/scenarios/<name>     one registered spec
    GET  /api/v1/results/<fp>         cached records by content address
    GET  /api/v1/results/<fp>.rrec    the packed binary artefact (raw bytes)
    POST /api/v1/runs                 submit a run -> job id + fingerprint
    GET  /api/v1/jobs/<id>            poll a submission's lifecycle state

The split below keeps the logic testable and the transport thin:
:class:`ScenarioService` maps ``(method, path, body)`` to
``(http status, envelope dict)`` with no socket in sight, and
:class:`ScenarioServer` wires it to real connections plus the background
:class:`~repro.server.jobs.JobWorker`.  Connections run on at most
:data:`HANDLER_THREADS` reused daemon threads, started on demand and
retired after :data:`CONNECTION_TIMEOUT_S` idle; at most
:data:`MAX_PENDING_CONNECTIONS` more wait for one, and every socket wait is
bounded by the same timeout.

Serving model: hot scenarios are O(1) content-addressed file reads
(``GET /results/<fingerprint>`` never computes anything: it splices the
committed JSON document's bytes into the envelope, and the ``.rrec``
variant serves the binary artefact's bytes without materializing a single
record dict); cold ones queue
through ``POST /runs`` onto the deterministic sharded runner, and because
results are pure functions of their fingerprinted inputs, any number of
servers may share one ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import collections
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from repro.cache.fingerprint import CACHE_SCHEMA_VERSION, canonical_spec
from repro.cache.store import ResultCache, resolve_cache
from repro.circuit.ir import BranchBudgetError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.record import RECORD_SCHEMA_VERSION
from repro.scenarios.run import resolve_run
from repro.scenarios.spec import available_scenarios, get_scenario
from repro.server.jobs import JobTable, JobWorker
from repro.server.responses import (
    API_PREFIX,
    API_VERSION,
    JSON_CONTENT_TYPE,
    RawResponse,
    encode,
    encode_ok,
    error_envelope,
    ok_envelope,
)
from repro.sim.engine import ENGINE_NAME

_FINGERPRINT = re.compile(r"^[0-9a-f]{64}$")
_CONTENT_LENGTH = re.compile(r"[0-9]+")

#: Largest ``shots`` a ``POST /runs`` submission may ask for.  A run executes
#: on the server's one job worker, so an unbounded count would tie it up.
MAX_SUBMIT_SHOTS = 100_000

#: Largest ``POST`` body the transport reads; longer bodies answer 413.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a connection may leave a socket read or write waiting -- an idle
#: keep-alive connection, a request line or headers that never finish, a
#: body slower than its ``Content-Length`` -- before the server drops it
#: and frees its handler thread.
CONNECTION_TIMEOUT_S = 30.0

#: Most handler threads a server runs, and so most connections it serves at
#: once; later connections wait, in accept order, for a thread to free up.
HANDLER_THREADS = 16

#: Most accepted connections that wait for a handler thread.  Each holds a
#: socket (a file descriptor), so past this many the server closes a new
#: connection at once, unanswered, instead of queueing it.
MAX_PENDING_CONNECTIONS = 64


class ScenarioService:
    """Transport-free request handling: ``(method, path, body) -> response``.

    Every public ``handle_*`` method returns ``(status_code, envelope)``;
    the HTTP layer only serializes.  A service owns the result cache and the
    job table; the :class:`~repro.server.jobs.JobWorker` executing
    submissions is attached by :class:`ScenarioServer` (tests may drive the
    service synchronously without one).
    """

    def __init__(self, cache: ResultCache | str | None = None) -> None:
        store = resolve_cache(cache)
        self.cache = store if store is not None else ResultCache()
        self.jobs = JobTable()
        self.worker: JobWorker | None = None

    # -------------------------------------------------------------- dispatch
    def handle_get(self, path: str) -> "tuple[int, dict | RawResponse]":
        """Route one GET request path."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if not path.startswith(API_PREFIX):
            return 404, error_envelope(
                "unknown_route", f"routes live under {API_PREFIX}/"
            )
        tail = path[len(API_PREFIX):]
        if tail == "/health":
            return self._health()
        if tail == "/scenarios":
            return self._list_scenarios()
        if tail.startswith("/scenarios/"):
            return self._get_scenario(tail[len("/scenarios/"):])
        if tail.startswith("/results/"):
            return self._get_result(tail[len("/results/"):])
        if tail.startswith("/jobs/"):
            return self._get_job(tail[len("/jobs/"):])
        if tail == "/runs":
            return 405, error_envelope(
                "method_not_allowed", "POST a JSON body to submit a run"
            )
        return 404, error_envelope("unknown_route", f"no route for {path}")

    def handle_post(self, path: str, body: bytes) -> tuple[int, dict]:
        """Route one POST request (only ``/api/v1/runs`` accepts POST)."""
        path = path.split("?", 1)[0].rstrip("/")
        if path != f"{API_PREFIX}/runs":
            return 405, error_envelope(
                "method_not_allowed", f"POST is only accepted at {API_PREFIX}/runs"
            )
        return self._submit_run(body)

    # --------------------------------------------------------------- routes
    def _health(self) -> tuple[int, dict]:
        return 200, ok_envelope(
            {
                "cache_dir": str(self.cache.root),
                "cache_schema_version": CACHE_SCHEMA_VERSION,
                "record_schema_version": RECORD_SCHEMA_VERSION,
                "cached_results": self.cache.count(),
                "jobs": len(self.jobs),
            }
        )

    def _list_scenarios(self) -> tuple[int, dict]:
        entries = []
        for name in available_scenarios():
            spec = get_scenario(name)
            entries.append(
                {
                    "name": name,
                    "description": spec.description,
                    "spec": canonical_spec(spec),
                }
            )
        return 200, ok_envelope({"scenarios": entries})

    def _get_scenario(self, name: str) -> tuple[int, dict]:
        try:
            spec = get_scenario(name)
        except KeyError:
            return 404, error_envelope(
                "unknown_scenario",
                f"no scenario {name!r}; GET {API_PREFIX}/scenarios lists them",
            )
        return 200, ok_envelope(
            {
                "name": spec.name,
                "description": spec.description,
                "spec": canonical_spec(spec),
            }
        )

    def _get_result(self, fingerprint: str) -> "tuple[int, dict | RawResponse]":
        """The committed document spliced into an ok envelope (or ``.rrec``)."""
        if fingerprint.endswith(".rrec"):
            return self._get_result_binary(fingerprint[: -len(".rrec")])
        if not _FINGERPRINT.match(fingerprint):
            return 400, error_envelope(
                "invalid_request",
                "a result fingerprint is 64 lowercase hex characters",
            )
        document = self.cache.get_payload(fingerprint)
        if document is None:
            return 404, error_envelope(
                "not_found",
                f"no cached result {fingerprint}; submit it via "
                f"POST {API_PREFIX}/runs",
            )
        return 200, RawResponse(encode_ok(document[0]), JSON_CONTENT_TYPE)

    def _get_result_binary(self, fingerprint: str) -> "tuple[int, dict | RawResponse]":
        """The packed ``.rrec`` artefact, served as the cache file's exact bytes."""
        if not _FINGERPRINT.match(fingerprint):
            return 400, error_envelope(
                "invalid_request",
                "a result fingerprint is 64 lowercase hex characters",
            )
        blob = self.cache.get_binary(fingerprint)
        if blob is None:
            return 404, error_envelope(
                "not_found",
                f"no cached result {fingerprint}; submit it via "
                f"POST {API_PREFIX}/runs",
            )
        return 200, RawResponse(blob)

    def _get_job(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_envelope("not_found", f"no job {job_id!r}")
        return 200, ok_envelope(job.public_view())

    def _submit_run(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, RecursionError):
            # ValueError covers malformed JSON, bad UTF-8 and integers past
            # the interpreter's digit limit; RecursionError deep nesting.
            return 400, error_envelope(
                "invalid_request", "request body must be a JSON object"
            )
        if not isinstance(request, dict):
            return 400, error_envelope(
                "invalid_request", "request body must be a JSON object"
            )
        unknown = set(request) - {"scenario", "shots", "seed", "engine"}
        if unknown:
            return 400, error_envelope(
                "invalid_request", f"unknown fields: {sorted(unknown)}"
            )
        name = request.get("scenario")
        if not isinstance(name, str) or not name:
            return 400, error_envelope(
                "invalid_request", "a 'scenario' name is required"
            )
        for key in ("shots", "seed"):
            value = request.get(key, 0)
            # bool is an int subclass; JSON true/false is not a count.
            if not isinstance(value, int) or isinstance(value, bool):
                return 400, error_envelope(
                    "invalid_request", f"{key!r} must be an integer"
                )
        if "shots" in request and not 1 <= request["shots"] <= MAX_SUBMIT_SHOTS:
            return 400, error_envelope(
                "invalid_request",
                f"'shots' must be between 1 and {MAX_SUBMIT_SHOTS}",
            )
        if request.get("seed", 0) < 0:
            return 400, error_envelope(
                "invalid_request", "'seed' must be a non-negative integer"
            )
        # ``engine`` is accepted for compatibility: naming the one engine
        # (or null) is the same request as omitting it.
        engine = request.get("engine")
        if engine is not None and engine != ENGINE_NAME:
            return 400, error_envelope(
                "invalid_request",
                f"unknown engine {engine!r}; the only engine is {ENGINE_NAME!r}",
            )
        try:
            spec, seed, shots, _, fingerprint = resolve_run(
                name, shots=request.get("shots"), seed=request.get("seed")
            )
        except KeyError:
            return 404, error_envelope(
                "unknown_scenario",
                f"no scenario {name!r}; GET {API_PREFIX}/scenarios lists them",
            )
        # A committed artefact proves the run compiled within budget, so a
        # hit needs no compile.  A miss pre-flights the compile: a circuit
        # whose path branching exceeds the budget is rejected at submit
        # time with a typed slug instead of queueing a job that can only
        # fail.
        cached = fingerprint in self.cache
        if not cached:
            try:
                compile_scenario(spec, seed)
            except BranchBudgetError as exc:
                return 400, error_envelope("branch_budget_exceeded", str(exc))
        job = self.jobs.create(
            spec,
            fingerprint,
            shots=shots,
            seed=seed,
            status="done" if cached else "queued",
        )
        if not cached and self.worker is not None:
            self.worker.submit(job)
        return (200 if cached else 202), ok_envelope(
            {"job": job.public_view(), "cached": cached}
        )


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin transport shim: parse, delegate to the service, serialize."""

    # Injected per server class (see ScenarioServer); annotated for clarity.
    service: ScenarioService
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        """Bound every socket wait by :data:`CONNECTION_TIMEOUT_S`.

        A timed-out read or write makes ``handle_one_request`` close the
        connection, so a client that sends nothing cannot hold a thread.
        """
        self.timeout = CONNECTION_TIMEOUT_S
        super().setup()

    def do_GET(self) -> None:
        """Serve one GET through :meth:`ScenarioService.handle_get`."""
        self._respond(*self.service.handle_get(self.path))

    def do_POST(self) -> None:
        """Serve one POST through :meth:`ScenarioService.handle_post`.

        ``Content-Length`` must be a plain decimal no larger than
        :data:`MAX_BODY_BYTES`; otherwise the body is left unread, the
        request is refused and the connection closed (the unread bytes
        would otherwise be parsed as the next request).
        """
        header = self.headers.get("Content-Length", "0").strip()
        if not _CONTENT_LENGTH.fullmatch(header):
            self._respond(
                400,
                error_envelope(
                    "invalid_request",
                    "Content-Length must be a non-negative decimal integer",
                ),
                close=True,
            )
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                error_envelope(
                    "payload_too_large",
                    f"request bodies are limited to {MAX_BODY_BYTES} bytes",
                ),
                close=True,
            )
            return
        body = self.rfile.read(length) if length else b""
        self._respond(*self.service.handle_post(self.path, body))

    def _respond(
        self, status: int, payload: "dict | RawResponse", *, close: bool = False
    ) -> None:
        if isinstance(payload, RawResponse):
            blob = payload.body
            content_type = payload.content_type
        else:
            blob = encode(payload)
            content_type = JSON_CONTENT_TYPE
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        if close:
            # send_header also marks the connection to close after this reply.
            self.send_header("Connection", "close")
        # Head and body leave in one write.  end_headers() would send the
        # head on its own, and on a keep-alive connection Nagle's algorithm
        # then holds the body back until the client's delayed ACK of the
        # head (~40 ms a reply).  An HTTP/0.9 request buffers no head.
        head = getattr(self, "_headers_buffer", [])
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + (b"\r\n" if head else b"") + blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (tests and CI run many)."""


class _PooledHTTPServer(HTTPServer):
    """An HTTP server whose connections run on reused, capped handler threads.

    The listener hands each accepted connection to an idle handler thread.
    When none is idle it starts one, up to :data:`HANDLER_THREADS`; past
    that the connection waits, in accept order, for the first thread that
    finishes, unless :data:`MAX_PENDING_CONNECTIONS` already wait: then it
    is closed at once, unanswered.  A thread idle for
    :data:`CONNECTION_TIMEOUT_S` retires, so a quiet server holds no handler
    thread and a client that opens one connection at a time is served by
    one or two reused threads.  The threads are daemons, so they never hold
    up interpreter exit, and :meth:`server_close` stops them.
    """

    #: Listen backlog.  socketserver's default of 5 drops the handshake of
    #: a burst past six connections, and those clients stall ~1 s for the
    #: SYN-ACK retransmit before the listener ever sees them.
    request_queue_size = 64

    def __init__(self, server_address, handler_class) -> None:
        # The pool state comes first: a failed bind calls server_close()
        # before super().__init__ returns, and the bind error must surface.
        self._ready = threading.Condition()
        self._pending: collections.deque = collections.deque()
        self._threads: set[threading.Thread] = set()
        self._idle = 0
        self._serving: set[socket.socket] = set()
        self._closed = False
        super().__init__(server_address, handler_class)

    def process_request(self, request, client_address) -> None:
        """Queue an accepted connection for a handler thread, or close it
        when the server is closed or its waiting queue is full."""
        with self._ready:
            held = len(self._pending) + len(self._serving)
            if self._closed or held >= HANDLER_THREADS + MAX_PENDING_CONNECTIONS:
                self.shutdown_request(request)
                return
            self._pending.append((request, client_address))
            spare = len(self._pending) <= self._idle
            if not spare and len(self._threads) < HANDLER_THREADS:
                thread = threading.Thread(
                    target=self._handle_connections,
                    name="repro-http-handler",
                    daemon=True,
                )
                self._threads.add(thread)
                thread.start()
            else:
                self._ready.notify()

    def _handle_connections(self) -> None:
        """Serve queued connections until idle for the timeout or closed."""
        while True:
            with self._ready:
                self._idle += 1
                self._ready.wait_for(
                    lambda: self._pending or self._closed, CONNECTION_TIMEOUT_S
                )
                self._idle -= 1
                if not self._pending:
                    self._threads.discard(threading.current_thread())
                    return
                request, client_address = self._pending.popleft()
                self._serving.add(request)
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._ready:
                    self._serving.discard(request)
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, drop queued connections, stop every thread.

        A connection mid-request has its socket shut down, so its handler's
        next read or write ends it.
        """
        super().server_close()
        with self._ready:
            self._closed = True
            pending, self._pending = self._pending, collections.deque()
            for request in self._serving:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            threads = list(self._threads)
            self._ready.notify_all()
        for request, _ in pending:
            self.shutdown_request(request)
        deadline = time.monotonic() + 10.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


class ScenarioServer:
    """The HTTP server: a :class:`ScenarioService` behind real sockets.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address.  ``start()`` launches the listener thread and the job
    worker; ``close()`` tears both down.  Also usable as a context manager.
    ``workers`` (``None`` reads ``REPRO_SWEEP_WORKERS``) and ``shard_size``
    are resolved once, here: a bad value raises ``ValueError`` before any
    socket is bound, never inside a queued job.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8035,
        *,
        cache: ResultCache | str | None = None,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> None:
        self.service = ScenarioService(cache=cache)
        worker = JobWorker(
            self.service.jobs,
            self.service.cache,
            workers=workers,
            shard_size=shard_size,
        )
        self.service.worker = worker
        handler = type("BoundHandler", (_RequestHandler,), {"service": self.service})
        self.httpd = _PooledHTTPServer((host, port), handler)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-http", daemon=True
        )
        #: Whether a serve loop was begun: ``httpd.shutdown()`` waits for
        #: one to end, so without it ``close()`` would block forever.
        self._loop_started = False

    @property
    def url(self) -> str:
        """Base URL of the bound listener, e.g. ``http://127.0.0.1:8035``."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ScenarioServer":
        """Start the listener thread and the job worker; returns ``self``."""
        self.service.worker.start()
        self._loop_started = True
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop for ``python -m repro.server``."""
        self.service.worker.start()
        self._loop_started = True
        self.httpd.serve_forever()

    def close(self) -> None:
        """Shut the listener down, stop the handler threads, join the worker.

        Safe on a server that never started: only a serve loop that
        :meth:`start` or :meth:`serve_forever` began is shut down.
        """
        if self._loop_started:
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
        self.service.worker.stop()

    def __enter__(self) -> "ScenarioServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def _port(text: str) -> int:
    """An argparse ``type=`` for a TCP port, ``0``-``65535`` (else exit 2)."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0-65535, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.server``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve scenario results over the versioned HTTP API: cached "
            "artefacts by content address, cold runs via async job "
            f"submission ({API_PREFIX}/runs)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=_port, default=8035, help="bind port")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR, else "
        "~/.cache/repro-qram)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker processes per job (1 = serial, 0 = all cores; "
        "default: the REPRO_SWEEP_WORKERS environment variable, else 1)",
    )
    args = parser.parse_args(argv)
    try:
        # The server checks --workers (or, unset, $REPRO_SWEEP_WORKERS) before
        # binding, so a bad count is a usage error here.
        server = ScenarioServer(
            args.host, args.port, cache=args.cache_dir, workers=args.workers
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(
        f"serving API {API_VERSION} on {server.url}{API_PREFIX}/ "
        f"(cache: {server.service.cache.root})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
        server.close()
    return 0
