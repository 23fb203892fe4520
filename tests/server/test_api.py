"""HTTP API tests: envelope, listing, cached fetch, submit -> poll -> result.

One module-scoped :class:`~repro.server.ScenarioServer` on an ephemeral port
(and a throwaway cache dir) backs the socket-level tests; the error-model
and service-logic tests drive :class:`~repro.server.ScenarioService`
directly, without a socket.
"""

import errno
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cache import ResultCache
from repro.hardware.router import available_routers
from repro.scenarios import available_scenarios, resolve_run, run_scenario
from repro.server import API_PREFIX, API_VERSION, ScenarioServer, ScenarioService
from repro.server.app import (
    CONNECTION_TIMEOUT_S,
    HANDLER_THREADS,
    MAX_BODY_BYTES,
    MAX_SUBMIT_SHOTS,
)
from repro.server.jobs import JobTable
from repro.server.responses import encode, error_envelope, ok_envelope
from repro.sim.engine import ENGINE_NAME

SHOTS = 16
SEED = 9
POLL_TIMEOUT_SECONDS = 60.0


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A live server on an ephemeral port with an empty cache."""
    cache_dir = tmp_path_factory.mktemp("server-cache")
    with ScenarioServer(port=0, cache=str(cache_dir), workers=1) as live:
        yield live


def _request(server, path, payload=None):
    """GET (or POST when ``payload``) returning ``(status, envelope)``."""
    url = server.url + path
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_job(server, job_id):
    deadline = time.monotonic() + POLL_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        status, body = _request(server, f"{API_PREFIX}/jobs/{job_id}")
        assert status == 200
        if body["data"]["status"] in ("done", "error"):
            return body["data"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in time")


class TestEnvelope:
    def test_health_reports_cache_and_jobs(self, server):
        status, body = _request(server, f"{API_PREFIX}/health")
        assert status == 200
        assert body["api_version"] == API_VERSION
        assert body["status"] == "ok"
        assert body["data"]["cached_results"] >= 0

    def test_every_error_uses_the_envelope(self, server):
        for path in (f"{API_PREFIX}/nope", "/outside", f"{API_PREFIX}/jobs/job-9999"):
            status, body = _request(server, path)
            assert status == 404
            assert body["status"] == "error"
            assert set(body["error"]) == {"code", "message"}
            assert body["api_version"] == API_VERSION

    def test_envelope_helpers_are_canonical(self):
        assert json.loads(encode(ok_envelope({"x": 1}))) == {
            "api_version": API_VERSION,
            "status": "ok",
            "data": {"x": 1},
        }
        envelope = error_envelope("not_found", "gone")
        assert envelope["error"]["code"] == "not_found"


class TestScenarioListing:
    def test_listing_matches_registry(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios")
        assert status == 200
        names = [entry["name"] for entry in body["data"]["scenarios"]]
        assert names == available_scenarios()
        entry = body["data"]["scenarios"][0]
        assert set(entry) == {"name", "description", "spec"}

    def test_single_scenario_detail(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios/ideal-m3")
        assert status == 200
        assert body["data"]["spec"]["qram_width"] == 3
        assert body["data"]["spec"]["router"] == "greedy-swap"

    def test_listing_names_a_registered_router_per_scenario(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios")
        assert status == 200
        routers = {
            entry["name"]: entry["spec"]["router"]
            for entry in body["data"]["scenarios"]
        }
        assert set(routers.values()) <= set(available_routers())
        assert routers["perth-m1-lookahead"] == "lookahead"

    def test_unknown_scenario_404s(self, server):
        status, body = _request(server, f"{API_PREFIX}/scenarios/not-a-scenario")
        assert status == 404
        assert body["error"]["code"] == "unknown_scenario"


class TestRunLifecycle:
    def test_submit_poll_fetch_and_warm_resubmit(self, server):
        submission = {"scenario": "ideal-m3", "shots": SHOTS, "seed": SEED}
        status, body = _request(server, f"{API_PREFIX}/runs", submission)
        assert status == 202
        assert body["data"]["cached"] is False
        job = body["data"]["job"]
        assert job["status"] == "queued"
        assert job["engine"] and job["router"]

        finished = _poll_job(server, job["id"])
        assert finished["status"] == "done"
        assert finished["result_url"] == f"{API_PREFIX}/results/{job['fingerprint']}"

        status, result = _request(server, finished["result_url"])
        assert status == 200
        payload = result["data"]
        assert payload["fingerprint"] == job["fingerprint"]
        records = payload["records"]
        assert [r["error_reduction_factor"] for r in records] == [1.0, 10.0, 100.0]

        # Served records are bit-identical to an in-process fresh run.
        fresh = run_scenario("ideal-m3", shots=SHOTS, seed=SEED, workers=1)
        assert records == [record.as_dict() for record in fresh]

        # Resubmitting the same inputs is a warm hit: done on arrival.
        status, body = _request(server, f"{API_PREFIX}/runs", submission)
        assert status == 200
        assert body["data"]["cached"] is True
        assert body["data"]["job"]["status"] == "done"
        assert body["data"]["job"]["fingerprint"] == job["fingerprint"]

    def test_failed_job_reports_error_state(self, server, monkeypatch):
        """A worker exception lands in the job table, not in the logs only."""
        import repro.server.jobs as jobs_module

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(jobs_module, "run_scenario", explode)
        status, body = _request(
            server,
            f"{API_PREFIX}/runs",
            {"scenario": "ideal-m3", "shots": SHOTS + 1, "seed": SEED},
        )
        assert status == 202
        finished = _poll_job(server, body["data"]["job"]["id"])
        assert finished["status"] == "error"
        assert "synthetic failure" in finished["error"]


class TestErrorModel:
    """Validation paths, driven through the service without a socket."""

    @pytest.fixture()
    def service(self, tmp_path):
        return ScenarioService(cache=str(tmp_path))

    def test_malformed_fingerprint_is_invalid_request(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/results/nothex")
        assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_uncached_fingerprint_404s(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/results/{'0' * 64}")
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_post_rejects_bad_json_and_bad_shapes(self, service):
        for body_bytes in (b"{not json", b'"a string"', b"[1]"):
            status, body = service.handle_post(f"{API_PREFIX}/runs", body_bytes)
            assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_post_requires_scenario_name(self, service):
        status, body = service.handle_post(f"{API_PREFIX}/runs", b"{}")
        assert (status, body["error"]["code"]) == (400, "invalid_request")

    def test_post_rejects_unknown_fields_and_types(self, service):
        for payload in (
            {"scenario": "ideal-m3", "workers": 4},
            {"scenario": "ideal-m3", "shots": "many"},
            {"scenario": "ideal-m3", "seed": 1.5},
            {"scenario": "ideal-m3", "engine": "warp-drive"},
        ):
            status, body = service.handle_post(
                f"{API_PREFIX}/runs", json.dumps(payload).encode()
            )
            assert (status, body["error"]["code"]) == (400, "invalid_request")

    @pytest.mark.parametrize(
        "fields",
        [
            {"shots": True},
            {"shots": False},
            {"seed": True},
            {"seed": False},
            {"shots": 0},
            {"shots": -5},
            {"shots": MAX_SUBMIT_SHOTS + 1},
            {"shots": 10**15},
            {"seed": -1},
            {"shots": None},
        ],
    )
    def test_post_rejects_out_of_range_counts_without_a_job(self, service, fields):
        """Bools, non-positive or oversized shots and negative seeds answer 400."""
        payload = {"scenario": "ideal-m3", **fields}
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps(payload).encode()
        )
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert len(service.jobs) == 0

    @pytest.mark.parametrize(
        "scenario", ["htree-swap-m3", "ideal-m3", "htree-dual-rail-m3"]
    )
    def test_post_rejects_the_dense_simulator_as_an_engine(self, service, scenario):
        """``statevector`` is no engine: refused before any job exists."""
        payload = {"scenario": scenario, "engine": "statevector"}
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps(payload).encode()
        )
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert "unknown engine" in body["error"]["message"]
        assert len(service.jobs) == 0

    @pytest.mark.parametrize("engine", ["feynman-batch", "feynman-interp"])
    def test_post_rejects_the_retired_batch_engine_as_unknown(self, service, engine):
        payload = {"scenario": "ideal-m3", "engine": engine}
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps(payload).encode()
        )
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert "unknown engine" in body["error"]["message"]
        assert len(service.jobs) == 0

    def test_post_accepts_the_shot_cap_and_seed_zero(self, service):
        """The bounds themselves are valid submissions."""
        payload = {"scenario": "ideal-m3", "shots": MAX_SUBMIT_SHOTS, "seed": 0}
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps(payload).encode()
        )
        assert status == 202
        assert body["data"]["job"]["shots"] == MAX_SUBMIT_SHOTS
        assert len(service.jobs) == 1

    def test_post_rejects_unparseable_integers_and_nesting(self, service):
        """Integers past the digit limit and deep nesting are bad JSON, not crashes."""
        for body_bytes in (
            b'{"scenario": "ideal-m3", "seed": ' + b"9" * 5000 + b"}",
            b"[" * 100_000 + b"]" * 100_000,
        ):
            status, body = service.handle_post(f"{API_PREFIX}/runs", body_bytes)
            assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert len(service.jobs) == 0

    def test_post_unknown_scenario_404s(self, service):
        status, body = service.handle_post(
            f"{API_PREFIX}/runs", json.dumps({"scenario": "nope"}).encode()
        )
        assert (status, body["error"]["code"]) == (404, "unknown_scenario")

    def test_post_anywhere_else_is_405(self, service):
        status, body = service.handle_post(f"{API_PREFIX}/scenarios", b"{}")
        assert (status, body["error"]["code"]) == (405, "method_not_allowed")

    def test_get_on_runs_is_405(self, service):
        status, body = service.handle_get(f"{API_PREFIX}/runs")
        assert (status, body["error"]["code"]) == (405, "method_not_allowed")

    def test_submission_without_worker_queues_for_later(self, service):
        """A service with no attached worker still records the job."""
        status, body = service.handle_post(
            f"{API_PREFIX}/runs",
            json.dumps({"scenario": "ideal-m3", "shots": 4}).encode(),
        )
        assert status == 202
        job_id = body["data"]["job"]["id"]
        status, body = service.handle_get(f"{API_PREFIX}/jobs/{job_id}")
        assert body["data"]["status"] == "queued"

    def test_pre_seeded_cache_is_served_without_any_job_run(self, tmp_path):
        """Results written by another process (CLI, CI) serve immediately."""
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        service = ScenarioService(cache=cache)
        fingerprint = cache.fingerprints()[0]
        status, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}")
        assert status == 200
        assert raw.content_type == "application/json; charset=utf-8"
        assert json.loads(raw.body)["data"]["records"]


class TestWarmPath:
    """A cached submission answers from the cache alone: no compile runs."""

    @pytest.fixture()
    def seeded(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        return ScenarioService(cache=cache)

    @staticmethod
    def _submit(service, seed):
        payload = {"scenario": "ideal-m3", "shots": 8, "seed": seed}
        return service.handle_post(f"{API_PREFIX}/runs", json.dumps(payload).encode())

    def test_warm_submission_never_compiles(self, seeded, monkeypatch):
        import repro.server.app as app_module

        def explode(*args, **kwargs):
            raise RuntimeError("the warm path must not compile")

        monkeypatch.setattr(app_module, "compile_scenario", explode)
        status, body = self._submit(seeded, seed=2)
        assert status == 200
        assert body["data"]["cached"] is True
        assert body["data"]["job"]["status"] == "done"
        assert len(seeded.jobs) == 1

    def test_cold_over_budget_submission_is_400_without_a_job(
        self, seeded, monkeypatch
    ):
        import repro.server.app as app_module
        from repro.circuit.ir import BranchBudgetError

        def over_budget(*args, **kwargs):
            raise BranchBudgetError("branch budget exceeded: synthetic")

        monkeypatch.setattr(app_module, "compile_scenario", over_budget)
        status, body = self._submit(seeded, seed=3)
        assert (status, body["error"]["code"]) == (400, "branch_budget_exceeded")
        assert len(seeded.jobs) == 0

    def test_health_counts_artefacts_by_name(self, seeded):
        cache = seeded.cache
        (fingerprint,) = cache.fingerprints()
        corrupt = "ff" + fingerprint[2:]
        cache.path_for(corrupt).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(corrupt).write_text("{not json")
        status, body = seeded.handle_get(f"{API_PREFIX}/health")
        assert status == 200
        assert body["data"]["cached_results"] == cache.count() == 2


class TestEngineField:
    """``engine`` may name the one engine (or be null): same run as omitting it.

    Any other value, of any JSON type, answers ``400 invalid_request`` and
    creates no job, exactly as it did while an engine could be chosen.
    """

    PAYLOAD = {"scenario": "ideal-m3", "shots": 8, "seed": 4}

    @classmethod
    def _submit(cls, service, **fields):
        payload = json.dumps({**cls.PAYLOAD, **fields}).encode()
        return service.handle_post(f"{API_PREFIX}/runs", payload)

    @pytest.mark.parametrize("engine", [ENGINE_NAME, None])
    def test_naming_the_engine_is_omitting_it_cold(self, tmp_path, engine):
        # Separate services, so both submissions are cold and get job-0001.
        omitted = self._submit(ScenarioService(cache=str(tmp_path / "a")))
        named = self._submit(ScenarioService(cache=str(tmp_path / "b")), engine=engine)
        assert named[0] == omitted[0] == 202
        assert named[1] == omitted[1]
        job = named[1]["data"]["job"]
        assert job["engine"] == ENGINE_NAME
        fingerprint = resolve_run("ideal-m3", shots=8, seed=4)[4]
        assert job["fingerprint"] == fingerprint

    def test_naming_the_engine_is_omitting_it_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=4, workers=1, cache=cache)
        service = ScenarioService(cache=cache)
        omitted = self._submit(service)
        named = self._submit(service, engine=ENGINE_NAME)
        assert named[0] == omitted[0] == 200
        assert named[1]["data"]["cached"] is omitted[1]["data"]["cached"] is True
        named_job, omitted_job = named[1]["data"]["job"], omitted[1]["data"]["job"]
        assert named_job.pop("id") != omitted_job.pop("id")
        assert named_job == omitted_job

    @pytest.mark.parametrize(
        "engine",
        [
            "statevector",
            "feynman-interp",
            "feynman-batch",
            "Feynman-Tape",
            " feynman-tape",
            "",
            "null",
            "None",
            1,
            0,
            -1,
            1.5,
            True,
            False,
            [],
            {},
            [ENGINE_NAME],
            {"name": ENGINE_NAME},
        ],
        ids=repr,
    )
    def test_any_other_engine_is_refused_without_a_job(self, tmp_path, engine):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=4, workers=1, cache=cache)
        service = ScenarioService(cache=cache)
        status, body = self._submit(service, engine=engine)
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert "unknown engine" in body["error"]["message"]
        assert len(service.jobs) == 0


class TestKeepAlive:
    """Replies on one keep-alive connection must not stall on delayed ACKs."""

    REQUESTS = 20

    def test_sequential_requests_on_one_connection_are_fast(self, server):
        host, port = server.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            # One untimed request opens the connection.
            connection.request("GET", f"{API_PREFIX}/health")
            assert connection.getresponse().read()
            start = time.perf_counter()
            for _ in range(self.REQUESTS):
                connection.request("GET", f"{API_PREFIX}/health")
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 200
                assert body["status"] == "ok"
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        # A stalled reply costs ~40 ms; 20 of them would take ~800 ms.
        assert elapsed < 0.3, f"{self.REQUESTS} keep-alive requests took {elapsed:.3f} s"

    def test_keep_alive_serves_posts_and_errors_in_sequence(self, server):
        host, port = server.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for method, path, body, expected in (
                ("GET", f"{API_PREFIX}/nope", None, 404),
                ("POST", f"{API_PREFIX}/runs", b"{}", 400),
                ("GET", f"{API_PREFIX}/scenarios/ideal-m3", None, 200),
            ):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                envelope = json.loads(response.read())
                assert response.status == expected
                assert envelope["api_version"] == API_VERSION
        finally:
            connection.close()

    def test_http_0_9_request_gets_the_bare_body(self, server):
        import socket

        host, port = server.httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(f"GET {API_PREFIX}/health\r\n\r\n".encode())
            chunks = []
            while chunk := raw.recv(65536):
                chunks.append(chunk)
        envelope = json.loads(b"".join(chunks))
        assert envelope["status"] == "ok"


class TestIdleConnections:
    """A connection that sends nothing, or too little, is dropped on a timeout."""

    SILENT = 5

    def test_timeout_is_tens_of_seconds(self):
        # perfbench's serve client opens one Connection: close socket per
        # request; a bound this long never fires on a live request.
        assert 10 <= CONNECTION_TIMEOUT_S <= 120

    def test_silent_and_slow_connections_free_their_threads(
        self, tmp_path, monkeypatch
    ):
        import socket
        import threading

        import repro.server.app as app_module

        monkeypatch.setattr(app_module, "CONNECTION_TIMEOUT_S", 0.2)
        with ScenarioServer(port=0, cache=str(tmp_path), workers=1) as live:
            host, port = live.httpd.server_address[:2]
            baseline = threading.active_count()
            sockets = [
                socket.create_connection((host, port), timeout=10)
                for _ in range(self.SILENT)
            ]
            # A body that stops short of its Content-Length.
            slow = socket.create_connection((host, port), timeout=10)
            slow.sendall(
                f"POST {API_PREFIX}/runs HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 64\r\n\r\n{".encode()
            )
            sockets.append(slow)
            try:
                for raw in sockets:
                    # The server closes its end with no reply.  Without the
                    # timeout, recv blocks until the client's own 10 s.
                    assert raw.recv(1024) == b""
            finally:
                for raw in sockets:
                    raw.close()
            deadline = time.monotonic() + 10.0
            while threading.active_count() > baseline and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() <= baseline
            status, body = _request(live, f"{API_PREFIX}/health")
            assert (status, body["status"]) == (200, "ok")


class TestHandlerThreads:
    """Connections share at most ``HANDLER_THREADS`` reused handler threads."""

    @staticmethod
    def _handler_threads():
        return {
            thread
            for thread in threading.enumerate()
            if thread.name == "repro-http-handler"
        }

    def test_silent_connections_past_the_cap_wait_for_a_thread(
        self, tmp_path, monkeypatch
    ):
        import select
        import socket

        import repro.server.app as app_module

        monkeypatch.setattr(app_module, "CONNECTION_TIMEOUT_S", 0.2)
        with ScenarioServer(port=0, cache=str(tmp_path), workers=1) as live:
            host, port = live.httpd.server_address[:2]
            baseline = threading.active_count()
            sockets = [
                socket.create_connection((host, port), timeout=10)
                for _ in range(HANDLER_THREADS + 2)
            ]
            waiting = set(sockets)
            peak = baseline
            deadline = time.monotonic() + 10.0
            try:
                while waiting and time.monotonic() < deadline:
                    peak = max(peak, threading.active_count())
                    readable, _, _ = select.select(list(waiting), [], [], 0.005)
                    for raw in readable:
                        # Closed by the server after the timeout, no reply.
                        assert raw.recv(1024) == b""
                        waiting.discard(raw)
            finally:
                for raw in sockets:
                    raw.close()
            assert not waiting
            assert peak == baseline + HANDLER_THREADS
            status, body = _request(live, f"{API_PREFIX}/health")
            assert (status, body["status"]) == (200, "ok")
            deadline = time.monotonic() + 10.0
            while threading.active_count() > baseline and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() <= baseline

    def test_one_connection_at_a_time_reuses_its_threads(self, server):
        host, port = server.httpd.server_address[:2]
        seen = set()
        for _ in range(20):
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request(
                    "GET", f"{API_PREFIX}/health", headers={"Connection": "close"}
                )
                assert connection.getresponse().read()
            finally:
                connection.close()
            seen |= self._handler_threads()
        # One or two in steady state.  A thread still closing its last
        # socket when the next connection arrives is passed over, so a
        # loaded host may start one more; one per connection would be 20.
        assert 1 <= len(seen) <= 4
        assert all(thread.daemon for thread in seen)

    def test_concurrent_clients_all_get_answers_within_the_cap(self, tmp_path):
        """Stress the hand-off with a tiny switch interval: no connection is
        lost in the queue, the cap holds, and every thread ends idle."""
        import sys

        clients, requests = 24, 10
        failures = []
        peak = []

        def client(host, port):
            for _ in range(requests):
                connection = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    connection.request(
                        "GET", f"{API_PREFIX}/health", headers={"Connection": "close"}
                    )
                    response = connection.getresponse()
                    if response.status != 200 or not response.read():
                        failures.append(response.status)
                except (OSError, http.client.HTTPException) as exc:
                    failures.append(exc)
                finally:
                    connection.close()
                peak.append(len(self._handler_threads()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ScenarioServer(port=0, cache=str(tmp_path), workers=1) as live:
                host, port = live.httpd.server_address[:2]
                others = len(self._handler_threads())
                threads = [
                    threading.Thread(target=client, args=(host, port))
                    for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                # A handler may still be closing its last socket; it then
                # waits, idle, for the next connection.
                httpd = live.httpd
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    with httpd._ready:
                        settled = httpd._idle == len(httpd._threads)
                    if settled:
                        break
                    time.sleep(0.01)
                with httpd._ready:
                    assert not httpd._pending
                    assert httpd._idle == len(httpd._threads) <= HANDLER_THREADS
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert max(peak) - others <= HANDLER_THREADS

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts open fds via procfs"
    )
    def test_connections_past_the_pending_cap_are_closed_at_once(
        self, tmp_path, monkeypatch
    ):
        import select
        import socket

        import repro.server.app as app_module

        monkeypatch.setattr(app_module, "MAX_PENDING_CONNECTIONS", 2)
        overflow = 3
        threads_before = threading.active_count()
        fds_before = len(os.listdir("/proc/self/fd"))
        live = ScenarioServer(port=0, cache=str(tmp_path), workers=1).start()
        host, port = live.httpd.server_address[:2]
        sockets = [
            socket.create_connection((host, port), timeout=10)
            for _ in range(HANDLER_THREADS + 2 + overflow)
        ]
        closed = set()
        try:
            # Every connection stays silent and CONNECTION_TIMEOUT_S is 30 s,
            # so only the cap can close one within this window.
            deadline = time.monotonic() + 5.0
            while len(closed) < overflow and time.monotonic() < deadline:
                readable, _, _ = select.select(
                    [raw for raw in sockets if raw not in closed], [], [], 0.05
                )
                for raw in readable:
                    assert raw.recv(1024) == b""  # closed unanswered
                    closed.add(raw)
            # Nothing else is dropped while the held ones stay silent.
            readable, _, _ = select.select(
                [raw for raw in sockets if raw not in closed], [], [], 0.2
            )
            assert len(closed) == overflow and not readable
            with live.httpd._ready:
                held = len(live.httpd._serving) + len(live.httpd._pending)
            assert held == HANDLER_THREADS + 2
        finally:
            live.close()
            for raw in sockets:
                raw.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            threading.active_count() > threads_before
            or len(os.listdir("/proc/self/fd")) > fds_before
        ):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        assert len(os.listdir("/proc/self/fd")) <= fds_before

    def test_close_stops_threads_holding_keep_alive_connections(self, tmp_path):
        before = threading.active_count()
        others = self._handler_threads()
        live = ScenarioServer(port=0, cache=str(tmp_path), workers=1).start()
        host, port = live.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", f"{API_PREFIX}/health")
            assert connection.getresponse().read()
            assert len(self._handler_threads() - others) == 1
            # The handler now waits up to CONNECTION_TIMEOUT_S for a next
            # request; close() must not leave it there.
            start = time.monotonic()
            live.close()
            assert time.monotonic() - start < 5.0
        finally:
            connection.close()
        assert not self._handler_threads() - others
        assert threading.active_count() <= before

    def test_close_without_start_returns(self, tmp_path):
        """No serve loop ever ran, so there is none for close() to wait on."""
        idle = ScenarioServer(port=0, cache=str(tmp_path), workers=1)
        closer = threading.Thread(target=idle.close, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        assert idle.httpd.socket.fileno() == -1  # the listener is closed


class TestContentLength:
    """``do_POST`` validates ``Content-Length`` before reading a byte."""

    @staticmethod
    def _post(server, length: str, body: bytes = b"{}"):
        host, port = server.httpd.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", f"{API_PREFIX}/runs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            return (
                response.status,
                json.loads(response.read()),
                response.getheader("Connection"),
            )
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-1", "1_0", "0x10", "2.5", " "])
    def test_malformed_or_negative_length_is_invalid_request(self, server, length):
        jobs_before = len(server.service.jobs)
        status, body, connection = self._post(server, length)
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert connection == "close"
        assert len(server.service.jobs) == jobs_before

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 10**12, 10**30])
    def test_oversized_length_is_413_without_reading(self, server, length):
        jobs_before = len(server.service.jobs)
        status, body, connection = self._post(server, str(length))
        assert (status, body["error"]["code"]) == (413, "payload_too_large")
        assert connection == "close"
        assert len(server.service.jobs) == jobs_before

    def test_server_keeps_serving_after_refusals(self, server):
        self._post(server, "abc")
        self._post(server, str(10**12))
        status, body = _request(server, f"{API_PREFIX}/health")
        assert (status, body["status"]) == (200, "ok")

    def test_valid_length_within_the_cap_is_served(self, server):
        payload = json.dumps({"scenario": "ideal-m3", "shots": 0}).encode()
        status, body, _ = self._post(server, str(len(payload)), payload)
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert "shots" in body["error"]["message"]


class TestBinaryArtefactRoute:
    """``GET /results/<fp>.rrec``: the artefact's raw bytes, JSON errors."""

    @pytest.fixture()
    def seeded(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        return ScenarioService(cache=cache), cache.fingerprints()[0]

    def test_serves_the_committed_artefact_bytes(self, seeded):
        from repro.server.responses import RawResponse

        service, fingerprint = seeded
        status, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        assert status == 200
        assert isinstance(raw, RawResponse)
        assert raw.content_type == "application/octet-stream"
        assert raw.body == service.cache.binary_path_for(fingerprint).read_bytes()

    def test_served_bytes_decode_to_the_cached_records(self, seeded):
        from repro.records import RecordFile

        service, fingerprint = seeded
        _, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        path = service.cache.binary_path_for(fingerprint)
        record_file = RecordFile(path)
        assert record_file.records() == service.cache.get(fingerprint)
        assert record_file.tag == fingerprint

    def test_errors_stay_json_envelopes(self, seeded):
        service, _ = seeded
        status, body = service.handle_get(f"{API_PREFIX}/results/nothex.rrec")
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        status, body = service.handle_get(
            f"{API_PREFIX}/results/{'0' * 64}.rrec"
        )
        assert (status, body["error"]["code"]) == (404, "not_found")

    def test_corrupt_binary_heals_from_json_and_serves(self, seeded):
        service, fingerprint = seeded
        path = service.cache.binary_path_for(fingerprint)
        expected = path.read_bytes()
        path.write_bytes(b"\x00" * 32)
        status, raw = service.handle_get(f"{API_PREFIX}/results/{fingerprint}.rrec")
        assert status == 200
        assert raw.body == expected

    def test_binary_route_over_a_real_socket(self, server):
        """End to end over HTTP: run a job, then fetch the raw artefact."""
        scenario = available_scenarios()[0]
        status, body = _request(
            server,
            f"{API_PREFIX}/runs",
            {"scenario": scenario, "shots": SHOTS, "seed": SEED},
        )
        assert status in (200, 202)
        job = body["data"]["job"]
        fingerprint = job["fingerprint"]
        _poll_job(server, job["id"])
        url = server.url + f"{API_PREFIX}/results/{fingerprint}.rrec"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/octet-stream"
            blob = response.read()
        assert blob == service_bytes(server, fingerprint)


def service_bytes(server, fingerprint):
    """The artefact bytes straight off the live server's cache."""
    return server.service.cache.binary_path_for(fingerprint).read_bytes()


class TestJobTable:
    def test_ids_are_dense_and_ordered(self):
        from repro.scenarios import get_scenario

        table = JobTable()
        spec = get_scenario("ideal-m3")
        first = table.create(spec, "f" * 64, shots=1, seed=1)
        second = table.create(spec, "f" * 64, shots=1, seed=1)
        assert (first.id, second.id) == ("job-0001", "job-0002")
        assert len(table) == 2
        assert table.get("job-0003") is None

    def test_eviction_drops_the_oldest_finished_jobs_first(self, monkeypatch):
        import repro.server.jobs as jobs_module
        from repro.scenarios import get_scenario

        monkeypatch.setattr(jobs_module, "MAX_JOBS", 4)
        table = JobTable()
        spec = get_scenario("ideal-m3")

        def create(status):
            return table.create(spec, "f" * 64, shots=1, seed=1, status=status).id

        running = create("queued")
        table.set_status(running, "running")
        first_done = create("done")
        queued = create("queued")
        failed = create("queued")
        table.set_status(failed, "error")
        assert len(table) == 4
        newest = create("done")
        assert table.get(first_done) is None
        assert len(table) == 4
        create("queued")
        assert table.get(failed) is None
        create("done")
        assert table.get(newest) is None
        # Live jobs are never evicted, even past the bound.
        for _ in range(3):
            create("queued")
        assert len(table) == 6
        assert table.get(running).status == "running"
        assert table.get(queued).status == "queued"
        table.set_status(running, "done")
        assert table.get(running).status == "done"

    def test_concurrent_creates_never_evict_a_live_job(self, monkeypatch):
        """Eviction runs under the table lock: no thread loses its live job."""
        import sys
        import threading

        import repro.server.jobs as jobs_module
        from repro.scenarios import get_scenario

        monkeypatch.setattr(jobs_module, "MAX_JOBS", 4)
        table = JobTable()
        spec = get_scenario("ideal-m3")
        errors = []

        def client():
            try:
                for _ in range(300):
                    job = table.create(spec, "f" * 64, shots=1, seed=1)
                    # set_status raises KeyError if the live job was evicted.
                    table.set_status(job.id, "running")
                    table.set_status(job.id, "done")
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(table) <= 4

    def test_evicted_job_answers_not_found(self, tmp_path, monkeypatch):
        import repro.server.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "MAX_JOBS", 2)
        cache = ResultCache(tmp_path)
        run_scenario("ideal-m3", shots=8, seed=2, workers=1, cache=cache)
        service = ScenarioService(cache=cache)
        body = json.dumps({"scenario": "ideal-m3", "shots": 8, "seed": 2}).encode()
        ids = [
            service.handle_post(f"{API_PREFIX}/runs", body)[1]["data"]["job"]["id"]
            for _ in range(3)
        ]
        assert len(service.jobs) == 2
        status, envelope = service.handle_get(f"{API_PREFIX}/jobs/{ids[0]}")
        assert (status, envelope["error"]["code"]) == (404, "not_found")
        for job_id in ids[1:]:
            status, envelope = service.handle_get(f"{API_PREFIX}/jobs/{job_id}")
            assert (status, envelope["data"]["status"]) == (200, "done")

    def test_set_status_rejects_unknown_states(self):
        from repro.scenarios import get_scenario

        table = JobTable()
        job = table.create(get_scenario("ideal-m3"), "f" * 64, shots=1, seed=1)
        with pytest.raises(ValueError, match="unknown job status"):
            table.set_status(job.id, "exploded")


def test_server_main_module_importable():
    """``python -m repro.server`` resolves (the CLI itself binds a socket)."""
    import repro.server.__main__  # noqa: F401
    from repro.server.app import main

    assert callable(main)


class TestBindFailures:
    """A server that cannot bind raises the bind error, not a half-built one."""

    def test_port_in_use_raises_address_in_use(self, tmp_path):
        with ScenarioServer(port=0, cache=str(tmp_path), workers=1) as live:
            with pytest.raises(OSError) as excinfo:
                ScenarioServer(
                    port=live.httpd.server_address[1], cache=str(tmp_path), workers=1
                )
        assert excinfo.value.errno == errno.EADDRINUSE

    @pytest.mark.parametrize("port", ["70000", "-1", "http"])
    def test_cli_port_out_of_range_is_a_usage_error(self, port, capsys):
        from repro.server.app import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--port", port])
        assert excinfo.value.code == 2
        assert "error: argument --port" in capsys.readouterr().err


class TestWorkerCountAtTheBoundary:
    """A bad worker count fails once, where it enters, never per job."""

    def test_cli_negative_workers_is_a_usage_error(self, capsys):
        from repro.server.app import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--port", "0", "--workers", "-1"])
        assert excinfo.value.code == 2
        assert "workers must be non-negative, got -1" in capsys.readouterr().err

    def test_cli_bad_workers_env_is_a_usage_error(self, monkeypatch, capsys):
        from repro.server.app import main

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["--port", "0"])
        assert excinfo.value.code == 2
        assert "REPRO_SWEEP_WORKERS must be a non-negative integer, got 'abc'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": -1}, "workers must be non-negative"),
            ({"shard_size": 0}, "shard_size must be positive"),
        ],
    )
    def test_server_rejects_bad_counts_at_construction(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioServer(port=0, cache=str(tmp_path), **kwargs)

    def test_server_reads_the_env_worker_count_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            ScenarioServer(port=0, cache=str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        server = ScenarioServer(port=0, cache=str(tmp_path))
        try:
            monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
            assert server.service.worker.workers == 2
        finally:
            server.close()
