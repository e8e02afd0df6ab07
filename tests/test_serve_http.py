"""Tests for the ``repro serve`` HTTP API and its shutdown contract."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.net.prefix import prefix_for_asn
from repro.obs.metrics import get_registry
from repro.serve import QueryEngine, build_artifact
from repro.serve.admission import AdmissionController
from repro.serve.http import PredictionServer


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


@pytest.fixture
def artifact():
    return build_artifact(
        origins={4: prefix_for_asn(4), 7: prefix_for_asn(7)},
        observers=[1, 2, 3, 4],
        paths={
            (4, 1): {(1, 2, 4), (1, 3, 4)},
            (4, 2): {(2, 4)},
        },
        quarantined=[prefix_for_asn(7)],
        meta={"argv": ["test"]},
    )


@pytest.fixture
def server(artifact):
    """A PredictionServer accepting on an ephemeral port, drained at exit."""
    engine = QueryEngine(artifact, cache_size=16)
    instance = PredictionServer(engine, host="127.0.0.1", port=0)
    loop = threading.Thread(target=instance.serve_forever, daemon=True)
    loop.start()
    yield instance
    instance.drain()
    loop.join(timeout=10)


def get(server, path):
    """GET a path; returns (status, parsed JSON body) without raising."""
    url = f"http://{server.address}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestEndpoints:
    def test_paths_ok(self, server):
        status, body = get(server, "/paths?origin=4&observer=1")
        assert status == 200
        assert body["reachable"] is True
        assert body["paths"] == [[1, 2, 4], [1, 3, 4]]

    def test_diversity_ok(self, server):
        status, body = get(server, "/diversity?origin=4&observer=1")
        assert status == 200
        assert body["path_count"] == 2
        assert body["multipath"] is True

    def test_lookup_ok(self, server):
        target = str(prefix_for_asn(4)).split("/")[0]
        status, body = get(server, f"/lookup?target={target}&observer=2")
        assert status == 200
        assert body["origin"] == 4
        assert body["paths"] == [[2, 4]]

    def test_unknown_origin_404(self, server):
        status, body = get(server, "/paths?origin=999&observer=1")
        assert status == 404
        assert body["error"]["kind"] == "unknown-origin"
        assert "999" in body["error"]["message"]

    def test_unknown_observer_404(self, server):
        status, body = get(server, "/paths?origin=4&observer=999")
        assert status == 404
        assert body["error"]["kind"] == "unknown-observer"

    def test_non_numeric_asn_400(self, server):
        status, body = get(server, "/paths?origin=abc&observer=1")
        assert status == 400
        assert body["error"]["kind"] == "bad-target"

    def test_missing_parameter_400(self, server):
        status, body = get(server, "/paths?origin=4")
        assert status == 400
        assert "observer" in body["error"]["message"]

    def test_quarantined_origin_503(self, server):
        status, body = get(server, "/paths?origin=7&observer=1")
        assert status == 503
        assert body["error"]["kind"] == "quarantined"

    def test_unknown_route_404(self, server):
        status, body = get(server, "/frobnicate")
        assert status == 404
        assert body["error"]["kind"] == "unknown-route"

    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["artifact"]["origins"] == 2
        assert body["artifact"]["quarantined"] == 1
        assert "cache" in body

    def test_metrics_snapshot(self, server):
        assert get(server, "/paths?origin=4&observer=1")[0] == 200
        status, body = get(server, "/metrics")
        assert status == 200
        assert body["counters"]["serve.queries"] >= 1
        assert body["counters"]["serve.http_responses"] >= 1


class TestPrometheusExposition:
    def _get_text(self, server, path, accept=None):
        request = urllib.request.Request(f"http://{server.address}{path}")
        if accept:
            request.add_header("Accept", accept)
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )

    def test_format_parameter_serves_prometheus_text(self, server):
        assert get(server, "/paths?origin=4&observer=1")[0] == 200
        status, content_type, text = self._get_text(
            server, "/metrics?format=prometheus"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_serve_queries_total counter" in text
        assert "repro_serve_queries_total" in text
        assert "# TYPE repro_serve_request_seconds summary" in text
        assert 'quantile="0.99"' in text

    def test_accept_header_negotiates_prometheus(self, server):
        status, content_type, text = self._get_text(
            server, "/metrics", accept="text/plain"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE" in text

    def test_default_stays_json(self, server):
        status, body = get(server, "/metrics")
        assert status == 200
        assert "counters" in body  # JSON snapshot, not text

    def test_explicit_json_format(self, server):
        status, body = get(server, "/metrics?format=json")
        assert status == 200
        assert "counters" in body

    def test_unknown_format_400(self, server):
        status, body = get(server, "/metrics?format=xml")
        assert status == 400
        assert "xml" in body["error"]["message"]


class TestConcurrency:
    def test_concurrent_queries_share_the_lru(self, server):
        results = []
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    results.append(get(server, "/paths?origin=4&observer=1"))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 60
        assert all(status == 200 for status, _ in results)
        stats = server.engine.cache_stats()
        assert stats["queries"] == 60
        assert stats["misses"] == 1  # one cold compute, 59 LRU hits
        assert stats["hits"] == 59


class TestResponseCounting:
    """serve.http_responses counts successes ONLY; errors are separate.

    PR-9 satellite: the counter used to be bumped once in the handler
    and again in the error path, double-counting every failed request.
    """

    @staticmethod
    def _settled(counter, expected, deadline=5.0):
        """Counters bump after the response bytes leave the socket, so a
        fast client can race them; wait for the dust to settle."""
        limit = time.monotonic() + deadline
        while counter.value < expected and time.monotonic() < limit:
            time.sleep(0.01)
        return counter.value

    def test_success_and_error_counters_are_disjoint(self, server):
        assert get(server, "/paths?origin=4&observer=1")[0] == 200
        assert get(server, "/paths?origin=4&observer=2")[0] == 200
        assert get(server, "/paths?origin=999&observer=1")[0] == 404
        assert get(server, "/frobnicate")[0] == 404
        registry = get_registry()
        successes = self._settled(
            registry.counter("serve.http_responses"), 2
        )
        errors = self._settled(registry.counter("serve.http_errors"), 2)
        assert successes == 2  # exactly the two 200s, nothing double
        assert errors == 2

    def test_metrics_endpoint_counts_itself_once(self, server):
        get(server, "/metrics")
        assert get_registry().counter("serve.http_errors").value == 0
        # Exactly one success recorded for the /metrics hit itself.
        assert self._settled(
            get_registry().counter("serve.http_responses"), 1
        ) == 1


class TestClientDisconnects:
    def test_reset_mid_request_is_counted_not_raised(self, artifact):
        engine = QueryEngine(artifact, cache_size=16)
        instance = PredictionServer(
            engine, host="127.0.0.1", port=0, handler_delay=0.3
        )
        loop = threading.Thread(target=instance.serve_forever, daemon=True)
        loop.start()
        try:
            host, port = instance.server_address[:2]
            client = socket.create_connection((host, port), timeout=5)
            client.sendall(
                b"GET /paths?origin=4&observer=1 HTTP/1.1\r\n"
                b"Host: test\r\n\r\n"
            )
            # RST the connection while the handler is still sleeping.
            client.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            client.close()
            counter = get_registry().counter("serve.client_disconnects")
            deadline = time.monotonic() + 10.0
            while counter.value == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert counter.value >= 1, "disconnect was not counted"
            # The server is still healthy for the next client.
            assert get(instance, "/healthz")[0] == 200
        finally:
            instance.drain()
            loop.join(timeout=10)


class TestDrainingState:
    @pytest.fixture
    def gated_server(self, artifact):
        """A server with an admission gate (draining 503s need one)."""
        engine = QueryEngine(artifact, cache_size=16)
        instance = PredictionServer(
            engine, host="127.0.0.1", port=0,
            admission=AdmissionController(max_inflight=8),
        )
        loop = threading.Thread(target=instance.serve_forever, daemon=True)
        loop.start()
        yield instance
        instance.drain()
        loop.join(timeout=10)

    def test_readyz_ok_when_serving(self, gated_server):
        status, body = get(gated_server, "/readyz")
        assert status == 200
        assert body == {"ready": True, "status": "ok"}

    def test_draining_flips_healthz_readyz_and_sheds_queries(
        self, gated_server
    ):
        # Flag the state without closing sockets, so we can still probe.
        gated_server.draining.set()
        status, body = get(gated_server, "/healthz")
        assert status == 503
        assert body["status"] == "draining"
        status, body = get(gated_server, "/readyz")
        assert status == 503
        assert body == {"ready": False, "status": "draining"}
        status, body = get(gated_server, "/paths?origin=4&observer=1")
        assert status == 503
        assert body["error"]["kind"] == "draining"
        gated_server.draining.clear()  # let the fixture drain cleanly

    def test_drain_retry_after_header(self, gated_server):
        gated_server.draining.set()
        url = (
            f"http://{gated_server.address}/paths?origin=4&observer=1"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url, timeout=10)
        assert info.value.headers["Retry-After"] == "1"
        gated_server.draining.clear()


class TestGracefulDrain:
    def test_slow_inflight_requests_finish_during_drain(self, artifact):
        """SIGTERM semantics: in-flight answers complete, none dropped."""
        engine = QueryEngine(artifact, cache_size=16)
        instance = PredictionServer(
            engine, host="127.0.0.1", port=0, handler_delay=0.5
        )
        loop = threading.Thread(target=instance.serve_forever, daemon=True)
        loop.start()
        outcomes = []

        def slow_query():
            outcomes.append(get(instance, "/paths?origin=4&observer=1"))

        clients = [threading.Thread(target=slow_query) for _ in range(3)]
        for client in clients:
            client.start()
        time.sleep(0.2)  # all three are mid-handler_delay now
        instance.drain()  # blocks until the loop stops + handlers finish
        for client in clients:
            client.join(timeout=15)
        loop.join(timeout=10)
        assert len(outcomes) == 3
        assert all(status == 200 for status, _ in outcomes), outcomes


class TestSignalHandlerRestoration:
    def test_bind_failure_leaves_handlers_untouched(self, artifact):
        """run_server must not clobber signal handlers when it cannot
        even bind — the server is constructed before handlers are
        installed, so EADDRINUSE propagates with handlers intact."""
        import signal

        from repro.serve.http import run_server

        engine = QueryEngine(artifact, cache_size=16)
        sentinel_term = lambda signum, frame: None  # noqa: E731
        sentinel_int = lambda signum, frame: None  # noqa: E731
        previous_term = signal.signal(signal.SIGTERM, sentinel_term)
        previous_int = signal.signal(signal.SIGINT, sentinel_int)
        squatter = socket.socket()
        try:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            with pytest.raises(OSError):
                run_server(engine, host="127.0.0.1", port=port)
            assert signal.getsignal(signal.SIGTERM) is sentinel_term
            assert signal.getsignal(signal.SIGINT) is sentinel_int
        finally:
            squatter.close()
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)


class TestServeCommand:
    """End-to-end: ``repro serve`` drains cleanly on SIGTERM (exit 0)."""

    @pytest.fixture(scope="class")
    def artifact_file(self, tmp_path_factory):
        from repro.cli import main

        base = tmp_path_factory.mktemp("serve")
        dump = base / "snap.dump"
        model = base / "model.cbgp"
        artifact = base / "pred.artifact"
        assert main(
            ["synthesize", "--seed", "5", "--scale", "0.15",
             "--points", "8", "--out", str(dump)]
        ) == 0
        assert main(["refine", str(dump), "--out", str(model)]) == 0
        assert main(
            ["compile-artifact", str(model), "--out", str(artifact)]
        ) == 0
        return artifact

    def test_sigterm_drains_to_exit_0(self, artifact_file, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        report = tmp_path / "serve_health.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact_file),
             "--port", "0", "--stats-report", str(report)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving predictions on http://")
            address = banner.rsplit("http://", 1)[1]
            with urllib.request.urlopen(
                f"http://{address}/healthz", timeout=10
            ) as response:
                assert json.load(response)["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 0
        health = json.loads(report.read_text())
        assert health["metrics"]["counters"]["serve.http_responses"] >= 1
        assert health["metrics"]["counters"]["serve.drains"] == 1
