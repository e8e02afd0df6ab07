"""The ``repro serve`` HTTP/JSON API (stdlib only).

A :class:`PredictionServer` wraps one :class:`~repro.serve.engine.QueryEngine`
in a threaded ``http.server`` with six GET endpoints and one POST::

    /paths?origin=ASN&observer=ASN        predicted AS-path set
    /diversity?origin=ASN&observer=ASN    route-diversity summary
    /lookup?target=IP|CIDR&observer=ASN   longest-prefix-match + paths
    /healthz                              liveness + artifact + reload state
    /readyz                               readiness (503 while draining)
    /metrics                              metrics-registry snapshot
    POST /-/reload                        trigger a hot-swap reload

``/metrics`` defaults to the JSON snapshot but serves the Prometheus
text exposition when asked — either explicitly (``?format=prometheus``)
or through Accept-header negotiation (``Accept: text/plain`` or an
OpenMetrics type), so a stock Prometheus scrape config works unchanged.

The engine lives behind an RCU-style :class:`~repro.serve.reload.EngineRef`:
each request reads the reference once and answers entirely from that
engine, so a hot swap (SIGHUP, ``POST /-/reload``, or the artifact
watcher) never disturbs an in-flight request.  Query endpoints pass
through the :class:`~repro.serve.admission.AdmissionController` when one
is configured — overload sheds fast 503s with ``Retry-After`` instead of
queueing unboundedly; ``/healthz`` / ``/readyz`` / ``/metrics`` bypass
admission so an overloaded server can still tell its load balancer.

Every response body is JSON.  Failures are structured, not stack traces:
``{"error": {"status": 400, "kind": "...", "message": "..."}}`` with 400
for malformed requests, 404 for unknown ASNs/targets, 503 for origins
the compiler quarantined (and for shed or draining requests), and 500
(with the exception name, not the traceback) for anything unexpected.
``serve.http_responses`` counts *successes only*; errors flow through
``serve.http_errors``, and clients that hang up mid-response are
swallowed and counted as ``serve.client_disconnects``, never raised out
of the handler thread.  Each connection gets a socket timeout so a stuck
client cannot pin a handler thread forever.

Shutdown mirrors the PR-4 supervised-pool contract: SIGINT/SIGTERM stops
accepting, in-flight requests get a bounded grace period to finish
(``block_on_close`` + non-daemon handler threads), a ``drain`` event and
counter flow through the observability layer, and :func:`run_server`
returns cleanly so the CLI can exit 0 — a server asked to stop that
stops *is* success.  While draining, ``/healthz`` answers 503 with
``"status": "draining"`` so load balancers eject the instance.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.obs.metrics import get_registry, render_prometheus
from repro.obs.trace import get_tracer
from repro.runstate import drain_signals
from repro.serve.admission import AdmissionController, Rejection, Ticket
from repro.serve.engine import (
    BAD_TARGET,
    QUARANTINED,
    UNKNOWN_OBSERVER,
    UNKNOWN_ORIGIN,
    UNKNOWN_TARGET,
    QueryEngine,
    QueryError,
)
from repro.serve.reload import ArtifactWatcher, EngineRef, ReloadCoordinator

logger = logging.getLogger(__name__)

DEFAULT_PORT = 8321
DEFAULT_REQUEST_TIMEOUT = 10.0
SIGNAL_POLL_SECONDS = 0.2
"""How often :func:`run_server`'s main thread comes up from its wait to run
signal handlers that were flagged while it slept."""

RELOAD_ROUTE = "/-/reload"
"""POST here to trigger a hot-swap reload (mirrors SIGHUP)."""

_STATUS_BY_KIND = {
    UNKNOWN_ORIGIN: 404,
    UNKNOWN_OBSERVER: 404,
    UNKNOWN_TARGET: 404,
    BAD_TARGET: 400,
    QUARANTINED: 503,
}

_OPS_ROUTES = frozenset({"/healthz", "/readyz", "/metrics"})
"""Endpoints exempt from admission control (observability must survive
the very overload it reports)."""

EVENT_SERVE_DRAIN = "serve-drain"
"""Tracer event emitted when a signal starts the drain."""


class _Handler(BaseHTTPRequestHandler):
    """One request; the server instance carries the engine and counters."""

    server: "PredictionServer"
    protocol_version = "HTTP/1.1"
    # Set per-server in PredictionServer.__init__ (socket read timeout).
    timeout = DEFAULT_REQUEST_TIMEOUT

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        started = time.perf_counter()
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        ticket: Ticket | None = None
        try:
            if route == RELOAD_ROUTE:
                self._send_error(
                    405, "method-not-allowed",
                    f"use POST {RELOAD_ROUTE} to trigger a reload",
                )
                return
            handler = self.server.routes.get(route)
            if handler is None:
                self._send_error(
                    404, "unknown-route",
                    f"no such endpoint {route!r}; try /paths /diversity "
                    "/lookup /healthz /readyz /metrics",
                )
                return
            if route not in _OPS_ROUTES:
                ticket = self._pass_admission(route)
                if ticket is None and self.server.admission is not None:
                    return  # shed or draining; the 503 is already sent
                if self.server.handler_delay > 0:
                    time.sleep(self.server.handler_delay)
            status, body = handler(self, query)
            if isinstance(body, str):
                self._send_text(status, body)
            else:
                self._send_json(status, body)
        except QueryError as error:
            self._send_error(
                _STATUS_BY_KIND.get(error.kind, 400), error.kind, str(error)
            )
        except (BrokenPipeError, ConnectionResetError):
            self._count_disconnect()
        except Exception as error:  # noqa: BLE001 - 500 boundary
            logger.exception("unhandled error serving %s", self.path)
            self._send_error(
                500, "internal-error",
                f"{type(error).__name__} while serving {route}",
            )
        finally:
            if ticket is not None:
                self.server.admission.release(ticket)
            self.server.request_seconds.observe(time.perf_counter() - started)

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        started = time.perf_counter()
        route = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            if route != RELOAD_ROUTE:
                self._send_error(
                    404, "unknown-route",
                    f"no such POST endpoint {route!r}; only {RELOAD_ROUTE}",
                )
                return
            reloader = self.server.reloader
            if reloader is None:
                self._send_error(
                    503, "reload-unavailable",
                    "this server was started without an artifact path; "
                    "restart 'repro serve' to change artifacts",
                )
                return
            result = reloader.reload(reason="http")
            outcome = result["outcome"]
            if outcome in ("reloaded", "unchanged"):
                self._send_json(200, result)
            elif outcome == "busy":
                self._send_json(409, result)
            else:  # failed: old artifact still serving, degraded
                self._send_json(500, result)
                self.server.error_responses.inc()
        except (BrokenPipeError, ConnectionResetError):
            self._count_disconnect()
        except Exception as error:  # noqa: BLE001 - 500 boundary
            logger.exception("unhandled error serving %s", self.path)
            self._send_error(
                500, "internal-error",
                f"{type(error).__name__} while serving {route}",
            )
        finally:
            self.server.request_seconds.observe(time.perf_counter() - started)

    def _pass_admission(self, route: str) -> Ticket | None:
        """Run the admission gate; sends the 503 itself on rejection.

        Returns the ticket to release, or None when there is no gate or
        the request was shed (callers distinguish via ``server.admission``).
        """
        admission = self.server.admission
        if admission is None:
            return None
        if self.server.draining.is_set():
            self._send_error(
                503, "draining",
                "server is draining; retry against another instance",
                retry_after=1,
            )
            return None
        outcome = admission.admit(route)
        if isinstance(outcome, Rejection):
            self._send_error(
                503, outcome.reason,
                "overloaded: request shed by admission control "
                f"({outcome.reason}); retry after the indicated delay",
                retry_after=outcome.retry_after,
            )
            return None
        return outcome

    # ------------------------------------------------------------------
    # Endpoint bodies (return (status, payload))
    # ------------------------------------------------------------------

    def _endpoint_paths(self, query: dict) -> tuple[int, dict]:
        origin = self._asn_param(query, "origin")
        observer = self._asn_param(query, "observer")
        return 200, self.server.engine.paths(origin, observer).to_dict()

    def _endpoint_diversity(self, query: dict) -> tuple[int, dict]:
        origin = self._asn_param(query, "origin")
        observer = self._asn_param(query, "observer")
        return 200, self.server.engine.diversity(origin, observer).to_dict()

    def _endpoint_lookup(self, query: dict) -> tuple[int, dict]:
        target = self._str_param(query, "target")
        observer = self._asn_param(query, "observer")
        return 200, self.server.engine.lookup(target, observer).to_dict()

    def _endpoint_healthz(self, query: dict) -> tuple[int, dict]:
        del query
        server = self.server
        draining = server.draining.is_set()
        degraded = (
            server.reloader is not None and server.reloader.degraded
        )
        engine = server.engine
        body = {
            "status": (
                "draining" if draining
                else "degraded" if degraded
                else "ok"
            ),
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - server.started_at, 3),
            "artifact": engine.describe(),
            "cache": engine.cache_stats(),
        }
        if server.reloader is not None:
            body["reload"] = server.reloader.describe()
        if server.admission is not None:
            body["admission"] = server.admission.describe()
        # Liveness stays 200 while degraded (the old artifact still
        # answers); draining is 503 so load balancers stop routing here.
        return (503 if draining else 200), body

    def _endpoint_readyz(self, query: dict) -> tuple[int, dict]:
        del query
        server = self.server
        if server.draining.is_set():
            return 503, {"ready": False, "status": "draining"}
        degraded = (
            server.reloader is not None and server.reloader.degraded
        )
        return 200, {
            "ready": True,
            "status": "degraded" if degraded else "ok",
        }

    def _endpoint_metrics(self, query: dict) -> tuple[int, dict | str]:
        if self._wants_prometheus(query):
            return 200, render_prometheus()
        return 200, get_registry().snapshot()

    def _wants_prometheus(self, query: dict) -> bool:
        """Explicit ``?format=`` wins; otherwise negotiate on Accept."""
        values = query.get("format")
        if values and values[0]:
            fmt = values[0].lower()
            if fmt == "prometheus":
                return True
            if fmt == "json":
                return False
            raise QueryError(
                BAD_TARGET,
                f"unknown metrics format {fmt!r}; try 'json' or 'prometheus'",
            )
        accept = self.headers.get("Accept") or ""
        return "text/plain" in accept or "openmetrics" in accept

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _asn_param(self, query: dict, name: str) -> int:
        raw = self._str_param(query, name)
        try:
            return int(raw)
        except ValueError:
            raise QueryError(
                BAD_TARGET, f"query parameter {name}={raw!r} is not an ASN"
            ) from None

    def _str_param(self, query: dict, name: str) -> str:
        values = query.get(name)
        if not values or not values[0]:
            raise QueryError(
                BAD_TARGET, f"missing required query parameter {name!r}"
            )
        return values[0]

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("ascii")
        self._write_response(
            status, "application/json", body, extra_headers
        )
        if status < 400:
            self.server.responses.inc()

    def _send_text(self, status: int, body_text: str) -> None:
        body = body_text.encode("utf-8")
        self._write_response(
            status, "text/plain; version=0.0.4; charset=utf-8", body
        )
        if status < 400:
            self.server.responses.inc()

    def _send_error(
        self,
        status: int,
        kind: str,
        message: str,
        retry_after: int | None = None,
    ) -> None:
        self.server.error_responses.inc()
        headers = (
            {"Retry-After": str(retry_after)}
            if retry_after is not None
            else None
        )
        self._send_json(
            status,
            {"error": {"status": status, "kind": kind, "message": message}},
            extra_headers=headers,
        )

    def _write_response(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """The only place bytes hit the socket: disconnect-safe.

        A client that hangs up while we write its 4xx/5xx (or 2xx) body
        must cost us a counter bump, never an exception escaping the
        handler thread."""
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self._count_disconnect()

    def _count_disconnect(self) -> None:
        self.server.client_disconnects.inc()
        self.close_connection = True
        logger.debug("client %s disconnected mid-response", self.client_address)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


# Route table: bound methods are looked up per request so handler
# subclassing in tests stays possible.
_ROUTES: dict[str, Callable] = {
    "/paths": _Handler._endpoint_paths,
    "/diversity": _Handler._endpoint_diversity,
    "/lookup": _Handler._endpoint_lookup,
    "/healthz": _Handler._endpoint_healthz,
    "/readyz": _Handler._endpoint_readyz,
    "/metrics": _Handler._endpoint_metrics,
}


class PredictionServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one hot-swappable query engine.

    Handler threads are non-daemon and ``block_on_close`` is on, so
    :meth:`drain` (shutdown + close) waits for in-flight requests — the
    graceful part of the shutdown contract.  The per-connection socket
    timeout bounds how long that wait can take.

    ``engine`` is a read-only property over the :class:`EngineRef`; a
    :class:`~repro.serve.reload.ReloadCoordinator` attached as
    ``self.reloader`` swaps the reference without the server noticing.
    ``reuse_port`` sets ``SO_REUSEPORT`` before binding so N sibling
    processes can share one port under the serve supervisor.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        admission: AdmissionController | None = None,
        reuse_port: bool = False,
        handler_delay: float = 0.0,
    ) -> None:
        self.engine_ref = EngineRef(engine)
        self.reloader: ReloadCoordinator | None = None
        self.admission = admission
        self.reuse_port = reuse_port
        self.handler_delay = handler_delay
        self.routes = dict(_ROUTES)
        self.started_at = time.monotonic()
        self.draining = threading.Event()
        registry = get_registry()
        self.responses = registry.counter("serve.http_responses")
        self.error_responses = registry.counter("serve.http_errors")
        self.client_disconnects = registry.counter("serve.client_disconnects")
        self.request_seconds = registry.histogram("serve.request_seconds")
        handler = type(
            "_BoundHandler", (_Handler,), {"timeout": request_timeout}
        )
        super().__init__((host, port), handler)

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        super().server_bind()

    @property
    def engine(self) -> QueryEngine:
        """The engine new requests answer from (reads the live ref)."""
        return self.engine_ref.get()

    @property
    def address(self) -> str:
        """The bound ``host:port`` (port resolved when 0 was requested)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def drain(self, signum: int | None = None) -> None:
        """Stop accepting, finish in-flight requests, close sockets."""
        if self.draining.is_set():
            return
        self.draining.set()
        get_registry().counter("serve.drains").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(EVENT_SERVE_DRAIN, signal=signum, address=self.address)
        logger.warning(
            "draining on signal %s: no new connections, in-flight requests "
            "get up to the request timeout to finish", signum,
        )
        self.shutdown()      # stops the serve_forever loop
        self.server_close()  # block_on_close waits for handler threads


def run_server(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ready: threading.Event | None = None,
    artifact_path: str | Path | None = None,
    cache_size: int = 4096,
    admission: AdmissionController | None = None,
    watch_interval: float | None = None,
    reuse_port: bool = False,
    handler_delay: float = 0.0,
    announce: bool = True,
    on_ready: Callable[[PredictionServer], None] | None = None,
) -> int:
    """Serve until SIGINT/SIGTERM, then drain gracefully; returns 0.

    The accept loop runs in a worker thread while the calling thread
    waits inside a :class:`~repro.runstate.drain_signals` scope, so a
    signal handler (which Python always runs on the main thread) can
    trigger ``shutdown()`` without deadlocking the loop it interrupts.
    ``ready`` (if given) is set once the socket is bound and accepting —
    tests use it to know when to connect; ``on_ready`` (if given)
    receives the bound server — the serve supervisor's workers use it to
    report their address upstream.

    When ``artifact_path`` is given the server supports hot-swap
    reloads: SIGHUP and ``POST /-/reload`` both re-stage the artifact
    through a :class:`~repro.serve.reload.ReloadCoordinator`, and
    ``watch_interval`` (seconds, None disables) additionally starts an
    :class:`~repro.serve.reload.ArtifactWatcher` that reloads whenever
    the file on disk changes.  The server is constructed (and the port
    bound) *before* any signal handler is touched, so a failed bind
    leaves the caller's handlers exactly as they were.
    """
    hup_pending = threading.Event()
    wake = threading.Event()

    def handle_hup() -> None:
        hup_pending.set()
        wake.set()

    server = PredictionServer(
        engine,
        host=host,
        port=port,
        request_timeout=request_timeout,
        admission=admission,
        reuse_port=reuse_port,
        handler_delay=handler_delay,
    )
    watcher: ArtifactWatcher | None = None
    if artifact_path is not None:
        server.reloader = ReloadCoordinator(
            server.engine_ref, artifact_path, cache_size=cache_size
        )
        if watch_interval is not None:
            watcher = ArtifactWatcher(server.reloader, interval=watch_interval)
    with drain_signals(
        on_stop=lambda signum: wake.set(),
        on_hup=handle_hup if server.reloader is not None else None,
    ) as drain:
        loop = threading.Thread(
            target=server.serve_forever, name="repro-serve-accept", daemon=False
        )
        loop.start()
        if watcher is not None:
            watcher.start()
        logger.info("serving predictions on http://%s", server.address)
        if announce:
            print(f"serving predictions on http://{server.address}", flush=True)
        if on_ready is not None:
            on_ready(server)
        if ready is not None:
            ready.set()
        try:
            while drain.signum is None:
                # With a timeout: the kernel may hand a signal to a busy
                # request thread, and CPython then only flags the handler
                # for this thread — it does not interrupt a lock wait, so
                # an untimed one sleeps through the SIGHUP or SIGTERM
                # until the next signal happens to land here.
                wake.wait(SIGNAL_POLL_SECONDS)
                wake.clear()
                if hup_pending.is_set() and server.reloader is not None:
                    hup_pending.clear()
                    server.reloader.reload(reason="sighup")
        finally:
            if watcher is not None:
                watcher.stop()
            server.drain(drain.signum)
            loop.join()
    stats = server.engine.cache_stats()
    if announce:
        print(
            f"drained on signal {drain.signum}: served {stats['queries']} "
            f"quer{'y' if stats['queries'] == 1 else 'ies'} "
            f"({stats['hits']} cache hits), shut down cleanly",
            flush=True,
        )
    return 0
