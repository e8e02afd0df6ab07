"""The serve-path chaos campaign (``BENCH_serve_resilience.json``).

Attacks a real ``repro serve`` process tree the way production would —
hot reloads under sustained query load, a corrupted artifact swapped in
mid-flight, ``kill -9`` of a serve worker, a synthetic overload burst, a
slow client squatting a connection, and a final SIGTERM drain — and
asserts the availability contract from ISSUE 9:

* zero requests dropped across hot reloads (the RCU swap is invisible),
* no query lost from the ``serve.*`` accounting while a reload's old and
  new engines overlap (``accounting_mismatches``),
* a corrupted reload leaves the old artifact serving (degraded, loudly),
* a killed worker is replaced within a bounded interval while its
  siblings keep answering,
* overload sheds fast 503s carrying ``Retry-After`` instead of queueing,
  with the p99 of *admitted* requests inside the configured deadline,
* SIGTERM still exits 0 after all of the above.

Everything is subprocess-driven (the campaign talks to the server over
real sockets and signals), artifacts are hand-built (no simulation), and
every fault is deterministic in ``seed``, so the recorded numbers are
reproducible run-to-run.  ``repro chaos --serve`` is the CLI wrapper.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.experiments.report import ExperimentResult
from repro.net.prefix import prefix_for_asn
from repro.resilience.faults import corrupt_artifact_payload
from repro.serve.artifact import PredictionArtifact, build_artifact

QUERY = "/paths?origin=10&observer=1"
"""The sustained-load query; answerable by every campaign artifact."""


REQUEST_TIMEOUT = 5.0
BOOT_TIMEOUT = 30.0
"""Upper bound on every worker answering ``/healthz`` after the banner."""
RELOAD_TIMEOUT = 20.0
"""Upper bound on observing a triggered reload in ``/healthz``."""
KILL_RECOVERY_BOUND = 15.0
"""Availability contract: a killed worker must be replaced (a fresh
pid answering ``/healthz``) within this many seconds."""
OVERLOAD_CLIENTS = 16
OVERLOAD_MAX_INFLIGHT = 3
OVERLOAD_DEADLINE = 2.0
"""Availability contract: the p99 of requests admitted under overload."""
OVERLOAD_DELAY_MS = 200.0
SLOW_CLIENT_HOLD = 2.0
DRAIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class ServeChaosConfig:
    """What varies between serve-chaos campaigns; the contract's bounds
    and the load shape are the constants above."""

    seed: int = 0
    workers: int = 2


# ----------------------------------------------------------------------
# Fixtures: artifacts and server processes
# ----------------------------------------------------------------------


def _build_artifact(path: Path, version: int) -> str:
    """Write campaign artifact ``version`` (distinct checksums); returns
    its checksum.  All versions answer ``QUERY``; later versions carry
    more paths, the difference a reload must surface."""
    paths = {
        (10, 1): {(1, 2, 10), (1, 3, 10)},
        (10, 2): {(2, 10)},
        (11, 1): {(1, 11)},
    }
    for extra in range(2, version + 1):
        paths[(10, 1)] = set(paths[(10, 1)]) | {(1, 2, 3 + extra, 10)}
    artifact = build_artifact(
        origins={10: prefix_for_asn(10), 11: prefix_for_asn(11)},
        observers=[1, 2, 3],
        paths=paths,
        meta={"campaign": "serve-chaos", "version": version},
    )
    artifact.save(path)
    return artifact.checksum


def _spawn_server(artifact: Path, extra_args: list[str]) -> subprocess.Popen:
    """Start ``repro serve`` as the leader of its own session, so that
    :func:`_kill_tree` reaches the supervisor's workers too."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(artifact),
         "--port", "0", *extra_args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )


def _kill_tree(process: subprocess.Popen) -> None:
    """SIGKILL the server's whole process group and reap the leader.

    A killed supervisor cannot stop its workers, and they would outlive
    a failed campaign holding the port.  After a clean drain the group is
    already empty.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)


def _read_banner(process: subprocess.Popen, timeout: float = 30.0) -> str:
    """Parse ``host:port`` from the startup banner, bounded in time."""
    lines: list[str] = []

    def read() -> None:
        lines.append(process.stdout.readline())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout)
    if not lines or "http://" not in (lines[0] or ""):
        raise AssertionError(
            f"server did not announce within {timeout}s "
            f"(got {lines[0]!r} )" if lines else "server produced no banner"
        )
    return lines[0].strip().rsplit("http://", 1)[1]


def _request(
    address: str, path: str, timeout: float = 5.0
) -> tuple[int | None, dict, dict]:
    """GET; returns (status, headers, body) — status None on a drop."""
    url = f"http://{address}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        body = json.load(error)
        return error.code, dict(error.headers), body
    except (OSError, http.client.HTTPException):
        # HTTPException: a worker killed mid-answer (IncompleteRead) is a
        # dropped request like any other, not the end of the load thread.
        return None, {}, {}


class _LoadGenerator:
    """Background thread issuing ``QUERY`` back-to-back; every outcome is
    recorded so "zero dropped requests" is checkable after the fact."""

    def __init__(self, address: str, timeout: float) -> None:
        self.address = address
        self.timeout = timeout
        self.outcomes: list[tuple[int | None, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        # Guards the two flags below; paused() waits on it for the
        # request in flight to finish.
        self._gate = threading.Condition()
        self._paused = False
        self._inflight = False

    def _run(self) -> None:
        while not self._stop.is_set():
            with self._gate:
                while self._paused:
                    self._gate.wait()
                self._inflight = True
            started = time.perf_counter()
            status, _, _ = _request(
                self.address, QUERY, timeout=self.timeout
            )
            with self._lock:
                self.outcomes.append(
                    (status, time.perf_counter() - started)
                )
            with self._gate:
                self._inflight = False
                self._gate.notify_all()

    @contextmanager
    def paused(self):
        """No request in flight or sent for the duration of the block."""
        with self._gate:
            self._paused = True
            while self._inflight:
                self._gate.wait()
        try:
            yield
        finally:
            with self._gate:
                self._paused = False
                self._gate.notify_all()

    def start(self) -> "_LoadGenerator":
        self._thread.start()
        return self

    def mark(self) -> int:
        with self._lock:
            return len(self.outcomes)

    def since(self, mark: int) -> list[tuple[int | None, float]]:
        with self._lock:
            return list(self.outcomes[mark:])

    def stop(self) -> list[tuple[int | None, float]]:
        self._stop.set()
        self._thread.join(timeout=10)
        with self._lock:
            return list(self.outcomes)


def _await_fleet(
    address: str, workers: int, predicate, timeout: float, claim: str
) -> dict[int, dict]:
    """Poll ``/healthz`` until ``workers`` distinct pids have each given a
    body satisfying ``predicate``; returns those bodies by pid, or fails
    the campaign naming ``claim`` on timeout.

    The kernel spreads the polls across the ``SO_REUSEPORT`` workers, and
    any number of good answers can come from one of them: the fleet is
    where the campaign needs it only when every pid has said so.
    """
    bodies: dict[int, dict] = {}
    deadline = time.monotonic() + timeout
    while len(bodies) < workers and time.monotonic() < deadline:
        status, _, body = _request(address, "/healthz")
        if status is not None and "pid" in body and predicate(body):
            bodies[body["pid"]] = body
        time.sleep(0.02)
    assert len(bodies) == workers, \
        f"only {len(bodies)} of {workers} worker(s) {claim} within {timeout}s"
    return bodies


def _check_accounting(
    result: ExperimentResult, address: str, workers: int, load: _LoadGenerator
) -> None:
    """Scrape ``/metrics`` with the load paused and count the scrapes
    whose ``serve.queries`` is not hits + misses or the latency count.

    Each worker keeps its own registry and the kernel picks which one
    answers, so a phase scrapes twice per worker.  Paused, no query is
    half-counted: a mismatch is an update lost while a reload's old and
    new engines wrote the same instruments.  ``accounting_scrapes``
    counts the scrapes that had counted a query at all.
    """
    metrics = result.metrics
    with load.paused():
        for _ in range(2 * workers):
            status, _, body = _request(address, "/metrics?format=json")
            assert status == 200, f"/metrics answered {status}"
            counters = body["counters"]
            queries = counters.get("serve.queries", 0)
            answered = counters.get("serve.cache_hits", 0) + counters.get(
                "serve.cache_misses", 0
            )
            timed = body["histograms"].get("serve.query_seconds", {})
            if queries:
                metrics["accounting_scrapes"] += 1
            if queries != answered or queries != timed.get("count", 0):
                metrics["accounting_mismatches"] += 1


def _serves(checksum: str):
    """Predicate: a healthy worker serving the artifact ``checksum``."""
    return lambda body: (
        body.get("status") == "ok"
        and body.get("artifact", {}).get("checksum") == checksum
    )


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


def run(
    config: ServeChaosConfig = ServeChaosConfig(), scratch: Path | None = None
) -> ExperimentResult:
    """Run the full serve-resilience campaign; raises AssertionError the
    moment the availability contract is violated."""
    import tempfile

    if scratch is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run(config, Path(tmp))
    result = ExperimentResult(
        experiment_id="SERVE-RESILIENCE",
        title="Serve-path chaos: reloads, worker kills, overload, drain",
        headers=["phase", "requests", "failures", "outcome"],
    )
    artifact = scratch / "chaos.artifact"
    checksums = {1: _build_artifact(artifact, 1)}

    process = _spawn_server(
        artifact,
        ["--workers", str(config.workers),
         "--request-timeout", str(REQUEST_TIMEOUT)],
    )
    try:
        address = _read_banner(process)
        # The banner is the first worker's; a reload signalled before the
        # last one is up is owed to it and taken whenever it gets there.
        _await_fleet(address, config.workers, _serves(checksums[1]),
                     BOOT_TIMEOUT, "reported healthy")
        load = _LoadGenerator(address, REQUEST_TIMEOUT).start()
        result.metrics["accounting_scrapes"] = 0
        result.metrics["accounting_mismatches"] = 0

        _phase_hot_reload(config, result, process, address, load,
                          artifact, checksums)
        _phase_corrupted_reload(config, result, process, address, load,
                                artifact, checksums)
        _phase_worker_kill(config, result, address, load)
        _phase_slow_client(result, address)

        outcomes = load.stop()
        result.metrics["sustained_requests"] = len(outcomes)
        _phase_drain(result, process)
    finally:
        _kill_tree(process)

    _phase_overload(result, artifact)
    result.note(
        f"{config.workers} SO_REUSEPORT workers under the serve "
        "supervisor; all faults injected over real sockets and signals"
    )
    result.note(
        "availability contract: reload_dropped_requests == 0, killed "
        f"worker replaced < {KILL_RECOVERY_BOUND}s, overload sheds "
        "503 + Retry-After with admitted p99 inside the deadline"
    )
    return result


def _failures(outcomes: list[tuple[int | None, float]]) -> int:
    return sum(1 for status, _ in outcomes if status != 200)


def _phase_hot_reload(
    config, result, process, address, load, artifact, checksums
) -> None:
    """Recompile under load, SIGHUP, observe the new checksum, drop zero."""
    mark = load.mark()
    checksums[2] = _build_artifact(artifact, 2)
    process.send_signal(signal.SIGHUP)
    # Every worker got the SIGHUP; the next phase corrupts the file, so
    # every one of them must have taken this reload first.
    _await_fleet(address, config.workers, _serves(checksums[2]),
                 RELOAD_TIMEOUT, "converged on the reloaded artifact")
    outcomes = load.since(mark)
    dropped = _failures(outcomes)
    assert dropped == 0, (
        f"hot reload dropped {dropped} of {len(outcomes)} in-flight "
        f"requests: {[s for s, _ in outcomes if s != 200][:5]}"
    )
    result.add_row("hot-reload", len(outcomes), dropped,
                   f"swapped to {checksums[2][:12]}")
    _check_accounting(result, address, config.workers, load)
    result.metrics["reload_dropped_requests"] = dropped
    result.metrics["reload_requests"] = len(outcomes)


def _phase_corrupted_reload(
    config, result, process, address, load, artifact, checksums
) -> None:
    """Corrupt the artifact, SIGHUP: old answers keep flowing, degraded
    is surfaced, and a subsequent good artifact recovers."""
    mark = load.mark()
    corrupt_artifact_payload(artifact, seed=config.seed)
    process.send_signal(signal.SIGHUP)
    # Every worker, not the first to say so: each of them must refuse the
    # file and keep what it served.
    degraded = _await_fleet(
        address,
        config.workers,
        lambda b: b.get("status") == "degraded"
        and b.get("reload", {}).get("failures", 0) >= 1,
        RELOAD_TIMEOUT,
        "surfaced the corrupted reload as degraded",
    )
    for body in degraded.values():
        assert body["artifact"]["checksum"] == checksums[2], \
            "degraded server is not serving the previous artifact"
        assert body["reload"]["last_error"], \
            "degraded health report carries no reload error"
    status, _, _ = _request(address, QUERY)
    assert status == 200, "degraded server stopped answering queries"
    # Recovery: a good artifact v3 clears the degraded flag.
    checksums[3] = _build_artifact(artifact, 3)
    process.send_signal(signal.SIGHUP)
    _await_fleet(address, config.workers, _serves(checksums[3]),
                 RELOAD_TIMEOUT, "recovered from the corrupted reload")
    outcomes = load.since(mark)
    dropped = _failures(outcomes)
    assert dropped == 0, (
        f"corrupted reload dropped {dropped} of {len(outcomes)} requests"
    )
    result.add_row("corrupted-reload", len(outcomes), dropped,
                   "degraded surfaced, old artifact kept serving")
    _check_accounting(result, address, config.workers, load)
    result.metrics["degraded_observed"] = 1
    result.metrics["corrupt_reload_dropped_requests"] = dropped


def _phase_worker_kill(config, result, address, load) -> None:
    """kill -9 one worker; the supervisor must replace it in bound."""
    pids = set(_await_fleet(
        address, config.workers, lambda body: True, 10.0, "answered /healthz"
    ))
    victim = sorted(pids)[0]
    mark = load.mark()
    killed_at = time.monotonic()
    os.kill(victim, signal.SIGKILL)
    replacement: dict | None = None
    successes_during = 0
    recovery_deadline = killed_at + KILL_RECOVERY_BOUND
    while time.monotonic() < recovery_deadline:
        status, _, body = _request(address, "/healthz")
        if status is not None:
            successes_during += 1
            if body.get("pid") not in pids:
                replacement = body
                break
        time.sleep(0.02)
    recovery = time.monotonic() - killed_at
    assert replacement is not None, (
        f"killed worker (pid {victim}) was not replaced within "
        f"{KILL_RECOVERY_BOUND}s"
    )
    assert successes_during > 0, \
        "no successful responses while the killed worker was down"
    outcomes = load.since(mark)
    survivors = sum(1 for s, _ in outcomes if s == 200)
    assert survivors > 0, \
        "sustained load saw zero successes across the worker kill"
    result.add_row(
        "worker-kill", len(outcomes), _failures(outcomes),
        f"pid {victim} replaced by {replacement['pid']} in {recovery:.2f}s",
    )
    result.metrics["kill_recovery_seconds"] = recovery
    result.metrics["kill_window_successes"] = survivors
    result.metrics["kill_window_failures"] = _failures(outcomes)


def _phase_slow_client(result, address) -> None:
    """A half-sent request squats a connection; service is unaffected."""
    host, port = address.rsplit(":", 1)
    stalled = socket.create_connection((host, int(port)), timeout=10)
    try:
        stalled.sendall(b"GET " + QUERY.encode("ascii") + b" HTTP/1.1\r\n")
        probes, failures = 0, 0
        deadline = time.monotonic() + SLOW_CLIENT_HOLD
        while time.monotonic() < deadline:
            status, _, _ = _request(address, QUERY)
            probes += 1
            if status != 200:
                failures += 1
            time.sleep(0.02)
    finally:
        stalled.close()
    assert failures == 0, (
        f"slow client stalled the server: {failures}/{probes} probes failed"
    )
    result.add_row("slow-client", probes, failures,
                   f"stalled socket held {SLOW_CLIENT_HOLD}s, "
                   "service unaffected")
    result.metrics["slow_client_failures"] = failures


def _phase_drain(result, process) -> None:
    process.send_signal(signal.SIGTERM)
    code = process.wait(timeout=DRAIN_TIMEOUT)
    assert code == 0, f"supervisor drained with exit code {code}, wanted 0"
    result.add_row("drain", "-", 0, "SIGTERM -> exit 0")
    result.metrics["drain_exit_code"] = code


def _phase_overload(result, artifact) -> None:
    """A burst beyond max-inflight sheds 503 + Retry-After; admitted
    requests stay inside the deadline (a single worker, deterministic)."""
    process = _spawn_server(
        artifact,
        ["--max-inflight", str(OVERLOAD_MAX_INFLIGHT),
         "--deadline", str(OVERLOAD_DEADLINE),
         "--chaos-delay-ms", str(OVERLOAD_DELAY_MS)],
    )
    try:
        address = _read_banner(process)
        outcomes: list[tuple[int | None, dict, float]] = []
        lock = threading.Lock()
        gate = threading.Barrier(OVERLOAD_CLIENTS)

        def client() -> None:
            gate.wait()
            started = time.perf_counter()
            status, headers, _ = _request(address, QUERY, timeout=30.0)
            with lock:
                outcomes.append(
                    (status, headers, time.perf_counter() - started)
                )

        threads = [
            threading.Thread(target=client)
            for _ in range(OVERLOAD_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # The ops plane must answer *during* overload too; re-burst while
        # probing /healthz.
        status, _, _ = _request(address, "/healthz")
        assert status in (200, 503), "healthz unreachable under overload"
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        _kill_tree(process)

    admitted = [(s, h, t) for s, h, t in outcomes if s == 200]
    shed = [(s, h, t) for s, h, t in outcomes if s == 503]
    dropped = [o for o in outcomes if o[0] is None]
    assert not dropped, f"overload dropped {len(dropped)} connections"
    assert shed, (
        f"{OVERLOAD_CLIENTS} concurrent clients against "
        f"max-inflight {OVERLOAD_MAX_INFLIGHT} shed nothing"
    )
    assert admitted, "overload shed every request; none admitted"
    missing_retry = [h for _, h, _ in shed if "Retry-After" not in h]
    assert not missing_retry, \
        f"{len(missing_retry)} shed responses lack Retry-After"
    latencies = sorted(t for _, _, t in admitted)
    p99 = latencies[min(len(latencies) - 1,
                        max(0, round(0.99 * len(latencies)) - 1))]
    assert p99 <= OVERLOAD_DEADLINE, (
        f"admitted p99 {p99:.3f}s blew the {OVERLOAD_DEADLINE}s "
        "deadline"
    )
    result.add_row(
        "overload", len(outcomes), len(shed),
        f"{len(shed)} shed with Retry-After, admitted p99 {p99 * 1e3:.0f}ms",
    )
    result.metrics["overload_shed"] = len(shed)
    result.metrics["overload_admitted"] = len(admitted)
    result.metrics["overload_shed_rate"] = len(shed) / len(outcomes)
    result.metrics["overload_admitted_p99_seconds"] = p99
