"""Supervised multi-worker serving over ``SO_REUSEPORT``.

``repro serve --workers N`` must survive what a single process cannot:
a ``kill -9``, a segfault, an OOM kill.  The supervisor owns no sockets
that serve traffic — it reserves the port, forks N worker processes that
each bind it with ``SO_REUSEPORT`` (the kernel load-balances accepts
between them), and then does nothing but watch:

* **Port reservation** — a placeholder socket is bound (never listened)
  with ``SO_REUSEPORT`` before the first fork, so ``--port 0`` resolves
  to one concrete port that every worker (including restarts, minutes
  later) can still bind.  Only listening sockets receive connections,
  so the placeholder steals no traffic.
* **Liveness** — workers heartbeat over a pipe (reusing the PR-4 worker
  protocol's ``MSG_READY``/``MSG_HEARTBEAT``); a dead process or a
  silent one past the grace period is killed and replaced while its
  siblings keep answering.  The spawn / pump / sweep / kill mechanics
  are the simulation pool's own
  :class:`~repro.parallel.supervisor.WorkerSlots`, accounted through the
  shared :class:`~repro.parallel.supervisor.SupervisionLedger`
  (``serve.workers_spawned`` / ``serve.worker_deaths`` /
  ``serve.worker_restarts``).
* **Boot-loop protection** — a worker that keeps dying before it ever
  reports ready (bad artifact, port stolen) stops the whole supervisor
  after ``_MAX_BOOT_FAILURES`` consecutive failures instead of forking
  forever.
* **Signal fan-out** — SIGTERM/SIGINT drain every worker gracefully
  (each worker runs the full single-process drain contract) and the
  supervisor exits 0; SIGHUP is forwarded so one signal hot-swaps the
  artifact in every worker.  A worker that has not reported ready is
  *owed* the signal and gets it on ``MSG_READY``: until ``run_server``
  installs the worker's own handler a forked worker still runs the one
  it inherited from this process, which would swallow the reload.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArtifactError
from repro.obs.metrics import get_registry
from repro.parallel.protocol import MSG_ERROR, MSG_HEARTBEAT, MSG_READY
from repro.parallel.supervisor import SupervisionLedger, Worker, WorkerSlots
from repro.runstate import drain_signals
from repro.serve.admission import AdmissionController
from repro.serve.artifact import PredictionArtifact
from repro.serve.engine import DEFAULT_CACHE_SIZE, QueryEngine
from repro.serve.http import DEFAULT_REQUEST_TIMEOUT, run_server

logger = logging.getLogger(__name__)

_TICK_SECONDS = 0.1
"""Upper bound on how long the watch loop blocks waiting for messages."""

BOOT_FAILURE_EXIT = 1
"""Supervisor exit code when workers cannot boot at all."""

_HEARTBEAT_SECONDS = 0.5
"""How often a serve worker tells the supervisor it is alive."""

_HEARTBEAT_GRACE = 10.0
"""Seconds of silence after which a worker is killed and replaced."""

_DRAIN_GRACE = 10.0
"""Seconds the workers get to drain on shutdown before they are killed."""

_MAX_BOOT_FAILURES = 3
"""Consecutive workers dying before ready that stop the supervisor."""

_RESTART_BACKOFF = 0.05
"""Seconds slept per consecutive boot failure before the next restart."""


@dataclass(frozen=True)
class ServeOptions:
    """How one serving process is built from an artifact file.

    The one spelling of ``repro serve``'s knobs and their defaults: the
    command's flags default to these fields, and the in-process server and
    every supervised worker are built by the two methods below.
    """

    cache_size: int = DEFAULT_CACHE_SIZE
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    max_inflight: int = 64
    """Concurrent requests before load-shedding; 0 disables admission control."""
    deadline_seconds: float = 5.0
    watch_interval: float | None = None
    handler_delay: float = 0.0

    def load_engine(self, artifact_path: str | Path) -> QueryEngine:
        """Load and validate the artifact (raises ``ArtifactError``)."""
        return QueryEngine(
            PredictionArtifact.load(artifact_path), cache_size=self.cache_size
        )

    def serve(
        self, engine: QueryEngine, artifact_path: str | Path, host: str, port: int,
        **server_kwargs,
    ) -> int:
        """Serve ``engine`` in this process until drained (``run_server``)."""
        admission = None
        if self.max_inflight > 0:
            admission = AdmissionController(
                max_inflight=self.max_inflight,
                deadline_seconds=self.deadline_seconds,
            )
        return run_server(
            engine,
            host=host,
            port=port,
            request_timeout=self.request_timeout,
            artifact_path=artifact_path,
            cache_size=self.cache_size,
            admission=admission,
            watch_interval=self.watch_interval,
            handler_delay=self.handler_delay,
            **server_kwargs,
        )


@dataclass
class _ServeWorker(Worker):
    """One serve worker: the slot record plus whether it ever booted."""

    ready: bool = False
    owed_hup: bool = False
    """A SIGHUP arrived while the worker booted; forward it once ready."""


def _serve_worker_main(
    conn, artifact_path: str, host: str, port: int, options: ServeOptions
) -> None:
    """Entry point of one serve worker process.

    Loads its own copy of the artifact (workers share nothing but the
    port), reports readiness + heartbeats over ``conn``, and runs the
    full single-process serve loop — including its own SIGTERM drain
    contract and its own reload coordinator, so a forwarded SIGHUP
    hot-swaps this worker independently of its siblings.
    """
    get_registry().reset()
    try:
        engine = options.load_engine(artifact_path)
    except (ArtifactError, ValueError) as error:
        try:
            conn.send((MSG_ERROR, 0, f"worker boot failed: {error}"))
        except (BrokenPipeError, OSError):
            pass
        os._exit(BOOT_FAILURE_EXIT)
        return  # pragma: no cover - unreachable

    stop_beats = threading.Event()

    def beat() -> None:
        while not stop_beats.wait(_HEARTBEAT_SECONDS):
            try:
                conn.send((MSG_HEARTBEAT,))
            except (BrokenPipeError, OSError):
                return  # supervisor is gone; SIGTERM will follow

    def announce_ready(server) -> None:
        try:
            conn.send((MSG_READY, os.getpid(), server.address))
        except (BrokenPipeError, OSError):
            pass
        threading.Thread(
            target=beat, name="serve-heartbeat", daemon=True
        ).start()

    code = options.serve(
        engine, artifact_path, host, port,
        reuse_port=True, announce=False, on_ready=announce_ready,
    )
    stop_beats.set()
    os._exit(code)


class ServeSupervisor:
    """Forks, watches, and replaces N ``SO_REUSEPORT`` serve workers."""

    def __init__(
        self,
        artifact_path: str | Path,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        options: ServeOptions | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError(
                f"ServeSupervisor needs workers >= 2, got {workers}; "
                "use run_server for a single process"
            )
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError(
                "SO_REUSEPORT is not available on this platform; "
                "run without --workers"
            )
        self.artifact_path = str(artifact_path)
        self.host = host
        self.requested_port = port
        self.options = options or ServeOptions()
        self._ledger = SupervisionLedger("serve", workers)
        self._slots = WorkerSlots(
            self._ledger,
            _serve_worker_main,
            lambda conn: (
                conn, self.artifact_path, self.host, self.port, self.options
            ),
            "repro-serve-worker",
            _HEARTBEAT_GRACE,
            self._handle_message,
            self._replace,
            record=_ServeWorker,
        )
        self._drain = drain_signals(on_hup=self._note_hup)
        self._boot_failures = 0
        self._hup_pending = False
        self._announced = False
        self._placeholder: socket.socket | None = None
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def summary(self) -> dict:
        """Supervision counts for reports and the chaos harness."""
        return {
            **self._ledger.summary(),
            "boot_failures": self._boot_failures,
            "drained": self._drain.signum is not None,
        }

    def run(self) -> int:
        """Serve until SIGINT/SIGTERM; returns 0 on a clean drain."""
        self._reserve_port()
        try:
            with self._drain:
                self._slots.spawn_all()
                while self._drain.signum is None:
                    if self._hup_pending:
                        self._hup_pending = False
                        self._forward_hup()
                    self._slots.pump(_TICK_SECONDS)
                    if self._boot_failures >= _MAX_BOOT_FAILURES:
                        logger.error(
                            "giving up after %d consecutive worker boot "
                            "failures; check the artifact and port",
                            self._boot_failures,
                        )
                        return BOOT_FAILURE_EXIT
                    self._slots.sweep()
        finally:
            # Drain every worker, bounded by ``_DRAIN_GRACE``, then kill.
            self._slots.stop(
                lambda worker: self._signal(worker, signal.SIGTERM),
                _DRAIN_GRACE,
            )
            if self._placeholder is not None:
                self._placeholder.close()
                self._placeholder = None
        summary = self.summary()
        print(
            f"drained on signal {self._drain.signum}: supervised "
            f"{summary['workers']} worker(s), {summary['restarts']} "
            "restart(s), shut down cleanly",
            flush=True,
        )
        return 0

    # ------------------------------------------------------------------
    # Port and process lifecycle
    # ------------------------------------------------------------------

    def _reserve_port(self) -> None:
        """Bind (never listen) the serving port so it survives restarts.

        Only listening sockets receive connections, so this placeholder
        pins ``--port 0``'s kernel-chosen port for the supervisor's
        whole lifetime without stealing a single accept.
        """
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            placeholder.bind((self.host, self.requested_port))
        except OSError:
            placeholder.close()
            raise
        self._placeholder = placeholder
        self.port = placeholder.getsockname()[1]

    def _replace(self, worker: _ServeWorker, reason: str) -> None:
        """Account one loss and restart the slot (unless stopping)."""
        self._ledger.record_death(
            worker.index, worker.pid, worker.generation, reason
        )
        if not worker.ready:
            self._boot_failures += 1
        else:
            self._boot_failures = 0
        self._slots.discard(worker)
        if self._drain.signum is not None:
            return
        if self._boot_failures >= _MAX_BOOT_FAILURES:
            return  # the run loop turns this into BOOT_FAILURE_EXIT
        if self._boot_failures:
            time.sleep(_RESTART_BACKOFF * self._boot_failures)
        self._slots.spawn(worker.index)

    def _handle_message(self, worker: _ServeWorker, message: tuple) -> None:
        kind = message[0]
        if kind == MSG_READY:
            worker.ready = True
            self._boot_failures = 0
            if worker.owed_hup:
                worker.owed_hup = False
                self._signal(worker, signal.SIGHUP)
            logger.info(
                "serve worker %d (pid %s) ready on %s",
                worker.index, message[1], message[2],
            )
            if not self._announced:
                self._announced = True
                print(
                    f"serving predictions on http://{self.address}",
                    flush=True,
                )
        elif kind == MSG_ERROR:
            logger.error(
                "serve worker %d (pid %s): %s",
                worker.index, worker.pid, message[2],
            )

    def _note_hup(self) -> None:
        self._hup_pending = True

    def _forward_hup(self) -> None:
        """Reload every worker: the ready ones now, the others once ready."""
        for worker in self._slots.live():
            if worker.ready:
                self._signal(worker, signal.SIGHUP)
            else:
                worker.owed_hup = True

    @staticmethod
    def _signal(worker: _ServeWorker, signum: int) -> None:
        if worker.process.is_alive():
            try:
                os.kill(worker.pid, signum)
            except (ProcessLookupError, OSError):
                pass

