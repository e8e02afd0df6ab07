"""Hot-swap artifact reloads: stage off-thread, validate, swap atomically.

The serving split compiles artifacts out of band (``repro
compile-artifact``) and serves them forever — but "forever" must survive
the *next* compilation.  This module lets a running server pick up a
recompiled artifact with zero dropped requests:

``EngineRef``
    An RCU-style mutable reference to the live
    :class:`~repro.serve.engine.QueryEngine`.  Handler threads read the
    reference once per request and keep answering from that engine even
    if a swap happens mid-request; the swap itself is a single
    lock-guarded pointer write, so readers never block on a reload and a
    reload never waits for readers.

``ReloadCoordinator``
    The only writer of the reference.  A reload stages the candidate
    artifact completely off the request path — read, checksum, schema
    check, payload decode, engine construction — and only then swaps.
    Every validation failure leaves the old engine serving and marks the
    server **degraded**: ``/healthz`` keeps answering with the old
    artifact's checksum, the last reload error, and the staleness age so
    operators (and load balancers) can tell "serving but stale" from
    "healthy".

``ArtifactWatcher``
    A polling thread that triggers the coordinator when the artifact
    file on disk changes (new mtime/size signature).  Each distinct
    signature is attempted exactly once — a corrupt artifact does not
    spin the reload loop; the next *write* of the file does.  A tick the
    coordinator answers ``busy`` is not an attempt: it is retried.

Reload triggers — SIGHUP, ``POST /-/reload``, and the watcher — all
funnel into :meth:`ReloadCoordinator.reload`, which serialises them with
a non-blocking lock: concurrent triggers get a ``busy`` outcome instead
of queueing redundant reloads (HTTP 409 to a ``POST``; the watcher keeps
the trigger and retries on its next tick, so no write of the file goes
unserved).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ArtifactError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.serve.artifact import PredictionArtifact
from repro.serve.engine import QueryEngine

logger = logging.getLogger(__name__)

EVENT_SERVE_RELOAD = "serve-reload"
"""A reload attempt finished (fields: outcome, checksum/error)."""


@dataclass
class ReloadState:
    """What the last reload attempts did, for ``/healthz``.

    ``degraded`` means the most recent attempt failed and the server is
    still answering from the previous artifact; ``loaded_wall`` is the
    wall-clock time the *serving* artifact was loaded, so staleness age
    keeps growing while degraded.
    """

    generation: int = 0
    checksum: str = ""
    source: str = ""
    degraded: bool = False
    last_error: str = ""
    loaded_wall: float = field(default_factory=time.time)
    attempts: int = 0
    failures: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable summary (staleness computed at call time)."""
        return {
            "generation": self.generation,
            "checksum": self.checksum,
            "degraded": self.degraded,
            "last_error": self.last_error,
            "staleness_seconds": round(time.time() - self.loaded_wall, 3),
            "attempts": self.attempts,
            "failures": self.failures,
        }


class EngineRef:
    """Atomic reference to the live query engine (RCU-style).

    Readers call :meth:`get` once per request and use that engine for
    the whole request; the old engine stays fully functional after a
    swap (it owns its artifact and cache), so in-flight requests finish
    on it and it is garbage-collected once the last one returns.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self._engine = engine
        self._lock = threading.Lock()

    def get(self) -> QueryEngine:
        """The engine new requests should answer from."""
        with self._lock:
            return self._engine

    def swap(self, engine: QueryEngine) -> QueryEngine:
        """Install ``engine``; returns the one it replaced."""
        with self._lock:
            old, self._engine = self._engine, engine
            return old


class ReloadCoordinator:
    """Serialises reload attempts and owns the only :meth:`EngineRef.swap`.

    ``on_swap`` (optional) is called with the new engine after a
    successful swap — the server uses it to refresh log lines, tests use
    it to observe swaps.
    """

    def __init__(
        self,
        ref: EngineRef,
        artifact_path: str | Path,
        cache_size: int = 4096,
        on_swap: Callable[[QueryEngine], None] | None = None,
    ) -> None:
        self.ref = ref
        self.artifact_path = Path(artifact_path)
        self.cache_size = cache_size
        self.on_swap = on_swap
        self._reload_lock = threading.Lock()
        self._state_lock = threading.Lock()
        initial = ref.get().artifact
        self.state = ReloadState(
            generation=1, checksum=initial.checksum, source=str(artifact_path)
        )
        registry = get_registry()
        self._reloads = registry.counter("serve.reloads")
        self._reload_failures = registry.counter("serve.reload_failures")
        self._reload_seconds = registry.histogram("serve.reload_seconds")

    def describe(self) -> dict:
        """Snapshot of the reload state for ``/healthz``."""
        with self._state_lock:
            return self.state.to_dict()

    @property
    def degraded(self) -> bool:
        with self._state_lock:
            return self.state.degraded

    def reload(self, reason: str = "request") -> dict:
        """Attempt one hot swap; never raises.

        Returns ``{"outcome": ...}`` with one of:

        ``reloaded``   new artifact validated and swapped in
        ``unchanged``  file re-read cleanly but carries the serving checksum
        ``failed``     validation failed; old engine still serving (degraded)
        ``busy``       another reload is in progress; nothing was done
        """
        if not self._reload_lock.acquire(blocking=False):
            return {"outcome": "busy", "reason": reason}
        started = time.perf_counter()
        try:
            with self._state_lock:
                self.state.attempts += 1
            # Stage entirely off the request path: any failure below this
            # point leaves the reference untouched.
            artifact = PredictionArtifact.load(self.artifact_path)
            with self._state_lock:
                unchanged = artifact.checksum == self.state.checksum
            if unchanged:
                with self._state_lock:
                    self.state.degraded = False
                    self.state.last_error = ""
                return {
                    "outcome": "unchanged",
                    "reason": reason,
                    "checksum": artifact.checksum,
                }
            engine = QueryEngine(artifact, cache_size=self.cache_size)
            self.ref.swap(engine)
            with self._state_lock:
                self.state.generation += 1
                self.state.checksum = artifact.checksum
                self.state.degraded = False
                self.state.last_error = ""
                self.state.loaded_wall = time.time()
                generation = self.state.generation
            self._reloads.inc()
            get_tracer().event(
                EVENT_SERVE_RELOAD,
                outcome="reloaded",
                reason=reason,
                checksum=artifact.checksum,
            )
            logger.info(
                "hot-swapped artifact %s (generation %d, checksum %s..., "
                "%d pairs) via %s",
                self.artifact_path, generation, artifact.checksum[:12],
                artifact.pair_count, reason,
            )
            if self.on_swap is not None:
                self.on_swap(engine)
            return {
                "outcome": "reloaded",
                "reason": reason,
                "generation": generation,
                "checksum": artifact.checksum,
            }
        except ArtifactError as error:
            with self._state_lock:
                self.state.degraded = True
                self.state.last_error = str(error)
                self.state.failures += 1
            self._reload_failures.inc()
            get_tracer().event(
                EVENT_SERVE_RELOAD,
                outcome="failed",
                reason=reason,
                error=str(error),
            )
            logger.warning(
                "reload of %s failed (%s); still serving the previous "
                "artifact in degraded mode", self.artifact_path, error,
            )
            return {"outcome": "failed", "reason": reason, "error": str(error)}
        finally:
            self._reload_seconds.observe(time.perf_counter() - started)
            self._reload_lock.release()


class ArtifactWatcher:
    """Polls the artifact file and reloads when its signature changes.

    The signature is ``(mtime_ns, size)`` — atomic ``os.replace`` writes
    (the only way artifacts are produced) always change it.  A signature
    is attempted at most once, so a corrupted write degrades the server
    exactly once instead of hammering the reload path every tick; a
    ``busy`` answer is no attempt.
    """

    def __init__(
        self,
        coordinator: ReloadCoordinator,
        interval: float = 2.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"watch interval must be positive, got {interval}")
        self.coordinator = coordinator
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._attempted = self._signature()

    def _signature(self) -> tuple[int, int] | None:
        try:
            stat = self.coordinator.artifact_path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def poll_once(self) -> dict | None:
        """One watch tick; returns the reload result if one was triggered."""
        signature = self._signature()
        if signature is None or signature == self._attempted:
            return None
        result = self.coordinator.reload(reason="watcher")
        # A reload that overlapped another did nothing, and the one it
        # overlapped may have read the file before this write: the
        # signature stays unattempted and the next tick tries again.
        if result["outcome"] != "busy":
            self._attempted = signature
        return result

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="artifact-watcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
