"""The worker process entrypoint of the supervised pool.

A worker unpickles its own private copy of the network once at startup,
then loops: receive a task — an object with a ``key`` and a
``run(network, context, config, max_messages)`` method — run it on the
private copy inside :meth:`WorkingCopy.perturbed`, and send back what it
returned with a raw metrics dump.  Whatever the task did to the copy —
topology edits, routing state — is undone exactly on the way out
(:meth:`repro.bgp.network.Network.perturbation`), and the copy is
unpickled again only after a task raises: the blob crossed the process
boundary anyway, so a worker trusts nothing a failed task handed back.
The shared ``context`` (e.g. a campaign's baseline paths) is unpickled
once at startup and treated as read-only; when it names prefixes as
``converged_ahead`` the copy holds them converged for the tasks to resume
from (:func:`converge_ahead`, which the sequential campaign runs on the
model's own network instead — nothing in one process needs a copy).

A daemon thread heartbeats over the same connection while the main thread
simulates — from before the copy is made, so converging ahead at startup
counts as busy too — and the supervisor can tell a *busy* worker from a
*wedged* one.  All sends share one lock (``multiprocessing`` connections
are not thread-safe).  The supervisor dispatches without waiting for
``MSG_READY``, so the first task's ``task_timeout`` covers the startup as
well.

Workers deliberately run with a :class:`~repro.obs.trace.NullTracer` and
a private metrics registry: engine metrics travel home inside each
result (those of the startup inside ``MSG_READY``), and only the
supervisor emits trace events (the supervision
events of the run).  Unexpected task exceptions are reported as
``MSG_ERROR`` and the worker keeps serving; anything that kills the
process outright (segfault, OOM, ``os._exit``) is the supervisor's
problem, by design.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import bounded_message_budget, simulate
from repro.bgp.network import Network
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import set_tracer
from repro.parallel.protocol import (
    CRASH_EXIT_CODE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    WorkerFaults,
)

HEARTBEAT_INTERVAL = 0.2
"""Seconds between a worker's heartbeats while its main thread simulates."""


def converge_ahead(
    network: Network,
    prefixes: Iterable[Prefix],
    config: DecisionConfig,
    max_messages: int | None,
) -> None:
    """Leave ``network`` holding routing state for ``prefixes`` alone.

    What a lender does before the first borrower.  State the network came
    with is not trusted as converged, and every scenario that cleared it
    would set it aside and put it back: it goes.  Each prefix is then
    simulated once, quarantining, counted under ``engine.converged_ahead``.
    """
    network.clear_routing()
    budget = bounded_message_budget(network, max_messages)
    for prefix in prefixes:
        simulate(network, (prefix,), config, budget, on_divergence="quarantine")
        get_registry().counter("engine.converged_ahead").inc()


class WorkingCopy:
    """A pool worker's private network, which tasks perturb and hand back.

    The pickled blob is kept as the recovery value: the copy a task
    raised on is dropped, undone or not, and the next task unpickles a
    new one — the blob is in the worker's memory either way.

    The copy holds routing state for the ``converged`` prefixes only
    (:func:`converge_ahead`) — state every borrower gets back intact and
    that a recovered copy is given again.  Whether a borrower resumes
    from it (:func:`repro.bgp.engine.resume_prefix`) is the borrower's
    business: the campaign's scenarios do so for the prefixes their
    context names, which are these.
    """

    def __init__(
        self,
        blob: bytes,
        converged: Iterable[Prefix] = (),
        config: DecisionConfig = DecisionConfig(),
        max_messages: int | None = None,
    ):
        self._blob = blob
        self._converged = tuple(converged)
        self._config = config
        self._max_messages = max_messages
        self._network: Network | None = None

    def network(self) -> Network:
        """The working copy, made on first use or after a failure."""
        if self._network is None:
            self._network = pickle.loads(self._blob)
            converge_ahead(
                self._network, self._converged, self._config, self._max_messages
            )
        return self._network

    @contextmanager
    def perturbed(self) -> Iterator[Network]:
        """Lend the copy for one task; every edit is undone on exit.

        On a normal exit the topology is exactly as unpickled and the
        routing state exactly the converged prefixes'
        (:meth:`Network.perturbation`).
        """
        network = self.network()
        self._network = None  # nothing to reuse if the body raises
        with network.perturbation():
            yield network
        self._network = network


def worker_main(
    conn,
    network_blob: bytes,
    decision_config,
    max_messages: int | None,
    faults: WorkerFaults | None,
    context_blob: bytes | None = None,
) -> None:
    """Run the worker loop on ``conn`` until shutdown or EOF."""
    # The supervisor coordinates interruption: a terminal Ctrl-C reaches
    # the whole process group, and a worker that died to SIGINT would
    # turn every graceful drain into a spray of crash events.  SIGTERM
    # keeps its default handler so the supervisor's kill always works.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    set_tracer(None)
    set_registry(MetricsRegistry())

    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message: tuple) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False

    def heartbeat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            if not send((MSG_HEARTBEAT, os.getpid())):
                return

    # Beating before the copy is made: converging ahead can outlast the
    # supervisor's heartbeat grace, and a silent worker is a killed one.
    beater = threading.Thread(target=heartbeat, daemon=True)
    beater.start()

    context = pickle.loads(context_blob) if context_blob is not None else None
    copy = WorkingCopy(
        network_blob,
        getattr(context, "converged_ahead", ()),
        decision_config,
        max_messages,
    )
    copy.network()  # pay the unpickle and the convergence before reporting ready
    # No task's metrics hold the work done so far; it goes home with the READY.
    send((MSG_READY, os.getpid(), get_registry().dump_raw()))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == MSG_SHUTDOWN:
                break
            if message[0] != MSG_TASK:  # pragma: no cover - protocol guard
                continue
            _, task_id, task = message
            _inject_faults(task.key, faults)
            registry = MetricsRegistry()
            set_registry(registry)
            try:
                with copy.perturbed() as scratch:
                    value = task.run(
                        scratch, context, decision_config, max_messages
                    )
            except BaseException as error:  # noqa: BLE001 - reported, not hidden
                if not send((MSG_ERROR, task_id, repr(error))):
                    break
                continue
            if not send((MSG_RESULT, task_id, value, registry.dump_raw())):
                break
    finally:
        stop.set()
        conn.close()


def _inject_faults(name: str, faults: WorkerFaults | None) -> None:
    """Apply configured crash/hang sabotage for task ``name`` (chaos/tests)."""
    if not faults:
        return
    if name in faults.crash_prefixes:
        # Mimic a segfault/OOM kill: vanish without a goodbye message.
        os._exit(CRASH_EXIT_CODE)
    if name in faults.hang_prefixes:
        time.sleep(faults.hang_seconds)
