"""The supervised process pool.

:class:`SupervisedPool` runs tasks — picklable objects with a ``key`` and
a ``run(network, context, config, max_messages)`` method
(:mod:`repro.parallel.protocol`) — and owns the complete worker lifecycle
so that parallelism never makes the run more fragile than the sequential
path:

* **Crash isolation** — each worker runs tasks on its own unpickled copy
  of the network; a segfault, OOM kill or unexpected exception costs the
  supervisor one worker and (at worst) one task, never the run.
* **Watchdogs** — every dispatched task has a wall-clock deadline
  (``task_timeout``), and every worker heartbeats from a side thread;
  missing either gets the worker killed and replaced.
* **Poison detection** — a failed task is resubmitted to a fresh worker
  at most ``max_resubmits`` times, then reported as a ``poison``
  (crashes) or ``timeout`` (watchdog expiries)
  :class:`~repro.parallel.protocol.TaskFailure` for its submitter to
  quarantine.
* **Deterministic fold** — values are handed back, and the tasks'
  metrics dumps folded into the parent registry, in the order the tasks
  were submitted, whatever order they completed in.
* **Graceful shutdown** — SIGINT/SIGTERM stops dispatching, gives
  in-flight tasks a bounded grace period, folds what completed, and
  raises :class:`~repro.errors.ShutdownRequested` carrying the partial
  results so callers can checkpoint before exiting.

Every supervision event (spawn, death, restart, timeout, resubmit,
poison classification, drain) emits through the tracer and the metrics
registry.  The pool has two clients: campaign scenarios
(:mod:`repro.campaign.engine`) and the per-prefix fan-out of
:func:`repro.core.model.simulate_pooled`.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable

from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import POISON, TIMEOUT
from repro.bgp.network import Network
from repro.errors import ShutdownRequested
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    EVENT_DRAIN,
    EVENT_POISON_PREFIX,
    EVENT_TASK_RESUBMIT,
    EVENT_TASK_TIMEOUT,
    EVENT_WORKER_DEATH,
    EVENT_WORKER_SPAWN,
    get_tracer,
)
from repro.parallel.protocol import (
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    ParallelConfig,
    TaskFailure,
    WorkerFaults,
    dump_network,
)
from repro.parallel.worker import worker_main
from repro.runstate import drain_signals

logger = logging.getLogger(__name__)

FAIL_CRASH = "crash"
FAIL_TIMEOUT = "timeout"
FAIL_STALLED = "stalled"
FAIL_ERROR = "error"

_TICK_SECONDS = 0.05
"""Upper bound on how long the event loop blocks waiting for messages."""

HEARTBEAT_GRACE = 15.0
"""A pool worker silent this long (it beats every
:data:`~repro.parallel.worker.HEARTBEAT_INTERVAL`) is killed and replaced."""

DRAIN_GRACE = 5.0
"""How long a graceful shutdown waits for in-flight tasks before it kills
their workers."""


class SupervisionLedger:
    """Spawn/death/restart accounting shared by every supervisor.

    Both the simulation pool (this module) and the serve-worker
    supervisor (:mod:`repro.serve.supervisor`) restart dead processes;
    the ledger gives them one implementation of the bookkeeping —
    metric counters under ``{prefix}.workers_spawned`` /
    ``{prefix}.worker_restarts`` / ``{prefix}.worker_deaths``, tracer
    events, and the ``supervision`` summary dict health reports embed.
    """

    def __init__(self, prefix: str, workers: int) -> None:
        self.prefix = prefix
        self.workers = workers
        self.spawned = 0
        self.deaths = 0

    @property
    def restarts(self) -> int:
        return max(0, self.spawned - self.workers)

    def record_spawn(self, index: int, pid: int | None) -> tuple[int, bool]:
        """Account one (re)spawn; returns ``(generation, is_restart)``."""
        self.spawned += 1
        generation = self.spawned
        restart = generation > self.workers
        get_registry().counter(f"{self.prefix}.workers_spawned").inc()
        if restart:
            get_registry().counter(f"{self.prefix}.worker_restarts").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_WORKER_SPAWN,
                worker=index,
                pid=pid,
                generation=generation,
                restart=restart,
            )
        logger.debug(
            "%s %s worker %d (pid %s, generation %d)",
            "restarted" if restart else "spawned",
            self.prefix, index, pid, generation,
        )
        return generation, restart

    def record_death(
        self,
        index: int,
        pid: int | None,
        generation: int,
        reason: str,
        task: str | None = None,
    ) -> None:
        """Account one worker loss (crash, stall, or watchdog kill)."""
        self.deaths += 1
        get_registry().counter(f"{self.prefix}.worker_deaths").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_WORKER_DEATH,
                worker=index,
                pid=pid,
                generation=generation,
                reason=reason,
                task=task,
            )
        logger.warning(
            "%s worker %d (pid %s) lost: %s", self.prefix, index, pid, reason
        )

    def summary(self) -> dict:
        """The base supervision dict (callers may extend it)."""
        return {
            "workers": self.workers,
            "spawned": self.spawned,
            "deaths": self.deaths,
            "restarts": self.restarts,
        }


@dataclass
class Worker:
    """One supervised process, as the slot lifecycle sees it.

    Supervisors subclass this to hang their own per-worker state (the
    pool's in-flight task, the serve tier's ready flag) on the record.
    """

    index: int
    generation: int
    process: object
    conn: object
    pid: int
    last_beat: float


class WorkerSlots:
    """The process lifecycle of a fixed set of supervised worker slots.

    Owns what every supervisor does the same way: start a process on a
    pipe and account the spawn, pump whatever the workers sent (EOF on a
    pipe means the worker crashed), sweep for dead or silent workers,
    kill one outright, and stop them all within a grace period.  Policy
    stays with the owner: ``on_message(worker, message)`` interprets the
    protocol, ``on_lost(worker, reason)`` decides what a loss costs and
    whether the slot is respawned.
    """

    def __init__(
        self,
        ledger: SupervisionLedger,
        target: Callable[..., None],
        worker_args: Callable[[object], tuple],
        name: str,
        heartbeat_grace: float,
        on_message: Callable[[Worker, tuple], None],
        on_lost: Callable[[Worker, str], None],
        record: type[Worker] = Worker,
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.ledger = ledger
        self._target = target
        self._worker_args = worker_args
        self._name = name
        self._heartbeat_grace = heartbeat_grace
        self._on_message = on_message
        self._on_lost = on_lost
        self._record = record
        self._slots: list[Worker | None] = [None] * ledger.workers

    def live(self) -> list[Worker]:
        return [w for w in self._slots if w is not None]

    def spawn(self, index: int) -> None:
        """Start a process in slot ``index`` (initial spawn or restart)."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=self._target,
            args=self._worker_args(child_conn),
            name=f"{self._name}-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        generation, _ = self.ledger.record_spawn(index, process.pid)
        self._slots[index] = self._record(
            index=index,
            generation=generation,
            process=process,
            conn=parent_conn,
            pid=process.pid,
            last_beat=time.monotonic(),
        )

    def spawn_all(self) -> None:
        for index in range(len(self._slots)):
            self.spawn(index)

    def pump(self, tick: float) -> None:
        """Receive everything the workers sent, blocking at most ``tick``."""
        conns = {w.conn: w for w in self.live()}
        if not conns:
            time.sleep(tick)
            return
        for conn in mp_connection.wait(list(conns), timeout=tick):
            worker = conns[conn]
            # A slot an earlier message this sweep got replaced is skipped.
            while self._slots[worker.index] is worker:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_lost(worker, FAIL_CRASH)
                    break
                worker.last_beat = time.monotonic()
                self._on_message(worker, message)

    def sweep(self) -> None:
        """Report workers that died or went silent past the grace."""
        now = time.monotonic()
        for worker in self.live():
            if not worker.process.is_alive() and not worker.conn.poll():
                self._on_lost(worker, FAIL_CRASH)
            elif now - worker.last_beat > self._heartbeat_grace:
                self._on_lost(worker, FAIL_STALLED)

    def discard(self, worker: Worker) -> None:
        """Forcibly empty ``worker``'s slot (SIGKILL, no goodbye)."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(2.0)
        worker.conn.close()
        self._slots[worker.index] = None

    def stop(self, request: Callable[[Worker], None], grace: float) -> None:
        """Ask every worker to stop; kill whoever outlives ``grace``."""
        for worker in self.live():
            request(worker)
        deadline = time.monotonic() + grace
        for worker in self.live():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                logger.warning(
                    "%s worker %d (pid %s) ignored the stop request; killing",
                    self.ledger.prefix, worker.index, worker.pid,
                )
            self.discard(worker)


@dataclass
class _Task:
    """Supervisor-side bookkeeping for one task.

    ``key`` is the task's own: its identity in logs, trace events and
    fault injection.  Task ids count the tasks in the order they were
    submitted, which is the order they are dispatched and folded in.
    """

    task_id: int
    key: str
    payload: object
    failures: list[str] = field(default_factory=list)


@dataclass
class GenericRunStats:
    """What :meth:`SupervisedPool.run_tasks` hands back.

    ``results`` maps each completed task's key to the value its ``run``
    returned and ``failed`` each quarantined key to its
    :class:`~repro.parallel.protocol.TaskFailure`, both in submission
    order; ``supervision`` is the ledger summary health reports embed.
    """

    results: dict[str, object] = field(default_factory=dict)
    failed: dict[str, TaskFailure] = field(default_factory=dict)
    supervision: dict = field(default_factory=dict)


@dataclass
class _Worker(Worker):
    """One pool worker: the slot record plus its in-flight task."""

    task_id: int | None = None
    dispatched_at: float = 0.0


def _request_shutdown(worker: Worker) -> None:
    try:
        worker.conn.send((MSG_SHUTDOWN,))
    except (BrokenPipeError, OSError):
        pass


class SupervisedPool:
    """Crash-isolated worker pool over copies of one network.

    Use as a context manager or call :meth:`close` explicitly; a pool is
    single-use (one :meth:`run_tasks`), matching how its clients consume
    it.
    """

    def __init__(
        self,
        network: Network,
        config: DecisionConfig = DecisionConfig(),
        max_messages: int | None = None,
        parallel: ParallelConfig = ParallelConfig(),
        context: object | None = None,
    ) -> None:
        if parallel.workers < 2:
            raise ValueError(
                f"SupervisedPool needs workers >= 2, got {parallel.workers}; "
                "use the sequential path for workers=1"
            )
        self.parallel = parallel
        blob = dump_network(network)
        context_blob = pickle.dumps(context) if context is not None else None
        self._ledger = SupervisionLedger("parallel", parallel.workers)
        self._slots = WorkerSlots(
            self._ledger,
            worker_main,
            lambda conn: (
                conn,
                blob,
                config,
                max_messages,
                parallel.faults,
                context_blob,
            ),
            "repro-sim-worker",
            HEARTBEAT_GRACE,
            self._handle_message,
            self._fail_worker,
            record=_Worker,
        )
        self._drain = drain_signals()
        self._tasks: dict[int, _Task] = {}
        self._pending: deque[int] = deque()
        self._results: dict[int, tuple[object, dict]] = {}
        self._failed: dict[int, TaskFailure] = {}
        self._timeouts = 0
        self._resubmits = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run_tasks(self, items: Iterable[object]) -> GenericRunStats:
        """Run tasks (``.key`` + ``.run(...)``) through the pool.

        Each item executes crash-isolated inside a worker, on the
        worker's copy of the network with its edits and routing state
        undone afterwards
        (:class:`~repro.parallel.worker.WorkingCopy`, which also holds
        converged whatever prefixes the pool's ``context`` names as
        ``converged_ahead``, once per worker; those metrics are folded in
        as each worker reports ready).  Values and per-task metrics are
        folded in the order of ``items`` — a caller that wants a sorted
        fold submits a sorted list, as both clients do — so the outcome
        is the same whatever order the tasks complete in.  Raises
        :class:`~repro.errors.ShutdownRequested` after a graceful drain
        with the partial :class:`GenericRunStats` attached and the
        unfinished keys, in the same order, as ``pending``.
        """
        tasks = {
            task_id: _Task(task_id, item.key, item)  # type: ignore[attr-defined]
            for task_id, item in enumerate(items)
        }
        self._run_loop(tasks)

        stats = GenericRunStats()
        registry = get_registry()
        unfinished = []
        for task_id, task in tasks.items():
            if task_id in self._results:
                value, metrics = self._results[task_id]
                registry.merge_raw(metrics)
                stats.results[task.key] = value
            elif task_id in self._failed:
                stats.failed[task.key] = self._failed[task_id]
            else:
                unfinished.append(task.key)
        stats.supervision = {
            **self._ledger.summary(),
            "task_timeouts": self._timeouts,
            "resubmits": self._resubmits,
            "drained": self._drain.signum is not None,
        }
        if self._drain.signum is not None:
            raise ShutdownRequested(self._drain.signum, stats, unfinished)
        return stats

    def _run_loop(self, tasks: dict[int, _Task]) -> None:
        """Drive the dispatch/pump/watchdog loop to completion."""
        self._tasks = tasks
        self._pending.extend(tasks)
        drain_deadline: float | None = None
        try:
            with self._drain:
                self._slots.spawn_all()
                while True:
                    now = time.monotonic()
                    draining = self._drain.signum is not None
                    if draining and drain_deadline is None:
                        drain_deadline = now + DRAIN_GRACE
                        self._emit_drain(len(self._pending))
                    inflight = [
                        w for w in self._slots.live() if w.task_id is not None
                    ]
                    if not draining:
                        if not self._pending and not inflight:
                            break
                        self._dispatch()
                    elif not inflight or now >= drain_deadline:
                        break
                    self._slots.pump(_TICK_SECONDS)
                    self._check_watchdogs()
        finally:
            self.close()

    def close(self) -> None:
        """Tear down every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._slots.stop(_request_shutdown, grace=1.0)

    # ------------------------------------------------------------------
    # Loss handling
    # ------------------------------------------------------------------

    def _fail_worker(self, worker: _Worker, reason: str) -> None:
        """Handle a dead/hung worker: charge its task, kill, restart."""
        task_id = worker.task_id
        self._ledger.record_death(
            worker.index,
            worker.pid,
            worker.generation,
            reason,
            task=self._tasks[task_id].key if task_id is not None else None,
        )
        self._slots.discard(worker)
        if task_id is not None:
            self._charge_task_failure(self._tasks[task_id], reason)
        if self._drain.signum is None:
            self._slots.spawn(worker.index)

    def _charge_task_failure(self, task: _Task, reason: str) -> None:
        """Record one failed dispatch; resubmit or classify the task."""
        task.failures.append(reason)
        registry = get_registry()
        tracer = get_tracer()
        resubmits_used = len(task.failures) - 1
        if resubmits_used < self.parallel.max_resubmits:
            self._resubmits += 1
            registry.counter("parallel.resubmits").inc()
            if tracer.enabled:
                tracer.event(
                    EVENT_TASK_RESUBMIT,
                    prefix=task.key,
                    resubmit=resubmits_used + 1,
                    reason=reason,
                )
            logger.warning(
                "resubmitting %s after %s (attempt %d of %d)",
                task.key, reason, resubmits_used + 2,
                self.parallel.max_resubmits + 1,
            )
            self._pending.appendleft(task.task_id)
            return
        status = (
            TIMEOUT
            if all(r == FAIL_TIMEOUT for r in task.failures)
            else POISON
        )
        self._failed[task.task_id] = TaskFailure(
            task.key, status, resubmits_used, tuple(task.failures)
        )
        registry.counter(f"parallel.{status}_prefixes").inc()
        if tracer.enabled:
            tracer.event(
                EVENT_POISON_PREFIX,
                prefix=task.key,
                status=status,
                failures=list(task.failures),
            )
        logger.error(
            "classified %s as %s after %d failed dispatch(es): %s",
            task.key, status, len(task.failures), ", ".join(task.failures),
        )

    # ------------------------------------------------------------------
    # Event loop pieces
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers (one outstanding task each)."""
        pending = self._pending
        for worker in self._slots.live():
            if not pending:
                return
            if worker.task_id is not None:
                continue
            task_id = pending.popleft()
            task = self._tasks[task_id]
            worker.task_id = task_id
            worker.dispatched_at = time.monotonic()
            try:
                worker.conn.send((MSG_TASK, task_id, task.payload))
            except (BrokenPipeError, OSError):
                # Worker died before the dispatch committed: the task never
                # started, so it goes back unpunished and the death is
                # handled by the next watchdog sweep.
                worker.task_id = None
                pending.appendleft(task_id)
                return

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == MSG_HEARTBEAT:
            return
        if kind == MSG_READY:
            # What the worker did before any task: converging ahead, which
            # every worker (and every respawn) pays on its own copy.
            get_registry().merge_raw(message[2])
            return
        if kind == MSG_RESULT:
            _, task_id, value, metrics = message
            if worker.task_id != task_id:  # stale double-send; ignore
                return
            worker.task_id = None
            self._results[task_id] = (value, metrics)
            registry = get_registry()
            registry.counter("parallel.tasks_completed").inc()
            registry.histogram("parallel.task_seconds").observe(
                time.monotonic() - worker.dispatched_at
            )
            return
        if kind == MSG_ERROR:
            _, task_id, detail = message
            if worker.task_id != task_id:
                return
            worker.task_id = None
            get_registry().counter("parallel.task_errors").inc()
            logger.warning(
                "task %s failed in worker %d: %s",
                self._tasks[task_id].key, worker.index, detail,
            )
            self._charge_task_failure(self._tasks[task_id], FAIL_ERROR)

    def _check_watchdogs(self) -> None:
        """Kill workers that died, went silent, or blew the task deadline."""
        self._slots.sweep()
        timeout = self.parallel.task_timeout
        if timeout is None:
            return
        now = time.monotonic()
        for worker in self._slots.live():
            if worker.task_id is None or now - worker.dispatched_at <= timeout:
                continue
            self._timeouts += 1
            get_registry().counter("parallel.task_timeouts").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    EVENT_TASK_TIMEOUT,
                    prefix=self._tasks[worker.task_id].key,
                    worker=worker.index,
                    timeout=timeout,
                )
            self._fail_worker(worker, FAIL_TIMEOUT)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _emit_drain(self, queued: int) -> None:
        get_registry().counter("parallel.drains").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_DRAIN,
                signal=self._drain.signum,
                queued=queued,
                grace=DRAIN_GRACE,
            )
        logger.warning(
            "draining on signal %s: %d task(s) still queued, %.1fs grace "
            "for in-flight work",
            self._drain.signum, queued, DRAIN_GRACE,
        )
