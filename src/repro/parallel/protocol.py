"""The task protocol between the parallel supervisor and its workers.

Everything that crosses the process boundary is defined here: the wire
messages, plain tuples tagged with a ``MSG_*`` constant and pickled by
the ``multiprocessing`` connection.  There is one kind of task: a
picklable object with a ``key`` (its identity in logs, trace events and
fault injection) and a ``run(network, context, config, max_messages)``
method, sent as ``(MSG_TASK, task_id, task)`` and answered with
``(MSG_RESULT, task_id, value, metrics)`` — what ``run`` returned and the
:meth:`~repro.obs.metrics.MetricsRegistry.dump_raw` of the registry the
worker dedicated to the task — or ``(MSG_ERROR, task_id, repr)``.  What a
value means is between the task and whoever submitted it: a campaign
scenario returns its outcome dict, a prefix simulation
(:func:`repro.core.model.simulate_pooled`) its
:class:`~repro.bgp.engine.EngineStats` and captured
:class:`~repro.bgp.network.PrefixState`.

:class:`TaskFailure` is what the supervisor reports for a task it gave
up on, :class:`WorkerFaults` the crash-injection hook the chaos suite
and the supervision tests use to produce deterministic worker kills and
hangs, and :class:`ParallelConfig` how a pool runs — here, beside the
messages, so that naming a pool costs no ``multiprocessing`` import
until one is built.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass

from repro.bgp.network import Network


def dump_network(network: Network) -> bytes:
    """Pickle a network, with headroom for deep router/session graphs.

    Pickling walks the router ↔ session object graph depth-first, so the
    recursion depth grows with topology size, not nesting; a refined
    model with thousands of quasi-router sessions blows the interpreter's
    default 1000-frame limit.  The limit is raised (never lowered) around
    the dump and restored afterwards.  Unpickling is iterative and needs
    no such headroom.
    """
    headroom = 4096 + 2 * len(network.routers) + len(network.sessions) // 2
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, headroom))
    try:
        return pickle.dumps(network)
    finally:
        sys.setrecursionlimit(previous)

# Parent -> worker
MSG_TASK = "task"
MSG_SHUTDOWN = "shutdown"

# Worker -> parent
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_ERROR = "error"
"""The task raised an unexpected exception; payload is its repr.  The
supervisor charges the task a failed dispatch; the worker drops its
network copy (suspect) and stays useful for the next task."""

CRASH_EXIT_CODE = 70
"""Exit code of a fault-injected worker crash (mimics a segfault/OOM kill:
the process disappears without sending anything)."""


@dataclass(frozen=True)
class WorkerFaults:
    """Deterministic worker sabotage for chaos runs and supervision tests.

    ``crash_prefixes`` name tasks by ``key`` (a prefix as a string, a
    scenario key) whose dispatch makes the worker ``os._exit``
    immediately — indistinguishable from a segfault or OOM kill from the
    supervisor's side.  ``hang_prefixes`` make the worker sleep
    ``hang_seconds`` instead of running the task, so the per-task
    watchdog must fire.  Both are checked by string to keep the config
    trivially serialisable.
    """

    crash_prefixes: tuple[str, ...] = ()
    hang_prefixes: tuple[str, ...] = ()
    hang_seconds: float = 3600.0

    def __bool__(self) -> bool:
        return bool(self.crash_prefixes or self.hang_prefixes)


@dataclass(frozen=True)
class ParallelConfig:
    """How the supervised pool runs.

    ``workers=1`` (the default) disables the pool entirely — callers fall
    back to the sequential path, bit-for-bit.  ``task_timeout`` is the
    per-dispatch wall-clock watchdog (None disables it; the message
    budget still bounds every simulation).
    ``max_resubmits`` is how many *fresh* workers a failing task gets
    before being classified poison.  A graceful shutdown waits
    :data:`~repro.parallel.supervisor.DRAIN_GRACE` for in-flight tasks.
    """

    workers: int = 1
    task_timeout: float | None = 60.0
    max_resubmits: int = 2
    faults: WorkerFaults | None = None

    @property
    def enabled(self) -> bool:
        """True when the pool should actually be used."""
        return self.workers > 1


@dataclass(frozen=True)
class TaskFailure:
    """A task the pool gave up on (poison or repeated timeout).

    ``status`` is ``poison`` or ``timeout``, ``resubmits`` how many fresh
    workers it was given after the first, ``failures`` the per-dispatch
    failure reasons.
    """

    key: str
    status: str
    resubmits: int
    failures: tuple[str, ...] = ()
