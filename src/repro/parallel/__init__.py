"""Supervised parallel simulation executor.

Per-prefix BGP simulation is embarrassingly parallel (Section 4.2 of the
paper: routing decisions are made independently per prefix), so this
package fans prefixes out to a crash-isolated pool of worker processes
supervised by watchdogs, with poison-prefix quarantine and graceful
signal-driven shutdown.  ``workers=1`` keeps the sequential path.

The pool also runs *generic* tasks (objects with a ``key`` and a
``run(network, context, config, max_messages)`` method) via
:meth:`SupervisedPool.run_tasks` — the campaign engine uses this to fan
whole perturbed-scenario simulations out with the same crash isolation,
watchdogs and poison quarantine as per-prefix work.
"""

from repro.parallel.protocol import (
    GenericTaskResult,
    PrefixState,
    TaskFailure,
    TaskResult,
    WorkerFaults,
    apply_prefix_state,
    capture_prefix_state,
)
from repro.parallel.supervisor import (
    GenericRunStats,
    ParallelConfig,
    SupervisedPool,
)

__all__ = [
    "GenericRunStats",
    "GenericTaskResult",
    "ParallelConfig",
    "PrefixState",
    "SupervisedPool",
    "TaskFailure",
    "TaskResult",
    "WorkerFaults",
    "apply_prefix_state",
    "capture_prefix_state",
]
