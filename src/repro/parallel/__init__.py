"""Supervised parallel task executor.

A crash-isolated pool of worker processes, each on its own copy of one
network, supervised by watchdogs, with poison-task quarantine and
graceful signal-driven shutdown.  It runs one kind of task — an object
with a ``key`` and a ``run(network, context, config, max_messages)``
method — through
:meth:`~repro.parallel.supervisor.SupervisedPool.run_tasks`, for two
clients: the campaign engine fans whole perturbed-scenario simulations
out, and :func:`repro.core.model.simulate_pooled` one task
per prefix (Section 4.2 of the paper: routing decisions are made
independently per prefix, so a prefix's simulation needs nothing of
another's).  ``workers=1`` keeps the sequential path.

The package re-exports the protocol's values, which every importer
names; the pool itself (:mod:`repro.parallel.supervisor`, and with it
``multiprocessing``) is imported by the code that builds one.
"""

from repro.parallel.protocol import ParallelConfig, TaskFailure, WorkerFaults

__all__ = [
    "ParallelConfig",
    "TaskFailure",
    "WorkerFaults",
]
