"""Exception hierarchy for the repro library.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library errors without
accidentally swallowing programming mistakes such as ``TypeError``.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    report: Any = None
    """The partial report of the run this error ended, where the raiser or
    a command it passed through has one; ``repro.cli.main`` emits it."""


class ParseError(ReproError, ValueError):
    """Raised when textual input (addresses, paths, dumps, configs) is malformed."""


class UsageError(ReproError):
    """Raised by a CLI command (never by the library) for a request it will
    not run as asked — bad flag combinations, an ASN the inputs do not
    hold: ``repro.cli.main`` exits 2, the code argparse itself uses."""


class TopologyError(ReproError):
    """Raised for inconsistent topology operations (unknown AS, duplicate session, ...)."""


class SimulationError(ReproError):
    """Raised when a BGP simulation cannot proceed (non-convergence, bad state)."""


class ConvergenceError(SimulationError):
    """A per-prefix simulation exhausted its message budget.

    Carries structured context so quarantine and health reports can act
    on it without parsing the message string.

    Attributes:
        prefix: the prefix whose simulation did not converge.
        messages_used: messages processed before giving up.
        budget: the ``max_messages`` budget that was exceeded.
        stats: the run's ``EngineStats`` up to the point it gave up, so
            the caller that quarantines the prefix can still account for
            the work it cost.
    """

    def __init__(self, prefix, messages_used: int, budget: int, stats):
        super().__init__(
            f"BGP did not converge for {prefix} after {messages_used} messages "
            f"(budget {budget}); the configured policies likely form a dispute wheel"
        )
        self.prefix = prefix
        self.messages_used = messages_used
        self.budget = budget
        self.stats = stats


class ModelError(ReproError):
    """Raised when a model query cannot be answered from the model's state.

    Distinct from :class:`TopologyError` (the topology itself is fine):
    the caller asked a question — e.g. predicted paths for an origin whose
    prefix was never simulated — that the current routing state cannot
    answer truthfully.  Returning an empty answer instead would be
    silently wrong, which is exactly what this error exists to prevent.
    """


class ArtifactError(ReproError):
    """Raised when a prediction artifact is unreadable, corrupt, or stale.

    Covers every way a compiled artifact can fail to load: bad magic,
    truncated payload, checksum mismatch, and a schema version this build
    does not understand.  The message always names the failure so a stale
    artifact is rejected loudly instead of serving garbage answers.
    """


class CertificateError(ReproError):
    """Raised when a persisted certificate store is unreadable or incompatible.

    A corrupt or stale store is never silently ignored at the API level:
    the caller decides whether to fall back to a from-scratch
    certification (the refiner does) or to surface the failure.
    """


class CheckpointError(ReproError):
    """Raised when a refinement checkpoint is missing, corrupt, or incompatible."""


class RefinementError(ReproError):
    """Raised when the iterative refinement heuristic cannot make progress."""


class DatasetError(ReproError):
    """Raised for inconsistent observed-path datasets (empty training set, ...)."""


class IngestError(DatasetError):
    """An ingestion run failed a quality gate and was aborted.

    Raised by :mod:`repro.data.ingest` when a feed turns out to be
    mostly garbage (the malformed-fraction gate) or turns to garbage
    mid-file (the malformed-burst circuit breaker).  Carries the partial
    :class:`~repro.data.quality.IngestReport` accumulated so far, so the
    caller can still render exact per-reason accounting of what was
    seen before the abort.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ShutdownRequested(ReproError):
    """A SIGINT/SIGTERM reached a draining loop mid-run.

    Raised after the graceful drain: work in hand was finished (in a
    pool, in-flight tasks were given a bounded grace period, completed
    results folded and workers torn down).  Carries everything the
    caller needs to exit cleanly:

    Attributes:
        signum: the signal number that triggered the drain.
        stats: what finished before the drain, in the raiser's own result
            type — :meth:`~repro.parallel.supervisor.SupervisedPool.run_tasks`
            attaches a partial ``GenericRunStats``,
            :func:`~repro.core.model.simulate_pooled` a partial
            :class:`~repro.bgp.engine.EngineStats`; None
            where the loop keeps its results elsewhere (a checkpoint).
        pending: the units of work still queued or in flight, in the
            order they would have run — task keys from the pool, sorted
            :class:`~repro.net.prefix.Prefix` objects from
            ``simulate_pooled`` — the work a resumed run must redo.

    The message — the one interrupt line ``repro.cli.main`` prints —
    counts ``pending`` as units of work: true of all three.
    """

    def __init__(self, signum: int, stats=None, pending=None):
        pending = list(pending or [])
        message = f"interrupted by signal {signum}"
        if pending:
            message += f": {len(pending)} unit(s) of work unfinished"
        super().__init__(message)
        self.signum = signum
        self.stats = stats
        self.pending = pending
