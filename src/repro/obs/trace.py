"""Structured trace layer: nested spans plus typed events, JSONL on disk.

A *span* is a named phase with a wall-clock duration (``parse``,
``simulate``, ``refine-iteration``, ``prefix``); spans nest, and every
event records the span it happened inside.  An *event* is one typed
occurrence: a decision-process outcome, a policy install/delete, a
quasi-router duplication, a quarantine.

The default tracer is :class:`NullTracer`, whose ``enabled`` flag lets
hot paths skip even building the event payload::

    tracer = get_tracer()
    ...
    if tracer.enabled:
        tracer.event(EVENT_DECISION, router=router.name, ...)

so tracing costs one attribute check per hook point when off.  Install a
real tracer for the duration of a run with :func:`tracing`::

    with tracing(JsonlTracer(path)):
        refiner.run()

Trace files are JSON Lines: one object per record, ``kind`` one of
``span-start`` / ``span-end`` / ``event``.  Span records carry ``span``
(id), ``parent`` and ``name``; ``span-end`` adds ``elapsed`` seconds.
Event records carry ``type``, ``span`` (the enclosing span id or None)
and the event's own fields.  ``t`` is seconds since the tracer was
created, so a trace is self-contained and diffable across runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

EVENT_DECISION = "decision"
"""One decision at one router, once its Loc-RIB holds the outcome: the
``candidates`` it ranked, the ``best`` AS path (null: no route left) and
the decisive ``step`` (null: nothing was compared)."""

EVENT_BUDGET_EXHAUSTED = "budget-exhausted"
"""A per-prefix simulation hit its message budget (ConvergenceError)."""

EVENT_POLICY_INSTALL = "policy-install"
"""The refiner installed filter/ranking clauses at a quasi-router."""

EVENT_POLICY_DELETE = "policy-delete"
"""The refiner removed blocking egress filters (Figure 7)."""

EVENT_ROUTER_DUPLICATE = "router-duplicate"
"""The refiner cloned a quasi-router (Section 4.6 duplication)."""

EVENT_QUARANTINE = "quarantine"
"""A prefix exhausted its message budget and was quarantined."""

EVENT_LINT_QUARANTINE = "lint-quarantine"
"""The static lint gate quarantined a prefix before any simulation."""

EVENT_WORKER_SPAWN = "worker-spawn"
"""The parallel supervisor started (or restarted) a worker process."""

EVENT_WORKER_DEATH = "worker-death"
"""A supervised worker died or lost its heartbeat mid-task."""

EVENT_TASK_TIMEOUT = "task-timeout"
"""A per-task wall-clock watchdog expired; the worker was killed."""

EVENT_TASK_RESUBMIT = "task-resubmit"
"""A task whose worker failed is being handed to a fresh worker."""

EVENT_POISON_PREFIX = "poison-prefix"
"""A prefix exhausted ``max_resubmits`` and was classified poison/timeout."""

EVENT_DRAIN = "drain"
"""SIGINT/SIGTERM received: the supervisor is draining gracefully."""

EVENT_SCENARIO = "campaign-scenario"
"""A campaign scenario finished (or was quarantined) with its impact."""


class Tracer:
    """Base tracer: span bookkeeping plus the record sink interface.

    Subclasses implement :meth:`_record`; everything else (span ids,
    nesting, timestamps) is shared.  Tracers are single-threaded, like
    the engine they observe.
    """

    enabled = True

    def __init__(self) -> None:
        self._next_span = 1
        self._stack: list[int] = []
        self._started = time.monotonic()

    def _now(self) -> float:
        return time.monotonic() - self._started

    def _record(self, record: dict) -> None:
        raise NotImplementedError

    def event(self, type_: str, **fields: Any) -> None:
        """Emit one typed event inside the current span (if any)."""
        record = {
            "kind": "event",
            "type": type_,
            "span": self._stack[-1] if self._stack else None,
            "t": round(self._now(), 6),
        }
        record.update(fields)
        self._record(record)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[int]:
        """Open a nested span; yields the span id."""
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else None
        start = {
            "kind": "span-start",
            "span": span_id,
            "parent": parent,
            "name": name,
            "t": round(self._now(), 6),
        }
        start.update(fields)
        self._record(start)
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self._record(
                {
                    "kind": "span-end",
                    "span": span_id,
                    "name": name,
                    "t": round(self._now(), 6),
                    "elapsed": round(elapsed, 6),
                }
            )

    def close(self) -> None:
        """Release any resources; a no-op by default."""


class _NullSpan:
    """A reusable, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self) -> int:
        return 0

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The default tracer: every operation is a no-op.

    ``enabled`` is False so instrumented code can skip payload
    construction entirely; even when called, nothing is recorded and
    :meth:`span` returns a shared allocation-free context manager.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - deliberately skips base init
        pass

    def event(self, type_: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **fields: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def _record(self, record: dict) -> None:
        return None


class JsonlTracer(Tracer):
    """Write every record as one JSON line to a file or stream.

    Accepts a path (opened for writing, closed by :meth:`close`) or an
    already-open text stream (left open).  Usable as a context manager.
    """

    def __init__(self, sink: str | Path | IO[str]) -> None:
        super().__init__()
        if isinstance(sink, (str, Path)):
            self._handle: IO[str] = open(sink, "w", encoding="ascii")
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self.records_written = 0

    def _record(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordingTracer(Tracer):
    """Keep every record in memory; the tracer tests and ``explain`` use it."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[dict] = []

    def _record(self, record: dict) -> None:
        self.records.append(record)

    def events(self, type_: str | None = None) -> list[dict]:
        """The recorded events, optionally filtered by type."""
        return [
            record
            for record in self.records
            if record["kind"] == "event"
            and (type_ is None or record["type"] == type_)
        ]

    def spans(self, name: str | None = None) -> list[dict]:
        """The recorded span-start records, optionally filtered by name."""
        return [
            record
            for record in self.records
            if record["kind"] == "span-start"
            and (name is None or record["name"] == name)
        ]


_TRACER: Tracer = NullTracer()


def get_tracer() -> Tracer:
    """The currently-installed tracer (a shared :class:`NullTracer` by default)."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (None restores the no-op default).

    Returns the previously-installed tracer so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NullTracer()
    return previous


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a block, then restore and close."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
