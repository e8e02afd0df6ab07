"""Benchmark-side spans, the speed calibration and the sample statistics.

The benchmark times the program from outside: every public call it makes
is wrapped in a span (name, start, end, parent id, workload id), nested
workload -> stage -> call.  Spans stay in memory until the workload
ends.  Spans inside ``src/`` are a later issue.

Times are reported in *reference seconds*.  The 2-core sandbox this runs
on is a shared VM whose speed drifts by +-20% over tens of seconds (the
same 0.4 s simulation read 0.30 s to 1.57 s over twelve minutes), which
no 10-20% regression bound survives.  A fixed interpreter-bound loop is
therefore timed between stages, and each stage's wall-clock is scaled by
how fast that loop ran just before and after it: over the same twelve
minutes that cut the run-to-run spread of a median over nine passes from
14% to 5%.  The loop lives here, so no change to ``src/`` can move it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10

CALIBRATION_LOOPS = 450_000
REFERENCE_SECONDS = 0.025
"""What the calibration loop takes on the sandbox when it is quiet; a
reference second is a wall-clock second at that speed."""


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    started = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - started


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    id: int
    parent: int | None
    name: str
    workload: str
    start: float
    end: float = 0.0
    speed: float = 1.0
    """Reference seconds per wall-clock second while this span ran."""

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Duration in reference seconds."""
        return (self.end - self.start) * self.speed


class Recorder:
    """Records nested spans for one workload pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._calibration: float | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, name, self.workload, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _calibrate(self) -> float:
        with self.span("calibrate"):
            return calibrate()

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        """A span ``stage.<name>`` bracketed by calibration samples.

        The stage and every span inside it are scaled by the mean of the
        sample before (shared with the previous stage) and the one after.
        """
        before = self._calibration or self._calibrate()
        with self.span(f"stage.{name}") as stage:
            yield stage
        self._calibration = after = self._calibrate()
        speed = REFERENCE_SECONDS / ((before + after) / 2.0)
        for span in self.spans[stage.id : -1]:
            span.speed = speed

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` under a span called ``name``; returns its result."""
        with self.span(name):
            return function(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        """Reference seconds of every span called ``name``, in recording order."""
        return [span.seconds for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        """Total reference seconds of every span called ``name``."""
        return sum(self.durations(name))

    def speed(self) -> float:
        """Mean speed over the stages, weighted by their wall-clock."""
        stages = [span for span in self.spans if span.name.startswith("stage.")]
        return sum(s.seconds for s in stages) / sum(s.raw_seconds for s in stages)

    def to_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_seconds(spans: Sequence[Span]) -> dict[int, float]:
    """Wall-clock self time per span id: its duration minus its direct children's.

    Children of one parent never overlap (the benchmark is one thread),
    so the part of the parent's interval they cover is their sum.
    """
    own = {span.id: span.raw_seconds for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.raw_seconds
    return own


def stage_coverage(spans: Sequence[Span]) -> float:
    """Share of the root span's duration covered by its direct children."""
    root = next(span for span in spans if span.parent is None)
    covered = sum(span.raw_seconds for span in spans if span.parent == root.id)
    return covered / root.raw_seconds if root.raw_seconds else 0.0


def _rank(count: int, percentile: float) -> int:
    """1-based nearest rank, in integer arithmetic (99.9 is not a float sum)."""
    return max(1, -(-count * round(percentile * 10) // 1000))


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of ``samples`` (``percentile`` in 0..100)."""
    return sorted(samples)[_rank(len(samples), percentile) - 1]


def highest_supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it.

    A tail percentile read off fewer than ten samples is one slow
    outlier, not a property of the program; None when even the median
    lacks support (``count`` < 20).
    """
    supported = [
        p for p in PERCENTILE_LADDER if count - _rank(count, p) >= MIN_SAMPLES_BEYOND
    ]
    return supported[-1] if supported else None


def median_and_tail(samples: Sequence[float]) -> tuple[float, float, float]:
    """(median, tail percentile used, tail value) of a timing sample set.

    With too few samples for any supported tail the maximum is reported
    as percentile 100.
    """
    tail = highest_supported_percentile(len(samples))
    if tail is None:
        return statistics.median(samples), 100.0, max(samples)
    return statistics.median(samples), tail, nearest_rank(samples, tail)
