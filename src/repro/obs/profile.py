"""Performance-attribution profiling: named phases with exclusive timing.

A speed claim is only checkable against numbers that say where inside
the engine the time goes.  A :class:`PhaseProfiler` attributes
wall-clock and CPU time to named phases: the engine's hot loop reports
``engine.dispatch`` / ``engine.decision`` / ``engine.route-map`` /
``engine.export`` / ``engine.rib-merge``, the refiner reports its grading
and certification slices, the artifact compiler its ``compile.*`` slices,
and a command's coarse stages — every
:meth:`RunHealth.phase <repro.resilience.health.RunHealth.phase>`
(``parse``, ``refine``, ``evaluate``, ...) — wrap them.  ``repro
--profile PATH <command>`` installs one around the command's handler
(:mod:`repro.cli`), so the profile describes the run the user made.

Attribution is *exclusive* (self-time): phases nest, and elapsed time is
always charged to the innermost active phase.  The sum of all phase
times therefore equals the wall-clock spent inside *any* phase — no
double counting — and the ratio of that sum to the run's measured
wall-clock is the profile's ``coverage`` (``repro --profile P refine``
must clear 90%).

Like the tracer and the metrics registry, the default profiler is a
no-op (:class:`NullProfiler`) whose ``enabled`` flag lets hot paths skip
instrumentation entirely::

    profiler = get_profiler()
    prof = profiler if profiler.enabled else None
    ...
    if prof:
        prof.push(PHASE_DISPATCH)

so an unprofiled run pays one attribute check per hook point.  Install a
real profiler for one run with :func:`profiling`::

    with profiling(PhaseProfiler()) as profiler:
        refiner.run()
    print(profiler.report())

:func:`build_profile_document` freezes a profiler (plus the metrics
registry, sampling summary and run metadata) into the versioned
``PROFILE.json`` schema that ``repro --profile`` writes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

PROFILE_SCHEMA = 2
"""Version stamp of the PROFILE.json document layout.

It changes whenever a recorded field is removed or changes meaning
(2: the flat ``metrics`` map that copied ``phases`` and ``counters``
is gone).
"""

PHASE_DISPATCH = "engine.dispatch"
"""Message dispatch: queue pop plus receive-side import processing."""

PHASE_DECISION = "engine.decision"
"""The BGP decision process over a router's candidate routes."""

PHASE_ROUTE_MAP = "engine.route-map"
"""Route-map (policy clause) evaluation on session import/export."""

PHASE_EXPORT = "engine.export"
"""Send-side export filtering and per-session announcement building."""

PHASE_RIB_MERGE = "engine.rib-merge"
"""Adj-RIB-In / Loc-RIB / Adj-RIB-Out bookkeeping around a decision."""

ENGINE_PHASES = (
    PHASE_DISPATCH,
    PHASE_DECISION,
    PHASE_ROUTE_MAP,
    PHASE_EXPORT,
    PHASE_RIB_MERGE,
)


@dataclass
class PhaseStat:
    """Accumulated cost of one named phase (exclusive / self-time)."""

    name: str
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    entries: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable summary of this phase."""
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "entries": self.entries,
        }


class PhaseProfiler:
    """Attribute wall/CPU cost to a stack of named phases.

    ``push``/``switch``/``pop`` are the hot-path API (plain calls, one
    clock-pair read per transition); :meth:`phase` is the context-manager
    form for coarse phases.  ``switch`` replaces the top of the stack in
    one transition — the engine's linear dispatch->merge->decide sequence
    uses it to pay one attribution instead of a pop+push pair.
    """

    enabled = True

    def __init__(self) -> None:
        self.phases: dict[str, PhaseStat] = {}
        self._stack: list[PhaseStat] = []
        self.started_wall = time.perf_counter()
        self.started_cpu = time.process_time()
        self._last_wall = self.started_wall
        self._last_cpu = self.started_cpu

    # ------------------------------------------------------------------
    # Hot-path API
    # ------------------------------------------------------------------

    def _attribute(self) -> None:
        """Charge the time since the last transition to the current phase."""
        now_wall = time.perf_counter()
        now_cpu = time.process_time()
        if self._stack:
            stat = self._stack[-1]
            stat.wall_seconds += now_wall - self._last_wall
            stat.cpu_seconds += now_cpu - self._last_cpu
        self._last_wall = now_wall
        self._last_cpu = now_cpu

    def _stat(self, name: str) -> PhaseStat:
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = PhaseStat(name)
        return stat

    def push(self, name: str) -> None:
        """Enter a nested phase; time now accrues to ``name``."""
        self._attribute()
        stat = self._stat(name)
        stat.entries += 1
        self._stack.append(stat)

    def switch(self, name: str) -> None:
        """Replace the innermost phase with ``name`` in one transition.

        Must only be called with at least one phase active; the engine
        uses it to walk a message through its linear phase sequence.
        """
        self._attribute()
        stat = self._stat(name)
        stat.entries += 1
        self._stack[-1] = stat

    def pop(self) -> None:
        """Leave the innermost phase; time accrues to its parent again."""
        self._attribute()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context-manager form: ``with profiler.phase("parse"): ...``."""
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def attributed_wall_seconds(self) -> float:
        """Total wall-clock charged to any phase (no double counting)."""
        return sum(stat.wall_seconds for stat in self.phases.values())

    def coverage(self, wall_seconds: float | None = None) -> float:
        """Fraction of ``wall_seconds`` the phases account for.

        Defaults to the profiler's own lifetime so far.  1.0 means every
        measured moment ran inside a named phase.
        """
        if wall_seconds is None:
            wall_seconds = time.perf_counter() - self.started_wall
        if wall_seconds <= 0.0:
            return 0.0
        return min(1.0, self.attributed_wall_seconds / wall_seconds)

    def report(self) -> dict:
        """Phase stats keyed by name, sorted by descending wall-clock."""
        ordered = sorted(
            self.phases.values(), key=lambda s: (-s.wall_seconds, s.name)
        )
        return {stat.name: stat.to_dict() for stat in ordered}


class _NullPhase:
    """A reusable, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullProfiler(PhaseProfiler):
    """The default profiler: every operation is a no-op.

    ``enabled`` is False so instrumented hot paths skip even the method
    calls; a coarse call site using :meth:`phase` unconditionally pays
    one shared no-op context manager.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - deliberately skips base init
        self.phases = {}

    def push(self, name: str) -> None:
        return None

    def switch(self, name: str) -> None:
        return None

    def pop(self) -> None:
        return None

    def phase(self, name: str) -> _NullPhase:  # type: ignore[override]
        return _NULL_PHASE


_PROFILER: PhaseProfiler = NullProfiler()


def get_profiler() -> PhaseProfiler:
    """The currently-installed profiler (a shared no-op by default)."""
    return _PROFILER


def set_profiler(profiler: PhaseProfiler | None) -> PhaseProfiler:
    """Install ``profiler`` globally (None restores the no-op default).

    Returns the previously-installed profiler so callers can restore it.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler if profiler is not None else NullProfiler()
    return previous


@contextmanager
def profiling(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Install ``profiler`` for the duration of a block, then restore it."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


# ----------------------------------------------------------------------
# PROFILE.json
# ----------------------------------------------------------------------


def build_profile_document(
    profiler: PhaseProfiler,
    wall_seconds: float,
    cpu_seconds: float,
    workload: dict[str, Any],
    meta: dict | None = None,
    registry=None,
    sampling: dict | None = None,
) -> dict:
    """Freeze one profiled run into the versioned PROFILE.json layout."""
    if registry is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
    if meta is None:
        from repro.obs.meta import run_metadata

        meta = run_metadata()
    snapshot = registry.snapshot()
    return {
        "schema": PROFILE_SCHEMA,
        "workload": workload,
        "wall_seconds": round(wall_seconds, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "coverage": round(profiler.coverage(wall_seconds), 6),
        "phases": profiler.report(),
        "counters": snapshot.get("counters", {}),
        "histograms": snapshot.get("histograms", {}),
        "sampling": sampling,
        "meta": meta,
    }


def render_profile(document: dict, top: int = 12) -> str:
    """Human-readable phase-attribution table for one PROFILE.json."""
    lines = [
        f"profile: workload={document['workload'].get('name', '?')} "
        f"wall={document['wall_seconds']:.3f}s "
        f"cpu={document['cpu_seconds']:.3f}s "
        f"coverage={document['coverage']:.1%}",
    ]
    phases = document.get("phases", {})
    if phases:
        width = max(len(name) for name in phases)
        lines.append(
            f"  {'phase':<{width}}  {'wall s':>10}  {'cpu s':>10}  "
            f"{'share':>6}  {'entries':>9}"
        )
        wall_total = document["wall_seconds"] or 1.0
        for name, stat in list(phases.items())[:top]:
            share = stat["wall_seconds"] / wall_total
            lines.append(
                f"  {name:<{width}}  {stat['wall_seconds']:>10.4f}  "
                f"{stat['cpu_seconds']:>10.4f}  {share:>6.1%}  "
                f"{stat['entries']:>9}"
            )
        if len(phases) > top:
            lines.append(f"  (+{len(phases) - top} more phases)")
    sampling = document.get("sampling")
    if sampling:
        lines.append(
            f"  sampler: {sampling['samples']} samples at "
            f"{sampling['interval_seconds'] * 1000:.1f}ms"
            + (f" -> {sampling['folded']}" if sampling.get("folded") else "")
        )
    return "\n".join(lines)
