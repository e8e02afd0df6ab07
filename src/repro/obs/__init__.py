"""Observability: structured tracing, metrics, logging, run metadata.

The refinement loop (Section 4.6) is otherwise a black box at runtime:
nothing records *which* decision-process step drove a divergence or which
refinement iteration installed the responsible policy clause.  This
package makes simulated BGP outcomes auditable:

* :mod:`repro.obs.trace` — a JSONL span/event emitter with nested phase
  spans and typed events for decision outcomes, policy installs/deletes,
  quasi-router duplications, divergence and lint quarantines, behind a
  near-zero-cost no-op default (:class:`~repro.obs.trace.NullTracer`).
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms (p50/p95/p99) replacing ad-hoc counting, snapshotted into
  :class:`~repro.resilience.health.RunHealth` and ``repro stats``.
* :mod:`repro.obs.explain` — per-prefix decision provenance: at each AS
  the candidate routes, the decision step that selected the winner, and
  the refinement iteration + clause tag that installed each policy
  consulted (``repro explain``).
* :mod:`repro.obs.logs` — stdlib ``logging`` configuration for the CLI
  (``--log-level`` / ``--log-json``).
* :mod:`repro.obs.meta` — run metadata (git sha, python version, CLI
  args, seed) stamped into health reports and benchmark results.
* :mod:`repro.obs.profile` — phase-attribution profiling (exclusive
  wall/CPU time per named engine phase and command stage) and the
  versioned ``PROFILE.json`` document ``repro --profile PATH`` writes.
* :mod:`repro.obs.sampling` — a stdlib statistical stack sampler
  emitting collapsed-stack ``.folded`` files for flamegraphs (beside
  ``PROFILE.json`` under ``repro --profile``).
"""

from repro.obs.logs import configure_logging
from repro.obs.meta import run_metadata
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labelled,
    render_prometheus,
    set_registry,
)
from repro.obs.profile import (
    NullProfiler,
    PhaseProfiler,
    build_profile_document,
    get_profiler,
    profiling,
    set_profiler,
)
from repro.obs.sampling import StackSampler
from repro.obs.trace import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

def __getattr__(name: str):
    # Lazy: explain pulls in core.model -> bgp.engine, and the engine
    # itself imports repro.obs.trace.  Deferring breaks the cycle while
    # keeping ``from repro.obs import explain_prefix`` working.
    if name in ("explain_prefix", "PrefixExplanation"):
        from repro.obs import explain

        return getattr(explain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "MetricsRegistry",
    "NullProfiler",
    "NullTracer",
    "PhaseProfiler",
    "PrefixExplanation",
    "RecordingTracer",
    "StackSampler",
    "Tracer",
    "build_profile_document",
    "configure_logging",
    "explain_prefix",
    "get_profiler",
    "get_registry",
    "get_tracer",
    "labelled",
    "profiling",
    "render_prometheus",
    "run_metadata",
    "set_profiler",
    "set_registry",
    "set_tracer",
    "tracing",
]
