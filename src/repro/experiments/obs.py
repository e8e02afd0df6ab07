"""OBS: tracing overhead — what does observability cost the engine?

The trace layer promises a near-zero-cost default: with the
:class:`~repro.obs.trace.NullTracer` installed, every hook point is one
attribute check.  This experiment quantifies both sides of that promise
on the ground-truth simulation:

* ``off`` — the default (NullTracer), which must stay within a few
  percent of a build with no hooks at all;
* ``jsonl`` — a :class:`~repro.obs.trace.JsonlTracer` writing every
  decision event to a discarding sink, the full cost of tracing minus
  disk bandwidth.

Each mode re-simulates the same synthetic Internet, so the message and
decision counts are identical and the wall-clock delta is attributable
to the instrumentation alone.
"""

from __future__ import annotations

import time

from repro.bgp.engine import simulate
from repro.data.synthesis import synthesize_internet
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import DEFAULT, Workload
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import JsonlTracer, tracing


class _DiscardingSink:
    """A write-only text sink that keeps nothing (I/O-free tracing cost)."""

    closed = False

    def __init__(self) -> None:
        self.bytes_written = 0

    def write(self, text: str) -> int:
        self.bytes_written += len(text)
        return len(text)

    def flush(self) -> None:
        return None


def run_trace_overhead(
    base: Workload = DEFAULT, repeats: int = 3
) -> ExperimentResult:
    """Measure simulation wall-clock with tracing off vs. JSONL tracing on.

    ``repeats`` full-network simulations per mode; the best (minimum)
    time of each mode is compared, which is the standard way to suppress
    scheduler noise in micro-ish benchmarks.
    """
    result = ExperimentResult(
        experiment_id="OBS",
        title="Tracing overhead on ground-truth simulation",
        headers=[
            "mode",
            "messages",
            "decisions",
            "best seconds",
            "overhead",
            "trace bytes",
        ],
    )
    internet = synthesize_internet(base.config)

    def simulate_once() -> tuple[float, int, int]:
        started = time.perf_counter()
        stats = simulate(internet.network)
        return time.perf_counter() - started, stats.messages, stats.decisions

    def best_of(mode_runner) -> tuple[float, int, int]:
        timings = [mode_runner() for _ in range(max(1, repeats))]
        return min(timings, key=lambda timing: timing[0])

    # Isolate the experiment from the process-global registry so repeated
    # runs don't inflate each other's counters.
    previous_registry = set_registry(MetricsRegistry())
    try:
        off_seconds, messages, decisions = best_of(simulate_once)

        sink = _DiscardingSink()

        def simulate_traced() -> tuple[float, int, int]:
            with tracing(JsonlTracer(sink)):
                return simulate_once()

        on_seconds, traced_messages, traced_decisions = best_of(simulate_traced)
    finally:
        set_registry(previous_registry)
    if (messages, decisions) != (traced_messages, traced_decisions):
        raise AssertionError(
            "tracing changed simulation behaviour: "
            f"{(messages, decisions)} != {(traced_messages, traced_decisions)}"
        )

    overhead = on_seconds / off_seconds - 1.0 if off_seconds else 0.0
    result.add_row("off (NullTracer)", messages, decisions,
                   f"{off_seconds:.3f}s", "baseline", 0)
    result.add_row("jsonl (discarded)", traced_messages, traced_decisions,
                   f"{on_seconds:.3f}s", f"{overhead:+.1%}",
                   sink.bytes_written)
    result.metrics["seconds_off"] = off_seconds
    result.metrics["seconds_jsonl"] = on_seconds
    result.metrics["overhead_fraction"] = overhead
    result.metrics["trace_bytes"] = sink.bytes_written
    result.metrics["messages"] = messages
    result.note(
        "jsonl mode serialises one decision event per decision-process run "
        "to a discarding sink; real runs add disk bandwidth on top. "
        "The off mode is the shipping default: one enabled-flag check per "
        "hook point."
    )
    return result
