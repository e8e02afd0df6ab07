"""Parallel-executor speedup study (``BENCH_parallel.json``).

Per-prefix simulation is embarrassingly parallel (Section 4.2), so the
supervised pool's speedup over the sequential path should approach the
machine's core count minus supervision overhead (IPC, per-result RIB
transfer, worker startup).  This experiment measures the sequential
baseline and several worker counts on the same synthetic Internet,
verifying along the way that every configuration produces identical
outcome classifications — the pool must buy time, never correctness.

The recorded numbers are only meaningful relative to ``cpu_count`` (also
recorded): on a single-core machine every worker count necessarily
measures pure supervision overhead, not speedup.
"""

from __future__ import annotations

import os
import time

from repro.core.model import MODEL_DECISION_CONFIG
from repro.data.synthesis import synthesize_internet
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import DEFAULT, Workload
from repro.parallel import ParallelConfig
from repro.resilience.retry import simulate_network_bounded


def run(
    base: Workload = DEFAULT,
    worker_counts: tuple[int, ...] = (2, 4),
) -> ExperimentResult:
    """Time sequential vs. supervised-pool simulation of one workload."""
    cpu_count = os.cpu_count() or 1
    result = ExperimentResult(
        experiment_id="PAR",
        title="Supervised-pool speedup over sequential per-prefix simulation",
        headers=["workers", "prefixes", "messages", "seconds", "speedup"],
    )

    def timed(parallel: ParallelConfig | None):
        network = synthesize_internet(base.config).network
        started = time.perf_counter()
        stats = simulate_network_bounded(
            network, config=MODEL_DECISION_CONFIG, parallel=parallel
        )
        return time.perf_counter() - started, stats

    baseline_seconds, baseline = timed(None)
    outcomes = sorted((str(o.prefix), o.status) for o in baseline.outcomes)
    result.add_row(
        "1 (sequential)", len(baseline.outcomes), baseline.engine.messages,
        f"{baseline_seconds:.2f}s", "1.00x",
    )
    result.metrics["seconds_sequential"] = baseline_seconds
    for workers in worker_counts:
        elapsed, stats = timed(ParallelConfig(workers=workers))
        if sorted((str(o.prefix), o.status) for o in stats.outcomes) != outcomes:
            raise AssertionError(
                f"workers={workers} changed outcome classifications"
            )
        speedup = baseline_seconds / elapsed if elapsed else float("inf")
        result.add_row(
            workers, len(stats.outcomes), stats.engine.messages,
            f"{elapsed:.2f}s", f"{speedup:.2f}x",
        )
        result.metrics[f"seconds_workers_{workers}"] = elapsed
        result.metrics[f"speedup_workers_{workers}"] = speedup
    result.metrics["cpu_count"] = float(cpu_count)
    result.note(
        f"measured on {cpu_count} CPU core(s); speedup is bounded by "
        "min(workers, cores) and on a single-core machine the pool can "
        "only measure supervision overhead"
    )
    result.note(
        "outcome classifications verified identical across all "
        "configurations (the pool trades time, never results)"
    )
    return result
