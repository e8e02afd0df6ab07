"""Scenario-campaign throughput study (``BENCH_campaign.json``).

Sweeps the depeering scenario space of a refined model through the
campaign engine — sequentially and fanned out across the supervised
pool — and records the throughput (scenarios per minute) and quarantine
rate of each configuration.  The two configurations must produce
bit-identical ranked reports once ``meta`` is set aside; that is
asserted here, not just recorded, because a pool that changed a ranking
would silently invalidate every campaign comparison.
"""

from __future__ import annotations

import time

from repro.campaign import (
    context_from_artifact,
    generate_depeer,
    run_campaign,
    validate_baseline,
)
from repro.experiments import models
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import SMALL, Workload, prepare
from repro.parallel import ParallelConfig
from repro.serve.compile import compile_artifact


def run(
    base: Workload = SMALL,
    max_scenarios: int = 12,
    worker_counts: tuple[int, ...] = (2,),
) -> ExperimentResult:
    """Time a capped depeer campaign, sequential vs. supervised pool."""
    result = ExperimentResult(
        experiment_id="CAMP",
        title="Depeer-campaign throughput: sequential vs. supervised pool",
        headers=[
            "workers", "scenarios", "completed", "quarantined",
            "seconds", "scenarios/min",
        ],
    )
    prepared = prepare(base)
    model, _ = models.refined_model(prepared, fresh=True)
    artifact, _ = compile_artifact(model)
    model.network.clear_routing()
    validate_baseline(model, artifact)
    context = context_from_artifact(artifact)
    scenarios = sorted(generate_depeer(model), key=lambda s: s.key)
    capped = scenarios[:max_scenarios]

    def timed(parallel: ParallelConfig | None):
        started = time.perf_counter()
        report = run_campaign(
            model, "depeer", capped, context, parallel=parallel
        )
        return time.perf_counter() - started, report

    def record(label: str, seconds: float, report) -> float:
        counts = report.counts()
        per_minute = (
            counts["scenarios"] * 60.0 / seconds if seconds else float("inf")
        )
        result.add_row(
            label, counts["scenarios"], counts["completed"],
            counts["quarantined"], f"{seconds:.2f}s", f"{per_minute:.1f}",
        )
        return per_minute

    baseline_seconds, baseline = timed(None)
    result.metrics["scenarios_per_minute"] = record(
        "1 (sequential)", baseline_seconds, baseline
    )
    reference = baseline.to_dict(include_meta=False)
    for workers in worker_counts:
        elapsed, report = timed(ParallelConfig(workers=workers))
        if report.to_dict(include_meta=False) != reference:
            raise AssertionError(
                f"workers={workers} changed the ranked campaign report"
            )
        result.metrics[f"scenarios_per_minute_workers_{workers}"] = record(
            str(workers), elapsed, report
        )

    counts = baseline.counts()
    result.metrics["scenarios"] = float(counts["scenarios"])
    result.metrics["scenarios_quarantined"] = float(counts["quarantined"])
    result.metrics["quarantine_rate"] = (
        counts["quarantined"] / counts["scenarios"] if counts["scenarios"]
        else 0.0
    )
    ranked = baseline.ranked()
    result.metrics["top_blast_radius"] = (
        ranked[0].blast_radius if ranked else 0.0
    )
    result.note(
        f"depeer scenario space capped at {max_scenarios} of "
        f"{len(scenarios)} removable sessions (key order)"
    )
    result.note(
        "ranked reports verified bit-identical across all worker counts "
        "(meta excluded); the pool trades time, never rankings"
    )
    return result
