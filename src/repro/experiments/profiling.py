"""Profiled workload runners behind ``repro profile``.

Each runner executes one end-to-end workload — the refine pipeline, the
artifact compiler, or feed ingestion — under an installed
:class:`~repro.obs.profile.PhaseProfiler` (and, optionally, a
:class:`~repro.obs.sampling.StackSampler`), wrapping the coarse pipeline
stages in named phases so the engine's finer-grained phases
(``engine.dispatch``, ``engine.decision``, ...) subtract from them.
Attribution is exclusive, so the resulting PROFILE.json's ``coverage``
is a real claim: the fraction of the run's wall-clock that some named
phase owns (the refine workload must clear 90%).

The runners reset the metrics registry first — a profile is a statement
about one run, and stale counters from an earlier command would poison
the deterministic baseline ``repro bench-diff`` gates on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.obs.metrics import get_registry
from repro.obs.profile import (
    PhaseProfiler,
    build_profile_document,
    profiling,
)
from repro.obs.sampling import DEFAULT_INTERVAL, StackSampler

WORKLOAD_REFINE = "refine"
WORKLOAD_COMPILE = "compile-artifact"
WORKLOAD_INGEST = "ingest"
WORKLOADS = (WORKLOAD_REFINE, WORKLOAD_COMPILE, WORKLOAD_INGEST)


@dataclass
class ProfiledRun:
    """One profiled workload: the PROFILE.json document plus raw parts."""

    document: dict
    sampler: StackSampler | None
    result: object


def run_profiled(
    workload: dict,
    fn: Callable[[PhaseProfiler], object],
    trace_memory: bool = False,
    sample: bool = False,
    sample_mode: str = "thread",
    sample_interval: float = DEFAULT_INTERVAL,
    folded_path: str | Path | None = None,
    meta: dict | None = None,
) -> ProfiledRun:
    """Run ``fn`` under a fresh profiler (and optional stack sampler).

    ``fn`` receives the installed profiler and does the actual work;
    the registry is reset first so the document's counters describe
    this run alone.  The document's ``workload`` section is the
    caller-supplied dict (``name`` plus whatever parameters matter for
    reproducing the run).
    """
    registry = get_registry()
    registry.reset()
    sampler = (
        StackSampler(interval=sample_interval, mode=sample_mode)
        if sample
        else None
    )
    started_wall = time.perf_counter()
    started_cpu = time.process_time()
    with profiling(PhaseProfiler(trace_memory=trace_memory)) as profiler:
        if sampler is not None:
            sampler.start()
        try:
            result = fn(profiler)
        finally:
            if sampler is not None:
                sampler.stop()
    wall = time.perf_counter() - started_wall
    cpu = time.process_time() - started_cpu
    sampling_summary = None
    if sampler is not None:
        if folded_path is not None:
            sampler.write_folded(folded_path)
        sampling_summary = sampler.summary(folded_path)
    document = build_profile_document(
        profiler,
        wall_seconds=wall,
        cpu_seconds=cpu,
        workload=workload,
        meta=meta,
        registry=registry,
        sampling=sampling_summary,
    )
    return ProfiledRun(document=document, sampler=sampler, result=result)


# ----------------------------------------------------------------------
# Workload bodies
# ----------------------------------------------------------------------


def refine_workload(
    dump_path: str,
    max_iterations: int = 10,
    train_fraction: float = 0.7,
    split_seed: int = 0,
) -> Callable[[PhaseProfiler], object]:
    """The refine pipeline: parse -> build -> refine -> evaluate.

    Mirrors ``repro refine`` minus the resilience plumbing — a profile
    wants the engine hot loop dominating, not health bookkeeping.
    """

    def run(profiler: PhaseProfiler) -> dict:
        from repro.cli import _load_pruned
        from repro.core.build import build_initial_model
        from repro.core.predict import evaluate_model
        from repro.core.refine import RefinementConfig, Refiner
        from repro.core.split import split_by_observation_points

        with profiler.phase("parse"):
            _, _, _, _, _, pruned = _load_pruned(dump_path, [])
        with profiler.phase("build"):
            training, validation = split_by_observation_points(
                pruned.dataset, train_fraction, seed=split_seed
            )
            model = build_initial_model(pruned.dataset, pruned.graph)
            refiner = Refiner(
                model,
                training,
                RefinementConfig(max_iterations=max_iterations),
            )
        with profiler.phase("refine"):
            result = refiner.run()
        with profiler.phase("evaluate"):
            report = evaluate_model(result.model, validation)
        return {
            "converged": result.converged,
            "iterations": result.iteration_count,
            "validation_cases": report.total,
        }

    return run


def compile_workload(
    dump_path: str,
    max_iterations: int = 10,
) -> Callable[[PhaseProfiler], object]:
    """Build a refined model from ``dump_path``, then compile an artifact.

    The compile slice rides the ``compile.certify`` / ``compile.simulate``
    / ``compile.collect`` phases :func:`~repro.serve.compile.compile_artifact`
    reports itself; the outer ``compile`` phase owns only the glue.
    """

    def run(profiler: PhaseProfiler) -> dict:
        from repro.cli import _load_pruned
        from repro.core.build import build_initial_model
        from repro.core.refine import RefinementConfig, Refiner
        from repro.serve.compile import compile_artifact

        with profiler.phase("parse"):
            _, _, _, _, _, pruned = _load_pruned(dump_path, [])
        with profiler.phase("build"):
            model = build_initial_model(pruned.dataset, pruned.graph)
            refiner = Refiner(
                model,
                pruned.dataset,
                RefinementConfig(max_iterations=max_iterations),
            )
            result = refiner.run()
        with profiler.phase("compile"):
            artifact, report = compile_artifact(result.model)
        return {
            "prefixes": report.prefixes,
            "pairs": report.pairs,
            "observers": len(artifact.observers),
        }

    return run


def ingest_workload(feed_path: str) -> Callable[[PhaseProfiler], object]:
    """Fault-tolerant ingestion of a feed, profiled as one phase."""

    def run(profiler: PhaseProfiler) -> dict:
        from repro.data.ingest import ingest_table_dump

        with profiler.phase("ingest"):
            result = ingest_table_dump(feed_path)
        report = result.report
        return {
            "accepted": report.accepted,
            "quarantined": report.total_quarantined,
        }

    return run


# ----------------------------------------------------------------------
# PROF: profiling overhead experiment
# ----------------------------------------------------------------------


def run_profile_overhead(base=None, repeats: int = 3):
    """Measure the phase profiler's tax on the engine hot loop.

    Three modes over the same synthetic Internet: ``off`` (the shipping
    NullProfiler default — must stay within a few percent of no hooks),
    ``phases`` (full push/switch/pop attribution), and ``phases+mem``
    (attribution plus tracemalloc peaks, the expensive option).  Message
    and decision counts must be identical across modes: profiling that
    changes what the engine computes is a bug, not overhead.
    """
    from repro.bgp.engine import simulate
    from repro.data.synthesis import synthesize_internet
    from repro.experiments.report import ExperimentResult
    from repro.experiments.workloads import DEFAULT
    from repro.obs.metrics import MetricsRegistry, set_registry

    if base is None:
        base = DEFAULT
    result = ExperimentResult(
        experiment_id="PROF",
        title="Phase-profiler overhead on ground-truth simulation",
        headers=[
            "mode",
            "messages",
            "decisions",
            "best seconds",
            "overhead",
            "coverage",
        ],
    )
    internet = synthesize_internet(base.config)

    def simulate_once() -> tuple[float, int, int]:
        started = time.perf_counter()
        stats = simulate(internet.network)
        return time.perf_counter() - started, stats.messages, stats.decisions

    def best_of(runner) -> tuple[float, int, int]:
        return min(
            (runner() for _ in range(max(1, repeats))),
            key=lambda timing: timing[0],
        )

    previous_registry = set_registry(MetricsRegistry())
    coverages: dict[str, float] = {}
    try:
        off_seconds, messages, decisions = best_of(simulate_once)

        def profiled(trace_memory: bool, label: str):
            def run() -> tuple[float, int, int]:
                with profiling(
                    PhaseProfiler(trace_memory=trace_memory)
                ) as profiler:
                    timing = simulate_once()
                coverages[label] = profiler.coverage(timing[0])
                return timing

            return run

        on_seconds, on_messages, on_decisions = best_of(
            profiled(False, "phases")
        )
        mem_seconds, mem_messages, mem_decisions = best_of(
            profiled(True, "phases+mem")
        )
    finally:
        set_registry(previous_registry)
    for label, counts in (
        ("phases", (on_messages, on_decisions)),
        ("phases+mem", (mem_messages, mem_decisions)),
    ):
        if counts != (messages, decisions):
            raise AssertionError(
                f"profiling mode {label!r} changed simulation behaviour: "
                f"{(messages, decisions)} != {counts}"
            )

    def overhead(seconds: float) -> float:
        return seconds / off_seconds - 1.0 if off_seconds else 0.0

    result.add_row("off (NullProfiler)", messages, decisions,
                   f"{off_seconds:.3f}s", "baseline", "-")
    result.add_row("phases", messages, decisions, f"{on_seconds:.3f}s",
                   f"{overhead(on_seconds):+.1%}",
                   f"{coverages['phases']:.1%}")
    result.add_row("phases+mem", messages, decisions, f"{mem_seconds:.3f}s",
                   f"{overhead(mem_seconds):+.1%}",
                   f"{coverages['phases+mem']:.1%}")
    result.metrics["seconds_off"] = off_seconds
    result.metrics["seconds_phases"] = on_seconds
    result.metrics["seconds_phases_mem"] = mem_seconds
    result.metrics["overhead_fraction"] = overhead(on_seconds)
    result.metrics["coverage"] = coverages["phases"]
    result.metrics["messages"] = float(messages)
    result.metrics["decisions"] = float(decisions)
    result.note(
        "phases mode pays two clock reads per transition in the engine "
        "hot loop; phases+mem adds tracemalloc, which multiplies "
        "allocation cost and is opt-in (--trace-memory). The off mode is "
        "the shipping default: one enabled-flag check per hook point."
    )
    return result
