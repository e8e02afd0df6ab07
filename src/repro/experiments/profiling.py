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
        from repro.core.build import build_initial_model
        from repro.core.predict import evaluate_model
        from repro.core.refine import RefinementConfig, Refiner
        from repro.core.split import split_by_observation_points
        from repro.data.dumps import read_table_dump
        from repro.topology.prune import prepare_dataset

        with profiler.phase("parse"):
            *_, pruned = prepare_dataset(read_table_dump(dump_path).dataset)
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
        from repro.core.build import build_initial_model
        from repro.core.refine import RefinementConfig, Refiner
        from repro.data.dumps import read_table_dump
        from repro.serve.compile import compile_artifact
        from repro.topology.prune import prepare_dataset

        with profiler.phase("parse"):
            *_, pruned = prepare_dataset(read_table_dump(dump_path).dataset)
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
