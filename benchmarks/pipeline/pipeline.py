"""One pass of the paper's pipeline over one workload, timed from outside.

dumps -> AS graph -> per-prefix simulation -> iterative refinement ->
prediction on held-out vantage points -> compiled artifact -> queries ->
what-if campaign.  The pass drives each layer through its public
functions only and wraps every call in a span; nothing here reaches into
``src/``.  A traced pass additionally installs the shipped
``PhaseProfiler``, simulates the ground truth one ``simulate_prefix``
call at a time, and recompiles with a 2-worker pool.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.bgp.engine import EngineStats, simulate, simulate_prefix
from repro.campaign import (
    context_from_artifact,
    generate_catchment,
    generate_depeer,
    generate_hijack,
    run_campaign,
    validate_baseline,
)
from repro.core.build import build_initial_model
from repro.core.metrics import AgreementCategory, evaluate_agreement
from repro.core.predict import evaluate_model, predict_paths, simulate_for_dataset
from repro.core.refine import RefinementConfig, Refiner
from repro.core.split import split_by_observation_points
from repro.data.dumps import read_table_dump, write_table_dump
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import synthesize_internet
from repro.net.ip import ip_to_string
from repro.obs.metrics import get_registry
from repro.obs.profile import PhaseProfiler, profiling
from repro.parallel import ParallelConfig
from repro.parallel.protocol import dump_network
from repro.relationships.gao import enforce_acyclic_hierarchy
from repro.relationships.policies import apply_relationship_policies
from repro.relationships.valleyfree import infer_valley_free_relationships
from repro.serve import PredictionArtifact, QueryEngine, compile_artifact
from repro.topology.classify import classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.graph import ASGraph
from repro.topology.prune import prune_single_homed_stubs

from spans import Recorder, median_and_tail, stage_coverage
from workloads import (
    ARTIFACT_CHECK_STRIDE,
    QUERIES_PER_CHUNK,
    SETUP_REPEATS,
    Workload,
)

TIMED_STAGES = (
    "truth", "observe", "ingest", "baseline", "model", "validate",
    "compile", "query", "campaign",
)
"""The stages ``wall_s`` sums, in pipeline order."""

DIVERSITY_CACHE = 64
TRUTH_PARTS = 4


class CheckFailed(Exception):
    """A correctness gate failed; no number may be reported."""


@dataclass
class PassResult:
    """Everything one pass measured."""

    recorder: Recorder
    traced: bool
    values: dict[str, float] = field(default_factory=dict)
    """Counts, rates and sample statistics, keyed by per-layer metric name."""
    exact: dict[str, object] = field(default_factory=dict)
    """Simulated statistics that must repeat exactly at equal seed."""
    attempted: int = 0
    failed: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    """Profiler self-time per phase name (traced passes only)."""

    def stage_seconds(self, stage: str) -> float:
        return self.recorder.seconds(f"stage.{stage}")

    @property
    def wall_seconds(self) -> float:
        return sum(self.stage_seconds(stage) for stage in TIMED_STAGES)


def require(condition: bool, check: str, detail: str) -> None:
    if not condition:
        raise CheckFailed(f"{check}: {detail}")


def run_pass(
    workload: Workload, seed: int, scratch: Path, traced: bool
) -> PassResult:
    """Run every stage once.  Raises :class:`CheckFailed` naming a gate."""
    # The previous pass's router/session cycles must not be collected
    # on this pass's clock.
    gc.collect()
    recorder = Recorder(workload.name)
    result = PassResult(recorder=recorder, traced=traced)
    registry = get_registry()
    registry.reset()
    profiler = PhaseProfiler() if traced else None
    with profiling(profiler) if profiler else nullcontext():
        with recorder.span("workload"):
            _run_stages(workload, random.Random(seed), scratch, result)
    if profiler is not None:
        result.phases = {
            name: stat.wall_seconds for name, stat in profiler.phases.items()
        }
    counters = registry.snapshot()["counters"]
    values = result.values
    values["bgp.clauses_evaluated"] = counters.get("engine.clauses_evaluated", 0)
    values["bgp.clauses_matched"] = counters.get("engine.clauses_matched", 0)
    values["bgp.budget_exhaustions"] = counters.get("engine.budget_exhausted", 0)
    values["resilience.retry_attempts"] = counters.get("retry.retries", 0)
    values["resilience.quarantined_prefixes"] = counters.get("retry.quarantined", 0)
    result.failed += int(values["resilience.quarantined_prefixes"])
    result.exact["bgp.clauses_evaluated"] = values["bgp.clauses_evaluated"]
    values["obs.span_count"] = len(recorder.spans)
    values["obs.stage_coverage"] = stage_coverage(recorder.spans)
    if traced:
        require(
            values["obs.stage_coverage"] >= 0.95,
            "stage-coverage",
            f"stage spans cover {values['obs.stage_coverage']:.3f} of the workload span",
        )
    return result


def _run_stages(
    workload: Workload, rng: random.Random, scratch: Path, result: PassResult
) -> None:
    recorder, values, exact = result.recorder, result.values, result.exact
    call, stage = recorder.call, recorder.stage
    traced = result.traced

    # Set-up is repeated so its reported time is a median, not one draw.
    for _ in range(SETUP_REPEATS):
        with stage("setup"):
            internet = call("data.synth", synthesize_internet, workload.world)
            points = call(
                "data.select_points", select_observation_points, internet,
                workload.observation_ases, seed=workload.observation_seed,
                multi_point_fraction=workload.multi_point_fraction,
            )
    network = internet.network

    # The longest stage is simulated a quarter of the prefixes at a time,
    # so the sandbox's speed is sampled inside it and not only around it.
    truth = EngineStats()
    prefixes = network.prefixes()
    for part in range(TRUTH_PARTS):
        with stage("truth"):
            if traced:
                for prefix in prefixes[part::TRUTH_PARTS]:
                    truth.merge(
                        call("bgp.simulate_prefix", simulate_prefix, network, prefix)
                    )
            else:
                truth.merge(call(
                    "bgp.simulate", simulate, network, prefixes[part::TRUTH_PARTS],
                    on_divergence="quarantine",
                ))
    if traced:
        (
            values["bgp.sim_prefix_p50_ms"],
            values["bgp.sim_prefix_tail_pct"],
            values["bgp.sim_prefix_tail_ms"],
        ) = median_and_tail([s * 1e3 for s in recorder.durations("bgp.simulate_prefix")])
    values["bgp.truth_messages"] = exact["bgp.truth_messages"] = truth.messages
    values["bgp.truth_decisions"] = exact["bgp.truth_decisions"] = truth.decisions
    result.attempted += truth.prefixes
    result.failed += len(truth.diverged)

    dump_path = scratch / f"{workload.name}.dump"
    with stage("observe"):
        observed = call("data.collect", collect_dataset, network, points)
        lines = call("data.dump_write", write_table_dump, observed, dump_path)

    with stage("ingest"):
        parsed = call("data.dump_read", read_table_dump, dump_path)
        dataset = call("data.clean", parsed.dataset.cleaned)
        graph = call("topology.graph", ASGraph.from_dataset, dataset)
        with recorder.span("topology.classify"):
            seeds = [asn for asn in internet.level1_asns if asn in graph.ases()][:3]
            level1 = infer_level1_clique(graph, seeds)
            classification = classify_ases(dataset, graph, level1)
        pruned = call(
            "topology.prune", prune_single_homed_stubs, dataset, graph, classification
        )
    report = parsed.report
    values["data.dump_routes"] = exact["data.dump_routes"] = report.accepted
    values["data.dump_rejected"] = report.total_quarantined
    values["topology.ases"] = pruned.graph.num_ases()
    values["topology.edges"] = pruned.graph.num_edges()
    result.attempted += report.lines
    result.failed += report.total_quarantined
    require(
        report.accepted == lines == len(observed) and not report.total_quarantined,
        "dump-round-trip",
        f"wrote {lines} routes, read back {report.accepted} "
        f"({report.total_quarantined} rejected)",
    )

    with stage("baseline"):
        with recorder.span("relationships.infer"):
            relationships = infer_valley_free_relationships(pruned.dataset, level1)
            enforce_acyclic_hierarchy(relationships)
        with recorder.span("relationships.apply"):
            baseline = build_initial_model(pruned.dataset, pruned.graph.copy())
            apply_relationship_policies(baseline.network, relationships)
        baseline_stats = call(
            "relationships.baseline_sim", baseline.simulate_all, tolerate_divergence=True
        )
        agreement = call(
            "relationships.agree", evaluate_agreement, baseline, pruned.dataset
        )
    values["relationships.agree_rate"] = agreement[AgreementCategory.AGREE] / max(
        1, sum(agreement.values())
    )
    result.attempted += baseline_stats.prefixes
    result.failed += len(baseline_stats.diverged)

    with stage("model"):
        training, validation = call(
            "core.split", split_by_observation_points, pruned.dataset,
            workload.training_fraction, seed=workload.split_seed,
        )
        model = call("core.build", build_initial_model, pruned.dataset, pruned.graph)
        refined = call("core.refine", Refiner(model, training, RefinementConfig()).run)
    iterations = refined.iterations
    model_stats = model.stats()
    values["core.refine_iterations"] = exact["core.refine_iterations"] = len(iterations)
    values["core.prefixes_resimulated"] = sum(i.prefixes_resimulated for i in iterations)
    values["core.policies_installed"] = sum(i.policies_installed for i in iterations)
    values["core.routers_added"] = sum(i.routers_added for i in iterations)
    values["core.quasi_routers"] = exact["core.quasi_routers"] = model_stats["routers"]
    values["core.sessions"] = exact["core.sessions"] = model_stats["sessions"]
    values["core.policy_clauses"] = model_stats["policy_clauses"]
    values["core.train_match"] = refined.final_match_rate
    require(
        refined.converged and refined.final_match_rate == 1.0,
        "training-match",
        f"refinement matched {refined.final_match_rate:.4f} of the training paths "
        f"after {len(iterations)} iterations (converged={refined.converged})",
    )

    with stage("validate"):
        call("core.validate_sim", simulate_for_dataset, model, validation)
        grades = call(
            "core.validate_grade", evaluate_model, model, validation, resimulate=False
        )
    values["core.val_rib_out"] = grades.rib_out_rate
    values["core.val_tiebreak"] = grades.tie_break_or_better_rate
    require(
        grades.tie_break_or_better_rate >= workload.min_validation,
        "validation",
        f"{grades.tie_break_or_better_rate:.3f} of {grades.total} held-out paths "
        f"matched to the tie-break, below {workload.min_validation}",
    )

    artifact_path = scratch / f"{workload.name}.artifact"
    artifact_meta = {"benchmark": workload.name}
    with stage("compile") as compile_stage:
        artifact, compiled = call(
            "serve.compile", compile_artifact, model, meta=artifact_meta
        )
        size = call("serve.artifact_save", artifact.save, artifact_path)
        loaded = call("serve.artifact_load", PredictionArtifact.load, artifact_path)
    # The compiler's own stopwatch reads wall-clock; bring it to the stage's speed.
    values["analysis.certify_s"] = compiled.certify_seconds * compile_stage.speed
    values["analysis.findings"] = compiled.certified_findings
    values["serve.compile_simulate_s"] = compiled.simulate_seconds * compile_stage.speed
    values["serve.compile_collect_s"] = compiled.collect_seconds * compile_stage.speed
    values["serve.artifact_bytes"] = size
    values["serve.pairs"] = exact["serve.pairs"] = compiled.pairs
    result.attempted += compiled.prefixes
    result.failed += len(compiled.quarantined)

    pairs = sorted(loaded.paths)
    with stage("check"):
        for origin, observer in pairs[::ARTIFACT_CHECK_STRIDE]:
            require(
                set(loaded.paths[(origin, observer)])
                == predict_paths(model, origin, observer),
                "artifact-vs-live",
                f"artifact and live prediction disagree for ({origin}, {observer})",
            )

    _query_mix(workload, rng, loaded, pairs, result)
    _campaign(workload, rng, model, loaded, result)

    if traced:
        with stage("extras"):
            # What run_campaign pays per scenario for isolation: the
            # campaign left the network cleared, as its own copies are.
            with recorder.span("campaign.network_copy"):
                pickle.loads(dump_network(model.network))
            parallel_artifact, _ = call(
                "parallel.compile_w2", compile_artifact, model,
                parallel=ParallelConfig(workers=2), meta=artifact_meta,
            )
        require(
            parallel_artifact.to_payload() == artifact.to_payload(),
            "parallel-equals-sequential",
            "the 2-worker artifact payload differs from the sequential one",
        )
        values["parallel.cpu_count"] = os.cpu_count() or 1


def _query_mix(
    workload: Workload,
    rng: random.Random,
    artifact: PredictionArtifact,
    pairs: list[tuple[int, int]],
    result: PassResult,
) -> None:
    """Equal thirds of paths (warm LRU), diversity (all misses), lookup.

    ``paths`` goes through an LRU sized to every pair and filled before
    timing.  ``diversity`` and ``lookup`` walk a seeded permutation of
    the pairs through a 64-entry LRU, so no key recurs within the cache's
    reach and every query misses.  Answers are checked against the
    artifact after each chunk's clock has stopped.
    """
    with result.recorder.stage("query") as stage:
        chunk_us, seconds, counts, wrong, stats = _timed_chunks(
            workload, rng, artifact, pairs, result.recorder
        )
    # The chunk stopwatch reads wall-clock; bring it to the stage's speed.
    values = result.values
    median, values["serve.query_tail_pct"], tail = median_and_tail(chunk_us)
    values["query_us"] = median * stage.speed
    values["serve.query_tail_us"] = tail * stage.speed
    for kind, metric in (
        ("paths", "serve.paths_warm_us"),
        ("diversity", "serve.diversity_miss_us"),
        ("lookup", "serve.lookup_us"),
    ):
        values[metric] = (
            statistics.median(seconds[kind]) * 1e6 / counts[kind] * stage.speed
        )
    values["serve.cache_hit_rate"] = sum(s["hits"] for s in stats) / (
        sum(s["queries"] for s in stats) - len(pairs)
    )
    result.attempted += workload.query_chunks * QUERIES_PER_CHUNK
    result.failed += wrong + sum(s["errors"] for s in stats)


def _timed_chunks(workload, rng, artifact, pairs, recorder):
    """Build the engines and the query stream, then time the chunks."""
    order = list(pairs)
    rng.shuffle(order)
    expected = [artifact.paths[pair] for pair in order]
    addresses = [
        ip_to_string(artifact.origins[origin].network + rng.randrange(1, 255))
        for origin, _ in order
    ]
    warm = recorder.call("serve.engine_build", QueryEngine, artifact, len(order) + 1)
    cold = recorder.call("serve.engine_build", QueryEngine, artifact, DIVERSITY_CACHE)
    with recorder.span("serve.cache_fill"):
        for origin, observer in order:
            warm.paths(origin, observer)

    third = QUERIES_PER_CHUNK // 3
    counts = {"paths": QUERIES_PER_CHUNK - 2 * third, "diversity": third, "lookup": third}
    cursor = dict.fromkeys(counts, 0)
    seconds: dict[str, list[float]] = {kind: [] for kind in counts}
    chunk_us = []
    wrong = 0
    clock = time.perf_counter
    with recorder.span("serve.query_chunks"):
        for _ in range(workload.query_chunks):
            picks = {}
            for kind, count in counts.items():
                picks[kind] = [(cursor[kind] + i) % len(order) for i in range(count)]
                cursor[kind] = (cursor[kind] + count) % len(order)
            lookups = [(addresses[i], order[i][1]) for i in picks["lookup"]]
            started = clock()
            paths = [warm.paths(*order[i]) for i in picks["paths"]]
            after_paths = clock()
            diversity = [cold.diversity(*order[i]) for i in picks["diversity"]]
            after_diversity = clock()
            looked_up = [cold.lookup(address, observer) for address, observer in lookups]
            ended = clock()
            seconds["paths"].append(after_paths - started)
            seconds["diversity"].append(after_diversity - after_paths)
            seconds["lookup"].append(ended - after_diversity)
            chunk_us.append((ended - started) * 1e6 / QUERIES_PER_CHUNK)
            wrong += sum(a.paths != expected[i] for a, i in zip(paths, picks["paths"]))
            wrong += sum(
                a.path_count != len(expected[i])
                for a, i in zip(diversity, picks["diversity"])
            )
            wrong += sum(
                a.origin != order[i][0] or a.paths != expected[i]
                for a, i in zip(looked_up, picks["lookup"])
            )
    stats = [engine.cache_stats() for engine in (warm, cold)]
    return chunk_us, seconds, counts, wrong, stats


def _campaign(
    workload: Workload,
    rng: random.Random,
    model,
    artifact: PredictionArtifact,
    result: PassResult,
) -> None:
    """Depeer, hijack and catchment scenarios against the compiled baseline.

    One sequential ``run_campaign`` call per kind.  The seed draws the
    hijack victim and attackers and the anycast sites, each one
    single-prefix simulation.  The depeer scenarios are the first
    adjacencies by key: each re-simulates every prefix at a cost that
    depends on the adjacency, and a seeded sample of them spread
    ``campaign_s`` by 9% between seeds.
    """
    recorder, values = result.recorder, result.values
    origins = sorted(model.prefix_by_origin)
    victim = rng.choice(origins)
    sites = rng.sample(origins, workload.catchment_sites)
    with recorder.stage("campaign"):
        model.network.clear_routing()
        recorder.call("campaign.validate_baseline", validate_baseline, model, artifact)
        context = recorder.call("campaign.context", context_from_artifact, artifact)
        with recorder.span("campaign.generate"):
            scenarios = {
                "depeer": sorted(generate_depeer(model), key=lambda s: s.key)[
                    : workload.depeer
                ],
                "hijack": rng.sample(generate_hijack(model, victim), workload.hijack),
                "catchment": generate_catchment(model, sites),
            }
    reports = []
    for kind, chosen in scenarios.items():
        with recorder.stage("campaign"):  # one per kind: see TRUTH_PARTS
            report = recorder.call(
                f"campaign.{kind}", run_campaign, model, kind, chosen, context
            )
        reports.append(report)
        values[f"campaign.{kind}_mean_s"] = recorder.seconds(f"campaign.{kind}") / len(chosen)
        bad = [o.key for o in report.outcomes if o.quarantined]
        require(not bad, "campaign-outcomes", f"{kind} scenarios not ok: {bad}")
    scenarios_run = sum(len(report.outcomes) for report in reports)
    values["campaign.scenarios"] = scenarios_run
    values["campaign.quarantined"] = sum(r.counts()["quarantined"] for r in reports)
    values["campaign.top_blast_radius"] = max(
        outcome.blast_radius for report in reports for outcome in report.outcomes
    )
    digest = hashlib.sha256()
    for report in reports:
        digest.update(
            json.dumps(report.to_dict(include_meta=False), sort_keys=True).encode()
        )
    result.exact["campaign.report_sha256"] = digest.hexdigest()
    result.attempted += scenarios_run
    result.failed += int(values["campaign.quarantined"])
