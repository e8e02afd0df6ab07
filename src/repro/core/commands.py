"""The ``repro`` command that builds a model.

``repro refine`` builds and refines an AS-routing model from a dump,
evaluates it on a held-out split, and optionally saves the model as a
C-BGP-style config.  ``--workers N`` fans per-prefix simulation out to
a supervised worker pool (crash isolation, per-task watchdogs,
poison-prefix quarantine); ``--workers 1`` (the default) keeps the
sequential path bit-for-bit.  The run is its ``RunHealth``: returned
(exit 1 stalled, 3 quarantined), or hung on the error that ended it —
an unusable dump, a corrupt checkpoint, a SIGINT/SIGTERM drain.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.analyzer import analyze_model
from repro.cbgp.export import export_network
from repro.command import (
    Command,
    add_parallel_arguments,
    open_unit_fraction,
    parallel_config,
)
from repro.core.build import build_initial_model
from repro.core.metrics import MatchKind
from repro.core.predict import evaluate_model
from repro.core.refine import RefinementConfig, Refiner
from repro.core.split import split_by_observation_points
from repro.data.dumps import read_table_dump
from repro.errors import (
    CheckpointError,
    DatasetError,
    ShutdownRequested,
)
from repro.resilience.health import RunHealth
from repro.resilience.retry import ResilienceStats
from repro.topology.prune import prepare_dataset


def _refine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dump", help="bgpdump -m style file")
    parser.add_argument("--train-fraction", type=open_unit_fraction, default=0.5)
    parser.add_argument("--split-seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=60)
    parser.add_argument("--out", help="write the refined model config here")
    parser.add_argument("--health-report",
                        help="write a JSON RunHealth report to this path")
    parser.add_argument("--checkpoint",
                        help="snapshot the run here; resumes if the file exists")
    parser.add_argument("--checkpoint-every", type=int, default=5,
                        help="iterations between checkpoint snapshots")
    parser.add_argument("--lint-gate", action="store_true",
                        help="statically quarantine dispute-wheel prefixes "
                             "before simulating (zero attempts spent on them)")
    parser.add_argument("--trace",
                        help="write a JSONL span/event trace of the run here")
    add_parallel_arguments(parser)


def _refine(args: argparse.Namespace) -> RunHealth:
    health = RunHealth()
    health.record_meta({**args.meta, "seed": args.split_seed})
    try:
        _refine_into(health, args)
    except (DatasetError, CheckpointError) as error:
        health.record_error(error)
        error.report = health
        raise
    except ShutdownRequested as shutdown:
        health.interrupted = True
        shutdown.report = health
        raise
    finally:
        health.record_metrics()
    return health


def _refine_into(health: RunHealth, args: argparse.Namespace) -> None:
    """The ``repro refine`` pipeline; what it learns lands in ``health``."""
    with health.phase("parse"):
        parsed = read_table_dump(args.dump)
        *_, pruned = prepare_dataset(parsed.dataset)
    health.record_parse(parsed)
    training, validation = split_by_observation_points(
        pruned.dataset, args.train_fraction, seed=args.split_seed
    )
    model = build_initial_model(pruned.dataset, pruned.graph)
    if args.lint_gate:
        with health.phase("lint"):
            lint_report = analyze_model(model, dataset=training)
        health.record_lint(lint_report)
        if lint_report.errors:
            print(
                f"lint gate: {len(lint_report.errors)} error finding(s); "
                "statically-unsafe prefixes will be quarantined unsimulated",
                file=sys.stderr,
            )
    refiner = Refiner(
        model,
        training,
        RefinementConfig(
            max_iterations=args.max_iterations,
            checkpoint_every=args.checkpoint_every,
            lint_gate=args.lint_gate,
            parallel=parallel_config(args),
        ),
    )
    started = time.perf_counter()
    try:
        with health.phase("refine"):
            result = refiner.run(checkpoint=args.checkpoint)
    finally:
        # Also on the way out of a drain: the partial outcomes are the report.
        simulation = ResilienceStats(
            outcomes=refiner.outcomes, supervision=refiner.supervision
        )
        if refiner.outcomes:
            health.record_simulation(simulation)
    model = result.model  # a resumed run swaps in the checkpointed model
    print(
        f"refinement: {result.iteration_count} iterations, "
        f"converged={result.converged}"
    )
    print(f"refinement took {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(f"model: {model}")
    unmatched = refiner.unmatched_paths() if not result.converged else []
    health.record_refinement(result, unmatched)
    quarantined = sorted(set(health.diverged_prefixes))
    if quarantined:
        print(f"quarantined diverged prefixes: {' '.join(quarantined)}",
              file=sys.stderr)
    # A quarantined prefix carries no routes and would diverge again if
    # the evaluation re-simulated it: grade the origins that have a model.
    skipped = {model.origin_by_prefix.get(p) for p in simulation.quarantined}
    with health.phase("evaluate"):
        for label, dataset in (("training", training), ("validation", validation)):
            if skipped:
                dataset = dataset.filter_routes(
                    lambda route: route.origin_asn not in skipped
                )
            report = evaluate_model(model, dataset)
            print(
                f"{label:<11} cases={report.total} "
                f"rib-out={report.rib_out_rate:.1%} "
                f"potential={report.rate(MatchKind.POTENTIAL_RIB_OUT):.1%} "
                f"tie-break+={report.tie_break_or_better_rate:.1%} "
                f"rib-in+={report.rib_in_or_better_rate:.1%}"
            )
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            export_network(model.network, handle)
        print(f"wrote model config to {args.out}")


REFINE = Command(
    "refine", _refine_arguments, _refine, ("health_report", "health report")
)
