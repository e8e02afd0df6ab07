"""``repro chaos`` — run the pipeline over a deterministically
fault-injected workload (dispute wheels, corrupted dump lines, session
flaps, a starved ``--message-budget``) with one bounded simulation
attempt per prefix, and emit a JSON run-health report.  SIGINT/SIGTERM
during a ``--workers N`` phase drains gracefully: the partial results
are merged and the run exits 5 with ``interrupted: true`` in its
report.  ``--serve`` runs the serve-path resilience campaign instead.
Its stages are ``RunHealth`` phases, so ``repro --profile PATH chaos``
attributes the run to them.
"""

from __future__ import annotations

import argparse
import sys

from repro.command import (
    Command,
    add_parallel_arguments,
    parallel_config,
    positive_float,
    positive_int,
)
from repro.errors import UsageError
from repro.experiments import serve_chaos
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.report import write_json
from repro.obs.meta import run_metadata
from repro.resilience.faults import FaultConfig
from repro.resilience.health import EXIT_UNCONVERGED, RunHealth


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=positive_float, default=0.25,
                        help="population scale of the synthetic Internet")
    parser.add_argument("--points", type=positive_int, default=12,
                        help="number of observation ASes")
    parser.add_argument("--dispute-wheels", type=int, default=2,
                        help="prefixes sabotaged with local-pref dispute wheels")
    parser.add_argument("--corrupt-fraction", type=float, default=0.1,
                        help="fraction of dump lines garbled")
    parser.add_argument("--truncate-fraction", type=float, default=0.05,
                        help="fraction of dump lines truncated")
    parser.add_argument("--flap-sessions", type=int, default=2,
                        help="eBGP peerings torn down before simulation")
    parser.add_argument("--message-budget", type=int, default=None,
                        help="sabotaged per-prefix message budget")
    parser.add_argument("--lint-gate", action="store_true",
                        help="statically quarantine wheel prefixes before "
                             "simulating instead of burning message budget")
    parser.add_argument("--refine-iterations", type=int, default=10)
    parser.add_argument("--health-report",
                        help="write the JSON RunHealth report to this path "
                             "(default: stdout)")
    parser.add_argument("--trace",
                        help="write a JSONL span/event trace of the run here")
    add_parallel_arguments(parser)
    parser.add_argument("--kill-prefixes", type=int, default=0,
                        help="prefixes whose parallel task kills its worker "
                             "outright (needs --workers >= 2)")
    parser.add_argument("--hang-prefixes", type=int, default=0,
                        help="prefixes whose parallel task hangs until the "
                             "task watchdog fires (needs --workers >= 2)")
    parser.add_argument("--serve", action="store_true", dest="serve_campaign",
                        help="run the serve-path resilience campaign (hot "
                             "reloads, worker kills, overload, drain) "
                             "against a real 'repro serve' process tree "
                             "instead of the pipeline campaign")
    parser.add_argument("--serve-workers", type=int, default=2,
                        help="SO_REUSEPORT workers for the --serve campaign")
    parser.add_argument("--bench-out", metavar="PATH",
                        help="with --serve: write the campaign's "
                             "BENCH_serve_resilience.json here")


def _chaos(args: argparse.Namespace) -> RunHealth | int | None:
    if args.serve_campaign:
        return _chaos_serve(args)
    parallel = parallel_config(args)
    if parallel is None and (args.kill_prefixes or args.hang_prefixes):
        raise UsageError("--kill-prefixes/--hang-prefixes need --workers >= 2")
    health = run_chaos(ChaosConfig(
        seed=args.seed,
        scale=args.scale,
        points=args.points,
        refine_iterations=args.refine_iterations,
        faults=FaultConfig(
            seed=args.seed,
            dispute_wheels=args.dispute_wheels,
            corrupt_line_fraction=args.corrupt_fraction,
            truncate_line_fraction=args.truncate_fraction,
            session_flaps=args.flap_sessions,
            message_budget=args.message_budget,
            worker_crash_prefixes=args.kill_prefixes,
            worker_hang_prefixes=args.hang_prefixes,
        ),
        lint_gate=args.lint_gate,
        parallel=parallel,
    ))
    health.record_meta({**args.meta, "seed": args.seed})
    health.record_metrics()
    if not args.health_report:
        print(health.to_json())
    simulation = health.simulation or {}
    parts = [
        f"chaos: {simulation.get('prefixes', 0)} prefixes",
        f"{simulation.get('attempts', 0)} attempts",
        f"{len(simulation.get('diverged') or [])} diverged",
        f"{len(simulation.get('unsafe') or [])} statically unsafe",
    ]
    if parallel is not None:
        parts.append(f"{len(simulation.get('poison') or [])} poison")
        parts.append(f"{len(simulation.get('timeout') or [])} timed out")
    if health.interrupted:
        parts.append("interrupted")
    parts.append(f"exit code {health.exit_code}")
    print(", ".join(parts), file=sys.stderr)
    return health


def _chaos_serve(args: argparse.Namespace) -> int | None:
    """``repro chaos --serve``: the serve-resilience campaign."""
    if args.serve_workers < 2:
        raise UsageError("--serve-workers must be >= 2 (worker-kill recovery "
                         "needs a surviving worker)")
    config = serve_chaos.ServeChaosConfig(seed=args.seed, workers=args.serve_workers)
    try:
        result = serve_chaos.run(config)
    except AssertionError as error:
        print(f"serve chaos campaign FAILED: {error}", file=sys.stderr)
        return EXIT_UNCONVERGED
    print(result.render())
    if args.bench_out:
        path = write_json(args.bench_out, result.to_record(run_metadata()))
        print(f"wrote {path}", file=sys.stderr)
    return None


CHAOS = Command(
    "chaos", "run the pipeline over a fault-injected workload",
    _chaos_arguments, _chaos, ("health_report", "health report"),
)
