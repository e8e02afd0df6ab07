"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the paper's workflow:

* ``repro synthesize`` — generate a synthetic Internet, simulate ground
  truth, and write a bgpdump-style RIB snapshot (plus optionally the
  ground-truth C-BGP config).
* ``repro ingest`` — fault-tolerant ingestion of a real feed (RouteViews
  style ``bgpdump -m`` table dump or CAIDA as-rel file): hardened
  streaming parse with typed record quarantine, sanitization passes
  (loops, bogon ASNs, martian prefixes, prepend collapse), a
  malformed-burst circuit breaker, periodic checkpoints with
  ``--resume``, and an exact JSON/text ``IngestReport``.
* ``repro analyze`` — Section 3 analysis of a dump: dataset summary,
  level-1 clique, classification, pruning, Figure 2 / Table 1 statistics.
* ``repro refine`` — build and refine an AS-routing model from a dump,
  evaluate on a held-out split, and optionally save the model as a
  C-BGP-style config.
* ``repro lint`` — static analysis of a saved model config (or of the
  certificates embedded in a compiled artifact), no simulation:
  dispute-wheel safety, route-map lint, topology lint, and — with
  ``--relationships`` — Gao-Rexford valley-free export compliance.
  ``--diff BASE`` statically diffs two models/artifacts into new /
  resolved / unchanged findings.  Exits 1 if any error-severity finding
  (for ``--diff``: any *new* error) is reported, 0 otherwise.
* ``repro whatif`` — load a saved model and predict the impact of
  removing an AS adjacency.
* ``repro chaos`` — run the pipeline over a deterministically
  fault-injected workload (dispute wheels, corrupted dump lines, session
  flaps, a starved ``--message-budget``) with one bounded simulation
  attempt per prefix, and emit a JSON run-health report.
* ``repro explain`` — replay one prefix of a saved model and print
  hop-by-hop decision provenance: candidates, the decision step that
  selected the winner, and the refinement iteration that installed each
  policy consulted.
* ``repro stats`` — render the metrics/metadata slice of a JSON health
  report (counters, gauges, histogram percentiles, phase timings) or of
  a ``repro campaign --report`` file.
* ``repro compile-artifact`` — simulate every canonical prefix of a
  saved model once (``--workers`` fans out to the supervised pool) and
  freeze every (origin, observer) answer into a checksummed prediction
  artifact.
* ``repro query`` — answer one paths/diversity/lookup question from a
  compiled artifact, no simulation.
* ``repro serve`` — serve a compiled artifact over a threaded HTTP/JSON
  API (GET /paths /diversity /lookup /healthz /metrics) until a
  SIGINT/SIGTERM drains it gracefully.
* ``repro profile`` — run a workload (refine, compile-artifact or
  ingest) under the phase-attribution profiler, optionally with the
  statistical stack sampler, and write a versioned ``PROFILE.json``
  (plus a flamegraph-ready ``.folded`` stack file).
* ``repro bench-diff`` — compare the flat ``metrics`` maps of two
  documents — PROFILE.json or any ``metrics``-map JSON (``BENCH_obs``,
  ``BENCH_lint``) — against per-metric regression thresholds; exits 1
  when anything regressed (the CI perf gate).

Global flags: ``--log-level`` / ``--log-json`` configure the ``repro``
logger tree; ``refine`` and ``chaos`` accept ``--trace FILE`` to write a
JSONL span/event trace of the run.

``refine`` and ``chaos`` accept ``--workers N`` to fan per-prefix
simulation out to a supervised worker pool (crash isolation, per-task
watchdogs, poison-prefix quarantine); ``--workers 1`` (the default) keeps
the sequential path bit-for-bit.  SIGINT/SIGTERM during a parallel phase
drains gracefully: in-flight prefixes get a bounded grace period, the
partial results are merged (and checkpointed, for ``refine
--checkpoint``), and the run exits 5 with ``interrupted: true`` in its
health report.

Exit codes, for every subcommand (constants in
:mod:`repro.resilience.health`):

====  ================================================================
0     ok
1     the run finished but failed its own verdict: refinement stalled,
      ``lint`` error findings (``--diff``: new errors), an ingest
      quality gate or strict-mode parse error, a ``bench-diff``
      regression, a failed serve-chaos assertion, serve workers that
      cannot boot
2     usage: bad flag combinations, unknown ASNs or query targets
3     degraded result: diverged / poison / timeout prefixes or scenarios
      quarantined, a query for a quarantined origin, or a command that
      does not quarantine (``whatif``) meeting a prefix that does not
      converge
4     unusable input: an unreadable, corrupt, stale or mismatched dump,
      model config, artifact, checkpoint, certificate store or report
5     interrupted by SIGINT/SIGTERM after a graceful drain
====  ================================================================

4, 5 and the last case of 3 are decided once, in :func:`main`: any load
error a handler lets escape prints ``error: <message>`` and exits 4, an
escaping :class:`~repro.errors.SimulationError` prints the same line and
exits 3, and an escaping :class:`~repro.errors.ShutdownRequested` exits
5.  Handlers catch only what they map to a different code or must record
first.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bgp.engine import simulate
from repro.cbgp.export import export_network
from repro.cbgp.parse import parse_script
from repro.core.build import build_initial_model
from repro.core.metrics import MatchKind
from repro.core.model import ASRoutingModel
from repro.core.predict import evaluate_model
from repro.core.refine import Refiner
from repro.core.split import split_by_observation_points
from repro.core.whatif import depeer
from repro.data.dumps import read_table_dump, write_table_dump
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import (
    ArtifactError,
    CertificateError,
    CheckpointError,
    DatasetError,
    ParseError,
    ShutdownRequested,
    SimulationError,
    TopologyError,
)
from repro.net.prefix import Prefix
from repro.obs.logs import LEVELS, configure_logging
from repro.obs.meta import run_metadata
from repro.obs.metrics import get_registry
from repro.obs.trace import JsonlTracer, tracing
from repro.resilience.faults import FaultConfig
from repro.resilience.health import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_INTERRUPTED,
    RunHealth,
)
from repro.runstate import drain_signals
from repro.topology.diversity import route_diversity_report
from repro.topology.prune import prepare_dataset


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_format=args.log_json)
    # Handlers stamp run metadata into health reports; remember the exact
    # invocation even when main() is called programmatically.
    args.invocation = list(argv) if argv is not None else sys.argv[1:]
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (
        OSError,
        ParseError,
        TopologyError,
        DatasetError,
        ArtifactError,
        CertificateError,
        CheckpointError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_DATA
    except SimulationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_DIVERGED
    except ShutdownRequested as shutdown:
        message = f"interrupted by signal {shutdown.signum}"
        if shutdown.pending:
            message += f": {len(shutdown.pending)} unit(s) of work unfinished"
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint and os.path.exists(checkpoint):
            hint = "--resume" if hasattr(args, "resume") else "the same --checkpoint"
            message += (
                f"; checkpoint saved to {checkpoint}; rerun with {hint} to continue"
            )
        print(message, file=sys.stderr)
        return EXIT_INTERRUPTED


def open_unit_fraction(text: str) -> float:
    """argparse ``type=``: a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=``: an int that can cap a list (``items[:n]``)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quasi-router AS-topology modelling (SIGCOMM'06 reproduction)",
    )
    parser.add_argument("--log-level", choices=LEVELS, default="warning",
                        help="stdlib logging level for the repro logger tree")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines")
    subparsers = parser.add_subparsers(title="subcommands")

    synth = subparsers.add_parser(
        "synthesize", help="generate a synthetic Internet and RIB dump"
    )
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--scale", type=float, default=0.3,
                       help="population scale factor relative to the default config")
    synth.add_argument("--points", type=int, default=30,
                       help="number of observation ASes")
    synth.add_argument("--out", required=True, help="dump file to write")
    synth.add_argument("--cbgp", help="also write the ground-truth config here")
    synth.set_defaults(handler=cmd_synthesize)

    ingest = subparsers.add_parser(
        "ingest",
        help="fault-tolerant ingestion of a real feed "
             "(bgpdump -m table dump or CAIDA as-rel file)",
    )
    ingest.add_argument("feed", help="raw feed file to ingest")
    ingest.add_argument("--format", choices=("bgpdump", "as-rel"),
                        default="bgpdump",
                        help="feed dialect (default: bgpdump -m)")
    ingest.add_argument("--out",
                        help="write the normalised clean dump here "
                             "(required with --checkpoint)")
    ingest.add_argument("--report",
                        help="write the JSON IngestReport to this path")
    ingest.add_argument("--json", action="store_true", dest="as_json",
                        help="print the IngestReport as JSON instead of text")
    ingest.add_argument("--checkpoint",
                        help="snapshot ingest progress here periodically")
    ingest.add_argument("--resume", action="store_true",
                        help="continue from an existing checkpoint "
                             "instead of starting over")
    ingest.add_argument("--checkpoint-every", type=int, default=20000,
                        help="source lines between checkpoint snapshots")
    ingest.add_argument("--strict", action="store_true",
                        help="raise on the first damaged record "
                             "(with its 1-based line number)")
    ingest.add_argument("--max-malformed-fraction", type=float, default=0.5,
                        help="whole-file damage fraction that fails the "
                             "quality gate (AS_SET skips excluded)")
    ingest.add_argument("--burst-window", type=int, default=500,
                        help="sliding window (record lines) of the "
                             "malformed-burst circuit breaker (0 disables)")
    ingest.add_argument("--burst-threshold", type=float, default=0.95,
                        help="damaged fraction of the window that trips "
                             "the breaker")
    ingest.add_argument("--no-quality-gate", action="store_true",
                        help="disable the malformed-fraction gate and the "
                             "burst breaker (still quarantines records)")
    ingest.add_argument("--synthetic", action="store_true",
                        help="feed is synthetic round-trip data: skip the "
                             "bogon-ASN and martian-prefix passes (their "
                             "number spaces overlap reserved ranges)")
    ingest.add_argument("--keep-bogons", action="store_true",
                        help="do not quarantine reserved/private ASNs")
    ingest.add_argument("--keep-martians", action="store_true",
                        help="do not quarantine reserved-space prefixes")
    ingest.add_argument("--prune", action="store_true",
                        help="chain the clean/prune/graph pipeline over the "
                             "ingested dataset and print its summary")
    ingest.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="known tier-1 seed ASNs for --prune")
    ingest.set_defaults(handler=cmd_ingest)

    analyze = subparsers.add_parser("analyze", help="Section 3 dump analysis")
    analyze.add_argument("dump", help="bgpdump -m style file")
    analyze.add_argument("--seeds", type=int, nargs="*", default=[],
                         help="known tier-1 seed ASNs")
    analyze.set_defaults(handler=cmd_analyze)

    refine = subparsers.add_parser("refine", help="build + refine a model")
    refine.add_argument("dump", help="bgpdump -m style file")
    refine.add_argument("--train-fraction", type=open_unit_fraction, default=0.5)
    refine.add_argument("--split-seed", type=int, default=0)
    refine.add_argument("--max-iterations", type=int, default=60)
    refine.add_argument("--out", help="write the refined model config here")
    refine.add_argument("--health-report",
                        help="write a JSON RunHealth report to this path")
    refine.add_argument("--checkpoint",
                        help="snapshot the run here; resumes if the file exists")
    refine.add_argument("--checkpoint-every", type=int, default=5,
                        help="iterations between checkpoint snapshots")
    refine.add_argument("--lint-gate", action="store_true",
                        help="statically quarantine dispute-wheel prefixes "
                             "before simulating (zero attempts spent on them)")
    refine.add_argument("--trace",
                        help="write a JSONL span/event trace of the run here")
    _add_parallel_arguments(refine)
    refine.set_defaults(handler=cmd_refine)

    lint = subparsers.add_parser(
        "lint", help="static safety/policy/topology analysis of a model"
    )
    lint.add_argument("model", help="model config written by 'repro refine "
                                    "--out', or a compiled artifact with "
                                    "embedded certificates")
    lint.add_argument("--dump", help="training dump enabling the dataset-"
                                     "dependent rules (blocking filters, "
                                     "stale refinement clauses, reachability)")
    lint.add_argument("--passes", nargs="*", default=None,
                      metavar="PASS", help="subset of passes to run "
                                           "(safety policy topology gao)")
    lint.add_argument("--relationships", metavar="AS_REL",
                      help="CAIDA as-rel file enabling the Gao-Rexford "
                           "valley-free export pass")
    lint.add_argument("--diff", metavar="BASE",
                      help="statically diff against BASE (a model config or "
                           "compiled artifact) and report new / resolved / "
                           "unchanged findings; exits 1 only on new errors")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full report as JSON instead of text")
    lint.add_argument("--max-findings", type=int, default=50,
                      help="findings shown in text mode (JSON is never cut)")
    lint.set_defaults(handler=cmd_lint)

    chaos = subparsers.add_parser(
        "chaos", help="run the pipeline over a fault-injected workload"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--scale", type=float, default=0.25,
                       help="population scale of the synthetic Internet")
    chaos.add_argument("--points", type=int, default=12,
                       help="number of observation ASes")
    chaos.add_argument("--dispute-wheels", type=int, default=2,
                       help="prefixes sabotaged with local-pref dispute wheels")
    chaos.add_argument("--corrupt-fraction", type=float, default=0.1,
                       help="fraction of dump lines garbled")
    chaos.add_argument("--truncate-fraction", type=float, default=0.05,
                       help="fraction of dump lines truncated")
    chaos.add_argument("--flap-sessions", type=int, default=2,
                       help="eBGP peerings torn down before simulation")
    chaos.add_argument("--message-budget", type=int, default=None,
                       help="sabotaged per-prefix message budget")
    chaos.add_argument("--lint-gate", action="store_true",
                       help="statically quarantine wheel prefixes before "
                            "simulating instead of burning message budget")
    chaos.add_argument("--refine-iterations", type=int, default=10)
    chaos.add_argument("--health-report",
                       help="write the JSON RunHealth report to this path "
                            "(default: stdout)")
    chaos.add_argument("--trace",
                       help="write a JSONL span/event trace of the run here")
    _add_parallel_arguments(chaos)
    chaos.add_argument("--kill-prefixes", type=int, default=0,
                       help="prefixes whose parallel task kills its worker "
                            "outright (needs --workers >= 2)")
    chaos.add_argument("--hang-prefixes", type=int, default=0,
                       help="prefixes whose parallel task hangs until the "
                            "task watchdog fires (needs --workers >= 2)")
    chaos.add_argument("--serve", action="store_true", dest="serve_campaign",
                       help="run the serve-path resilience campaign (hot "
                            "reloads, worker kills, overload, drain) "
                            "against a real 'repro serve' process tree "
                            "instead of the pipeline campaign")
    chaos.add_argument("--serve-workers", type=int, default=2,
                       help="SO_REUSEPORT workers for the --serve campaign")
    chaos.add_argument("--bench-out", metavar="PATH",
                       help="with --serve: write the campaign's "
                            "BENCH_serve_resilience.json here")
    chaos.set_defaults(handler=cmd_chaos)

    explain = subparsers.add_parser(
        "explain", help="hop-by-hop decision provenance for one prefix"
    )
    explain.add_argument("model", help="model config written by 'repro refine --out'")
    explain.add_argument("prefix", help="canonical model prefix, e.g. 0.10.0.0/24")
    explain.add_argument("--observer", type=int, metavar="ASN",
                         help="walk the winning quasi-router chain from this "
                              "AS to the origin (default: explain every AS)")
    explain.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the explanation as JSON instead of text")
    explain.set_defaults(handler=cmd_explain)

    stats = subparsers.add_parser(
        "stats", help="render the metrics slice of a JSON health report"
    )
    stats.add_argument("report", help="health report written with --health-report, "
                       "or a campaign report written with --report")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the stats slice as JSON instead of text")
    stats.set_defaults(handler=cmd_stats)

    whatif = subparsers.add_parser("whatif", help="predict a link removal")
    whatif.add_argument("model", help="model config written by 'repro refine --out'")
    whatif.add_argument("--remove", type=int, nargs=2, metavar=("ASN_A", "ASN_B"),
                        required=True)
    whatif.add_argument("--max-changes", type=int, default=10,
                        help="how many changed pairs to print")
    whatif.set_defaults(handler=cmd_whatif)

    compile_ = subparsers.add_parser(
        "compile-artifact",
        help="simulate a saved model once and freeze all answers "
             "into a prediction artifact",
    )
    compile_.add_argument("model",
                          help="model config written by 'repro refine --out'")
    compile_.add_argument("--out", required=True,
                          help="artifact file to write")
    compile_.add_argument("--observers", type=int, nargs="*", metavar="ASN",
                          help="restrict answers to these observer ASes "
                               "(default: every AS in the model)")
    compile_.add_argument("--relationships", metavar="AS_REL",
                          help="CAIDA as-rel file; enables the Gao-Rexford "
                               "pass in the embedded safety certificates")
    _add_parallel_arguments(compile_)
    compile_.set_defaults(handler=cmd_compile_artifact)

    query = subparsers.add_parser(
        "query", help="answer one question from a compiled artifact"
    )
    query.add_argument("artifact",
                       help="artifact written by 'repro compile-artifact'")
    query.add_argument("--origin", type=int, metavar="ASN",
                       help="origin AS (with --observer: a paths query)")
    query.add_argument("--observer", type=int, metavar="ASN", required=True,
                       help="observer AS answering the question")
    query.add_argument("--lookup", metavar="IP_OR_PREFIX",
                       help="longest-prefix-match this address/prefix "
                            "instead of naming an origin")
    query.add_argument("--diversity", action="store_true",
                       help="report the route-diversity summary instead "
                            "of the raw path set")
    query.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the answer as JSON instead of text")
    query.set_defaults(handler=cmd_query)

    serve = subparsers.add_parser(
        "serve", help="serve a compiled artifact over HTTP/JSON"
    )
    serve.add_argument("artifact",
                       help="artifact written by 'repro compile-artifact'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="bounded LRU entries in the query cache")
    serve.add_argument("--request-timeout", type=float, default=10.0,
                       help="per-connection socket timeout in seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="serve from N supervised SO_REUSEPORT "
                            "processes; a killed worker is replaced "
                            "automatically (default: 1, in-process)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="bounded admission: concurrent requests "
                            "before load-shedding 503s (0 disables "
                            "admission control)")
    serve.add_argument("--deadline", type=float, default=5.0,
                       help="per-request deadline in seconds (metered; "
                            "late finishes count serve.deadline_exceeded)")
    serve.add_argument("--watch-artifact", type=float, default=None,
                       metavar="SECONDS",
                       help="poll the artifact file at this interval and "
                            "hot-reload when it changes (SIGHUP and "
                            "POST /-/reload always work)")
    serve.add_argument("--chaos-delay-ms", type=float, default=0.0,
                       help="artificial per-query handler delay for "
                            "overload/chaos testing (milliseconds)")
    serve.add_argument("--stats-report",
                       help="write a 'repro stats'-renderable JSON report "
                            "here after the drain")
    serve.set_defaults(handler=cmd_serve)

    profile = subparsers.add_parser(
        "profile",
        help="run a workload under the phase profiler and write PROFILE.json",
    )
    profile.add_argument("workload",
                         choices=("refine", "compile-artifact", "ingest"),
                         help="pipeline to profile end to end")
    profile.add_argument("dump",
                         help="table dump (refine/compile-artifact) or raw "
                              "feed (ingest) the workload consumes")
    profile.add_argument("--out", default="PROFILE.json",
                         help="PROFILE.json path to write")
    profile.add_argument("--folded", metavar="FILE",
                         help="write a collapsed-stack .folded file here "
                              "(implies --sample)")
    profile.add_argument("--sample", action="store_true",
                         help="run the statistical stack sampler alongside "
                              "the phase profiler")
    profile.add_argument("--sample-mode", choices=("thread", "signal"),
                         default="thread",
                         help="sampler clock: thread=wall-clock (default), "
                              "signal=CPU time via SIGPROF")
    profile.add_argument("--sample-interval", type=float, default=0.005,
                         help="sampling period in seconds")
    profile.add_argument("--trace-memory", action="store_true",
                         help="attribute tracemalloc peak memory per phase "
                              "(slows the run)")
    profile.add_argument("--max-iterations", type=int, default=10,
                         help="refinement iteration cap for the "
                              "refine/compile-artifact workloads")
    profile.set_defaults(handler=cmd_profile)

    bench_diff = subparsers.add_parser(
        "bench-diff",
        help="compare two PROFILE/BENCH JSONs; exit 1 on regression",
    )
    bench_diff.add_argument("base", help="baseline PROFILE.json/BENCH_*.json")
    bench_diff.add_argument("current", help="candidate PROFILE.json/BENCH_*.json")
    bench_diff.add_argument("--default-threshold", type=float, default=20.0,
                            help="percent change tolerated before a metric "
                                 "counts as regressed")
    bench_diff.add_argument("--threshold", action="append", metavar="NAME=PCT",
                            help="per-metric threshold override (repeatable)")
    bench_diff.add_argument("--skip", action="append", metavar="GLOB",
                            help="fnmatch glob of metric names to exclude "
                                 "(repeatable); e.g. '*seconds*' when base "
                                 "and current ran on different machines")
    bench_diff.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the comparison as JSON instead of text")
    bench_diff.set_defaults(handler=cmd_bench_diff)

    campaign = subparsers.add_parser(
        "campaign",
        help="sweep a scenario space (depeer / link-failure / hijack / "
             "catchment) and rank scenarios by blast radius",
    )
    campaign.add_argument(
        "kind", choices=["depeer", "link-failure", "hijack", "catchment"],
        help="which scenario space to sweep")
    campaign.add_argument(
        "model", help="model config written by 'repro refine --out'")
    campaign.add_argument(
        "--baseline", metavar="ARTIFACT",
        help="baseline prediction artifact to diff against "
             "(default: compile one in-process)")
    campaign.add_argument(
        "--ases", type=int, nargs="*", metavar="ASN",
        help="depeer: only adjacencies incident to these ASes")
    campaign.add_argument(
        "--top-degree", type=int, default=3,
        help="link-failure: target the K highest-degree ASes")
    campaign.add_argument(
        "--seeds", type=int, nargs="*", metavar="ASN",
        help="link-failure: explicit target ASes instead of --top-degree")
    campaign.add_argument(
        "--victim", type=int, metavar="ASN",
        help="hijack: the AS whose canonical prefix is re-originated")
    campaign.add_argument(
        "--attackers", type=int, nargs="*", metavar="ASN",
        help="hijack: candidate attacker ASes (default: every other AS)")
    campaign.add_argument(
        "--sites", type=int, nargs="*", metavar="ASN",
        help="catchment: anycast site ASes (at least 2)")
    campaign.add_argument(
        "--max-scenarios", type=non_negative_int, metavar="N",
        help="cap the scenario space at the first N scenarios (key order); "
             "the dropped tail is reported, never silent")
    campaign.add_argument(
        "--top", type=int, default=10,
        help="ranked scenarios to print (0 = all)")
    campaign.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the ranked report as JSON instead of text")
    campaign.add_argument(
        "--report", metavar="PATH",
        help="also write the full JSON report to this file")
    campaign.add_argument(
        "--checkpoint", metavar="PATH",
        help="scenario checkpoint file (written on completion and during "
             "a signal-driven drain)")
    campaign.add_argument(
        "--resume", action="store_true",
        help="skip scenarios already recorded in --checkpoint")
    campaign.add_argument(
        "--trace", metavar="PATH",
        help="write campaign and supervision trace events as JSON lines")
    _add_parallel_arguments(campaign)
    campaign.set_defaults(handler=cmd_campaign)
    return parser


def _add_parallel_arguments(subparser) -> None:
    """Supervised-pool flags: refine, chaos, compile-artifact, campaign."""
    subparser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for per-prefix simulation (1 = sequential, "
             "bit-for-bit the single-process path)")
    subparser.add_argument(
        "--task-timeout", type=float, default=60.0,
        help="per-prefix wall-clock watchdog in seconds; a worker past it "
             "is killed and the prefix resubmitted (0 disables)")
    subparser.add_argument(
        "--max-resubmits", type=int, default=2,
        help="fresh workers a crashing/hanging prefix gets before being "
             "quarantined as poison")


def _parallel_config(args):
    """A :class:`~repro.parallel.ParallelConfig` from CLI flags, or None."""
    if getattr(args, "workers", 1) <= 1:
        return None
    from repro.parallel import ParallelConfig

    return ParallelConfig(
        workers=args.workers,
        task_timeout=args.task_timeout if args.task_timeout > 0 else None,
        max_resubmits=max(0, args.max_resubmits),
    )


def cmd_synthesize(args) -> int:
    """Handle ``repro synthesize``."""
    config = SyntheticConfig(seed=args.seed).scaled(args.scale)
    internet = synthesize_internet(config)
    print(f"synthesized {internet.network}", file=sys.stderr)
    started = time.perf_counter()
    stats = simulate(internet.network)
    print(
        f"ground truth converged: {stats.messages} messages in "
        f"{time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    points = select_observation_points(internet, args.points, seed=args.seed)
    dataset = collect_dataset(internet.network, points)
    lines = write_table_dump(dataset, args.out)
    print(f"wrote {lines} RIB entries to {args.out}", file=sys.stderr)
    print(f"tier-1 seed ASNs: {' '.join(map(str, internet.level1_asns[:3]))}")
    if args.cbgp:
        with open(args.cbgp, "w", encoding="ascii") as handle:
            export_network(internet.network, handle)
        print(f"wrote ground-truth config to {args.cbgp}", file=sys.stderr)
    return 0


def _load_pruned(dump_path: str, seeds: list[int]):
    """Shared dump -> cleaned/pruned dataset pipeline for analyze/refine."""
    parsed = read_table_dump(dump_path)
    return (parsed, *prepare_dataset(parsed.dataset, seeds))


def _write_ingest_report(args, report) -> None:
    """Emit the IngestReport per the --report/--json flags."""
    if args.report:
        with open(args.report, "w", encoding="ascii") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote ingest report to {args.report}", file=sys.stderr)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render())


def cmd_ingest(args) -> int:
    """Handle ``repro ingest`` (exit codes: module docstring).

    1 here means a quality gate fired (mostly-garbage feed, malformed
    burst) or strict mode hit a parse error; 5 leaves a checkpoint.
    """
    from repro.data.ingest import IngestConfig, ingest_table_dump
    from repro.data.sanitize import SanitizeConfig
    from repro.errors import IngestError

    if args.format == "as-rel":
        if args.checkpoint or args.resume or args.out:
            print(
                "error: --checkpoint/--resume/--out apply only to "
                "--format bgpdump",
                file=sys.stderr,
            )
            return 2
        return _ingest_as_rel(args)
    if args.checkpoint and not args.out:
        print("error: --checkpoint requires --out (the clean dump is what "
              "a resume restores from)", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.synthetic:
        sanitize = SanitizeConfig.for_synthetic()
    else:
        sanitize = SanitizeConfig(
            drop_bogon_asns=not args.keep_bogons,
            drop_martian_prefixes=not args.keep_martians,
        )
    config = IngestConfig(
        sanitize=sanitize,
        strict=args.strict,
        max_malformed_fraction=(
            None if args.no_quality_gate else args.max_malformed_fraction
        ),
        burst_window=0 if args.no_quality_gate else args.burst_window,
        burst_threshold=args.burst_threshold,
        checkpoint_every=max(1, args.checkpoint_every),
    )
    get_registry().reset()

    # A SIGINT/SIGTERM mid-ingest drains gracefully: the loop notices at
    # the next line boundary, writes a final checkpoint, and exits 5.
    try:
        with drain_signals() as drain:
            result = ingest_table_dump(
                args.feed,
                out_path=args.out,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                config=config,
                should_stop=lambda: drain.signum,
            )
    except IngestError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.report is not None:
            _write_ingest_report(args, error.report)
        return 1
    except ParseError as error:  # strict mode names line + field
        print(f"error: {error}", file=sys.stderr)
        return 1

    if result.resumed_from_line:
        print(f"resumed from line {result.resumed_from_line}",
              file=sys.stderr)
    if args.out:
        print(f"wrote {result.report.accepted} clean records to {args.out}",
              file=sys.stderr)
    _write_ingest_report(args, result.report)
    if args.prune:
        try:
            dataset, graph, level1, classification, pruned = prepare_dataset(
                result.dataset, args.seeds
            )
        except DatasetError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"cleaned:           {dataset.summary()['routes']} routes, "
              f"{graph.num_ases()} ASes, {graph.num_edges()} edges")
        print(f"level-1 clique:    {sorted(level1)}")
        print(f"pruned:            {len(pruned.pruned_asns)} single-homed "
              f"stubs, {pruned.transferred_routes} routes transferred, "
              f"{pruned.graph.num_ases()} ASes remain")
    return 0


def _ingest_as_rel(args) -> int:
    """``repro ingest --format as-rel``: CAIDA relationship files."""
    from repro.data.caida import read_as_rel
    from repro.topology.prune import restrict_to_largest_component

    get_registry().reset()
    try:
        result = read_as_rel(
            args.feed,
            strict=args.strict,
            drop_bogons=not (args.keep_bogons or args.synthetic),
            max_malformed_fraction=(
                None if args.no_quality_gate else args.max_malformed_fraction
            ),
        )
    except ParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except DatasetError as error:  # the mostly-garbage quality gate
        print(f"error: {error}", file=sys.stderr)
        return 1
    graph = result.graph
    if args.prune:
        graph, dropped = restrict_to_largest_component(graph)
        if dropped:
            print(f"pruned {len(dropped)} ASes outside the largest "
                  "connected component", file=sys.stderr)
    _write_ingest_report(args, result.report)
    print(f"as-rel graph:      {graph.num_ases()} ASes, "
          f"{graph.num_edges()} edges ({result.relationships!r})",
          file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """Handle ``repro analyze``."""
    parsed, dataset, graph, level1, classification, pruned = _load_pruned(
        args.dump, args.seeds
    )
    print(f"parsed lines:      {parsed.lines} "
          f"(skipped: {parsed.skipped_as_set} AS_SET, "
          f"{parsed.skipped_malformed} malformed)")
    for key, value in dataset.summary().items():
        print(f"  {key:<20} {value}")
    print(f"level-1 clique:    {sorted(level1)}")
    for key, value in classification.summary().items():
        print(f"  {key:<20} {value}")
    print(
        f"pruned:            {len(pruned.pruned_asns)} single-homed stubs, "
        f"{pruned.transferred_routes} routes transferred"
    )
    report = route_diversity_report(dataset)
    print(f"multipath pairs:   {report.fraction_pairs_multipath:.1%}")
    print("table 1 quantiles: "
          + ", ".join(f"p{p:.0f}={v}" for p, v in report.table1().items()))
    return 0


def cmd_refine(args) -> int:
    """Handle ``repro refine``."""
    health = RunHealth()
    health.record_meta(
        run_metadata(argv=getattr(args, "invocation", None), seed=args.split_seed)
    )
    get_registry().reset()
    if args.trace:
        with tracing(JsonlTracer(args.trace)) as tracer:
            code = _refine_run(args, health)
        print(f"wrote {tracer.records_written} trace records to {args.trace}",
              file=sys.stderr)
        return code
    return _refine_run(args, health)


def _refine_run(args, health: RunHealth) -> int:
    """The ``repro refine`` pipeline body (tracing already configured)."""
    from repro.core.refine import RefinementConfig
    from repro.resilience.retry import ResilienceStats

    with health.phase("parse"):
        try:
            parsed, _, _, _, _, pruned = _load_pruned(args.dump, [])
        except DatasetError as error:
            print(f"error: {error}", file=sys.stderr)
            health.record_error(error)
            if args.health_report:
                health.record_metrics()
                health.write(args.health_report)
            return EXIT_DATA
    health.record_parse(parsed)
    training, validation = split_by_observation_points(
        pruned.dataset, args.train_fraction, seed=args.split_seed
    )
    model = build_initial_model(pruned.dataset, pruned.graph)
    if args.lint_gate:
        from repro.analysis import analyze_model

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
            parallel=_parallel_config(args),
        ),
    )
    started = time.perf_counter()
    with health.phase("refine"):
        try:
            result = refiner.run(checkpoint=args.checkpoint)
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            health.record_error(error)
            if args.health_report:
                health.record_metrics()
                health.write(args.health_report)
            return EXIT_DATA
        except ShutdownRequested as shutdown:
            return _refine_interrupted(args, health, refiner, shutdown)
    model = result.model  # a resumed run swaps in the checkpointed model
    print(
        f"refinement: {result.iteration_count} iterations, "
        f"converged={result.converged}, {time.perf_counter() - started:.1f}s"
    )
    print(f"model: {model}")
    unmatched = refiner.unmatched_paths() if not result.converged else []
    health.record_refinement(result, unmatched)
    simulation = ResilienceStats(
        outcomes=refiner.outcomes, supervision=refiner.supervision
    )
    if refiner.outcomes:
        health.record_simulation(simulation)
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
    health.record_metrics()
    if args.health_report:
        health.write(args.health_report)
        print(f"wrote health report to {args.health_report}", file=sys.stderr)
    return health.exit_code


def _refine_interrupted(args, health: RunHealth, refiner, shutdown) -> int:
    """Finish ``repro refine`` after a graceful signal-driven drain.

    The refiner already wrote a final checkpoint (when ``--checkpoint``
    was given); here the partial results land in the health report and
    the run exits :data:`~repro.resilience.health.EXIT_INTERRUPTED`.
    """
    from repro.resilience.retry import ResilienceStats

    health.interrupted = True
    if refiner.outcomes:
        health.record_simulation(
            ResilienceStats(
                outcomes=refiner.outcomes, supervision=refiner.supervision
            )
        )
    print(
        f"interrupted by signal {shutdown.signum}: "
        f"{len(refiner.outcomes)} prefix(es) simulated, "
        f"{len(shutdown.pending)} left"
        + (f"; checkpoint saved to {args.checkpoint}" if args.checkpoint else ""),
        file=sys.stderr,
    )
    health.record_metrics()
    if args.health_report:
        health.write(args.health_report)
        print(f"wrote health report to {args.health_report}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _is_artifact(path: str) -> bool:
    """True when ``path`` starts with the prediction-artifact magic."""
    from repro.serve.artifact import MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _lint_report(path, dataset, passes, relationships, certified):
    """One side of a lint run: a report for a model config or artifact.

    An artifact contributes the certified findings frozen at compile
    time; a model config is analyzed live.  ``certified`` switches the
    live side to the certificate engine's safety/policy/gao passes so a
    ``--diff`` with an artifact on the other side compares
    like-with-like (the dataset- and observer-dependent rules cannot be
    reconstructed from an artifact).
    """
    if _is_artifact(path):
        from repro.analysis.certify import CertificateStore
        from repro.serve import PredictionArtifact

        artifact = PredictionArtifact.load(path)
        if not artifact.certificates:
            raise CertificateError(
                f"artifact {path} carries no safety certificates; recompile "
                "it with this build of 'repro compile-artifact'"
            )
        return CertificateStore.from_dict(artifact.certificates).report()
    model = _load_model(path)
    if certified:
        from repro.analysis import certify_network

        return certify_network(
            model.network, relationships=relationships
        ).report()
    from repro.analysis import analyze_model

    return analyze_model(
        model, dataset=dataset, passes=passes, relationships=relationships
    )


def cmd_lint(args) -> int:
    """Handle ``repro lint``."""
    from repro.analysis import ALL_PASSES, diff_reports

    relationships = None
    if args.relationships:
        from repro.data.caida import read_as_rel

        relationships = read_as_rel(args.relationships).relationships
    dataset = None
    if args.dump:
        dataset = read_table_dump(args.dump).dataset.cleaned()
    passes = tuple(args.passes) if args.passes else ALL_PASSES
    certified = _is_artifact(args.model) or (
        args.diff is not None and _is_artifact(args.diff)
    )
    base = None
    try:
        report = _lint_report(
            args.model, dataset, passes, relationships, certified
        )
        if args.diff is not None:
            base = _lint_report(
                args.diff, dataset, passes, relationships, certified
            )
    except ParseError:  # a ValueError too, but unusable data, not usage
        raise
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if base is not None:
        diff = diff_reports(base, report)
        if args.as_json:
            print(diff.to_json())
        else:
            print(diff.render(max_findings=args.max_findings))
        return diff.exit_code
    if args.as_json:
        print(report.to_json())
    else:
        print(report.render(max_findings=args.max_findings))
    return report.exit_code


def cmd_chaos(args) -> int:
    """Handle ``repro chaos``."""
    from repro.experiments.chaos import ChaosConfig, run_chaos

    if args.serve_campaign:
        return _cmd_chaos_serve(args)
    parallel = _parallel_config(args)
    if parallel is None and (args.kill_prefixes or args.hang_prefixes):
        print("error: --kill-prefixes/--hang-prefixes need --workers >= 2",
              file=sys.stderr)
        return 2
    config = ChaosConfig(
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
    )
    get_registry().reset()
    if args.trace:
        with tracing(JsonlTracer(args.trace)) as tracer:
            health = run_chaos(config)
        print(f"wrote {tracer.records_written} trace records to {args.trace}",
              file=sys.stderr)
    else:
        health = run_chaos(config)
    health.record_meta(
        run_metadata(argv=getattr(args, "invocation", None), seed=args.seed)
    )
    health.record_metrics()
    if args.health_report:
        health.write(args.health_report)
        print(f"wrote health report to {args.health_report}", file=sys.stderr)
    else:
        print(health.to_json())
    summary = health.to_dict()
    simulation = summary.get("simulation") or {}
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
    return health.exit_code


def _cmd_chaos_serve(args) -> int:
    """Handle ``repro chaos --serve``: the serve-resilience campaign
    (exits 1 when an availability assertion fails)."""
    from repro.experiments.report import write_json
    from repro.experiments.serve_chaos import ServeChaosConfig, run

    if args.serve_workers < 2:
        print("error: --serve-workers must be >= 2 (worker-kill recovery "
              "needs a surviving worker)", file=sys.stderr)
        return 2
    config = ServeChaosConfig(seed=args.seed, workers=args.serve_workers)
    try:
        result = run(config)
    except AssertionError as error:
        print(f"serve chaos campaign FAILED: {error}", file=sys.stderr)
        return 1
    print(result.render())
    if args.bench_out:
        path = write_json(args.bench_out, result.to_record(run_metadata()))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_explain(args) -> int:
    """Handle ``repro explain``."""
    import json

    from repro.obs.explain import explain_prefix

    model = _load_model(args.model)
    prefix = Prefix(args.prefix)
    if args.observer is not None and args.observer not in model.network.ases:
        print(f"error: observer AS{args.observer} is not in the model",
              file=sys.stderr)
        return EXIT_DATA
    explanation = explain_prefix(model, prefix, observer_asn=args.observer)
    if args.as_json:
        print(json.dumps(explanation.to_dict(), indent=2, sort_keys=True))
    else:
        print(explanation.render())
    return 0


def cmd_stats(args) -> int:
    """Handle ``repro stats``."""
    import json

    from repro.obs.stats import health_stats, load_health_report, render_stats

    report = load_health_report(args.report)
    if args.as_json:
        print(json.dumps(health_stats(report), indent=2, sort_keys=True))
    else:
        print(render_stats(report))
    return 0


def _load_model(path: str) -> ASRoutingModel:
    """Load a saved model config; raises the load errors unwrapped."""
    with open(path, "r", encoding="ascii") as handle:
        network = parse_script(handle)
    return ASRoutingModel.from_network(network)


def cmd_whatif(args) -> int:
    """Handle ``repro whatif``."""
    model = _load_model(args.model)
    asn_a, asn_b = args.remove
    try:
        # The library validates both endpoints up front: an ASN outside
        # the model is a usage error named to the caller before any
        # simulation, never a silent "no paths changed" report.
        report = depeer(model, asn_a, asn_b)
    except TopologyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"what-if: {report.description}")
    print(
        f"  examined {report.origins_examined} origins x "
        f"{report.observers_examined} observers"
    )
    print(f"  changed pairs:      {report.affected_pairs}")
    print(f"  lost reachability:  {report.unreachable_pairs}")
    for change in report.changes[: args.max_changes]:
        print(f"  AS{change.observer_asn} -> AS{change.origin_asn}:")
        for path in sorted(change.before):
            print(f"    before: {' '.join(map(str, path))}")
        if change.after:
            for path in sorted(change.after):
                print(f"    after:  {' '.join(map(str, path))}")
        else:
            print("    after:  (unreachable)")
    return 0


def cmd_compile_artifact(args) -> int:
    """Handle ``repro compile-artifact``."""
    from repro.errors import ModelError
    from repro.serve import compile_artifact
    from repro.serve.compile import write_artifact

    model = _load_model(args.model)
    relationships = None
    if args.relationships:
        from repro.data.caida import read_as_rel

        relationships = read_as_rel(args.relationships).relationships
    get_registry().reset()
    started = time.perf_counter()
    try:
        artifact, report = compile_artifact(
            model,
            observers=args.observers or None,
            parallel=_parallel_config(args),
            meta=run_metadata(argv=getattr(args, "invocation", None)),
            relationships=relationships,
        )
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    size = write_artifact(artifact, args.out)
    print(
        f"compiled {len(artifact.origins)} origins x "
        f"{len(artifact.observers)} observers -> {report.pairs} pairs "
        f"with paths in {time.perf_counter() - started:.1f}s"
    )
    cert_fingerprint = str(artifact.certificates.get("fingerprint", ""))
    print(
        f"certified {len(artifact.certificates.get('certificates') or ())} "
        f"certificate(s), {report.certified_findings} finding(s), "
        f"store fingerprint {cert_fingerprint[:12] or '(none)'}"
    )
    if report.quarantined:
        print(
            f"quarantined prefixes (refuse queries): "
            f"{' '.join(report.quarantined)}",
            file=sys.stderr,
        )
    print(f"wrote {size} bytes to {args.out}")
    return 3 if report.quarantined else 0


def _load_artifact_engine(path: str, cache_size: int = 4096):
    """Load an artifact into a query engine (raises ``ArtifactError``)."""
    from repro.serve import PredictionArtifact, QueryEngine

    return QueryEngine(PredictionArtifact.load(path), cache_size=cache_size)


def cmd_query(args) -> int:
    """Handle ``repro query``."""
    import json

    from repro.serve.engine import QUARANTINED, QueryError

    if (args.origin is None) == (args.lookup is None):
        print("error: give exactly one of --origin or --lookup",
              file=sys.stderr)
        return 2
    if args.diversity and args.lookup is not None:
        print("error: --diversity needs --origin (it does not combine with "
              "--lookup)", file=sys.stderr)
        return 2
    engine = _load_artifact_engine(args.artifact)
    try:
        if args.lookup is not None:
            answer = engine.lookup(args.lookup, args.observer)
        elif args.diversity:
            answer = engine.diversity(args.origin, args.observer)
        else:
            answer = engine.paths(args.origin, args.observer)
    except QueryError as error:
        # Unknown ASNs/targets follow the CLI usage contract: exit 2 with
        # the offender named.  Quarantined origins are degraded data (3).
        print(f"error: {error}", file=sys.stderr)
        return 3 if error.kind == QUARANTINED else 2
    if args.as_json:
        print(json.dumps(answer.to_dict(), indent=2, sort_keys=True))
        return 0
    payload = answer.to_dict()
    if "path_count" in payload:  # diversity answer
        print(f"AS{payload['observer']} -> AS{payload['origin']} "
              f"({payload['prefix']}): {payload['path_count']} path(s), "
              f"next hops {payload['next_hops']}, "
              f"lengths {payload['min_length']}..{payload['max_length']}")
        return 0
    label = payload.get("target") or f"AS{payload['origin']}"
    print(f"AS{payload['observer']} -> {label} "
          f"({payload.get('matched_prefix') or payload['prefix']}):")
    if not payload["paths"]:
        print("  (unreachable)")
    for path in payload["paths"]:
        print(f"  {' '.join(map(str, path))}")
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro serve``."""
    from repro.serve import AdmissionController, run_server, run_supervised

    get_registry().reset()
    try:
        engine = _load_artifact_engine(
            args.artifact, cache_size=args.cache_size
        )
    except ValueError as error:  # e.g. a non-positive --cache-size
        print(f"error: {error}", file=sys.stderr)
        return EXIT_DATA
    handler_delay = max(0.0, args.chaos_delay_ms) / 1000.0
    try:
        if args.workers > 1:
            # N SO_REUSEPORT processes under the serve supervisor; each
            # worker loads the artifact itself, so the engine above only
            # served as an upfront validation of the file.
            code = run_supervised(
                args.artifact,
                args.workers,
                host=args.host,
                port=args.port,
                options={
                    "cache_size": args.cache_size,
                    "request_timeout": args.request_timeout,
                    "max_inflight": max(0, args.max_inflight),
                    "deadline_seconds": args.deadline,
                    "watch_interval": args.watch_artifact,
                    "handler_delay": handler_delay,
                },
            )
        else:
            admission = None
            if args.max_inflight > 0:
                admission = AdmissionController(
                    max_inflight=args.max_inflight,
                    deadline_seconds=args.deadline,
                )
            code = run_server(
                engine,
                host=args.host,
                port=args.port,
                request_timeout=args.request_timeout,
                artifact_path=args.artifact,
                cache_size=args.cache_size,
                admission=admission,
                watch_interval=args.watch_artifact,
                handler_delay=handler_delay,
            )
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return EXIT_DATA
    if args.stats_report:
        health = RunHealth()
        health.record_meta(
            run_metadata(argv=getattr(args, "invocation", None))
        )
        health.record_metrics()
        health.write(args.stats_report)
        print(f"wrote stats report to {args.stats_report}", file=sys.stderr)
    return code


def cmd_profile(args) -> int:
    """Handle ``repro profile`` (exit codes: module docstring)."""
    from repro.experiments.profiling import (
        WORKLOAD_COMPILE,
        WORKLOAD_INGEST,
        compile_workload,
        ingest_workload,
        refine_workload,
        run_profiled,
    )
    from repro.obs.profile import render_profile, write_profile

    workload_info = {"name": args.workload, "dump": args.dump}
    if args.workload == WORKLOAD_INGEST:
        fn = ingest_workload(args.dump)
    else:
        workload_info["max_iterations"] = args.max_iterations
        if args.workload == WORKLOAD_COMPILE:
            fn = compile_workload(args.dump, max_iterations=args.max_iterations)
        else:
            fn = refine_workload(args.dump, max_iterations=args.max_iterations)
    sample = args.sample or args.folded is not None
    run = run_profiled(
        workload_info,
        fn,
        trace_memory=args.trace_memory,
        sample=sample,
        sample_mode=args.sample_mode,
        sample_interval=args.sample_interval,
        folded_path=args.folded,
        meta=run_metadata(argv=getattr(args, "invocation", None)),
    )
    write_profile(run.document, args.out)
    print(render_profile(run.document))
    print(f"wrote profile to {args.out}", file=sys.stderr)
    if args.folded and run.sampler is not None:
        print(
            f"wrote {len(run.sampler.stacks)} collapsed stacks "
            f"({run.sampler.samples} samples) to {args.folded}",
            file=sys.stderr,
        )
    return 0


def cmd_bench_diff(args) -> int:
    """Handle ``repro bench-diff`` (exit codes: module docstring)."""
    from repro.obs.benchdiff import diff_files

    thresholds: dict[str, float] = {}
    for spec in args.threshold or []:
        name, separator, pct = spec.partition("=")
        if not separator or not name:
            print(f"error: --threshold expects NAME=PCT, got {spec!r}",
                  file=sys.stderr)
            return 2
        try:
            thresholds[name] = float(pct)
        except ValueError:
            print(f"error: --threshold {spec!r}: {pct!r} is not a number",
                  file=sys.stderr)
            return 2
    diff = diff_files(
        args.base,
        args.current,
        default_threshold=args.default_threshold,
        thresholds=thresholds,
        skip=args.skip or [],
    )
    if args.as_json:
        print(diff.to_json())
    else:
        print(diff.render())
    return diff.exit_code


def _generate_campaign(args, model):
    """The scenario list for one ``repro campaign`` invocation.

    Raises :class:`~repro.errors.TopologyError` (usage, exit 2) for
    unknown ASNs or missing required per-kind flags.
    """
    from repro.campaign import (
        generate_catchment,
        generate_depeer,
        generate_hijack,
        generate_link_failure,
    )

    if args.kind == "depeer":
        return generate_depeer(model, ases=args.ases or None)
    if args.kind == "link-failure":
        return generate_link_failure(
            model, top_degree=args.top_degree, seeds=args.seeds or None
        )
    if args.kind == "hijack":
        if args.victim is None:
            raise TopologyError("hijack campaigns require --victim ASN")
        return generate_hijack(
            model, victim=args.victim, attackers=args.attackers or None
        )
    if not args.sites or len(args.sites) < 2:
        raise TopologyError(
            "catchment campaigns require --sites with at least 2 ASNs"
        )
    return generate_catchment(model, args.sites)


def cmd_campaign(args) -> int:
    """Handle ``repro campaign``."""
    import json

    from repro.campaign import (
        context_from_artifact,
        run_campaign,
        validate_baseline,
    )
    from repro.serve import PredictionArtifact

    model = _load_model(args.model)
    get_registry().reset()
    if args.baseline:
        artifact = PredictionArtifact.load(args.baseline)
        validate_baseline(model, artifact)
    else:
        from repro.serve import compile_artifact

        print("no --baseline given; compiling one in-process",
              file=sys.stderr)
        artifact, _ = compile_artifact(model)
        # Scenario workers and the baseline must not share routing state:
        # scenarios re-simulate from a cold network.
        model.network.clear_routing()

    try:
        scenarios = _generate_campaign(args, model)
    except TopologyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scenarios.sort(key=lambda scenario: scenario.key)
    dropped = 0
    if args.max_scenarios is not None and len(scenarios) > args.max_scenarios:
        dropped = len(scenarios) - args.max_scenarios
        scenarios = scenarios[: args.max_scenarios]
        print(
            f"scenario space capped at {args.max_scenarios}: "
            f"{dropped} scenario(s) dropped by --max-scenarios",
            file=sys.stderr,
        )
    if not scenarios:
        print("error: the scenario space is empty", file=sys.stderr)
        return 2

    context = context_from_artifact(artifact)

    def execute() -> int:
        report = run_campaign(
            model,
            args.kind,
            scenarios,
            context,
            parallel=_parallel_config(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
        report.meta.update(
            run_metadata(argv=getattr(args, "invocation", None))
        )
        # What `repro stats REPORT` renders: engine.prefixes against
        # engine.resumes is how much of the sweep was perturbed, not recomputed.
        report.meta["metrics"] = get_registry().snapshot()
        if dropped:
            report.meta["scenarios_dropped"] = dropped
        if args.report:
            with open(args.report, "w", encoding="ascii") as handle:
                handle.write(report.to_json() + "\n")
            print(f"wrote report to {args.report}", file=sys.stderr)
        if args.as_json:
            print(report.to_json())
        else:
            print(report.render(top=args.top if args.top > 0 else None))
        return report.exit_code

    if args.trace:
        with tracing(JsonlTracer(args.trace)) as tracer:
            code = execute()
        print(f"wrote {tracer.records_written} trace records to {args.trace}",
              file=sys.stderr)
        return code
    return execute()


if __name__ == "__main__":
    sys.exit(main())
