"""The ``repro`` commands that produce and read feeds.

* ``repro synthesize`` — generate a synthetic Internet, simulate ground
  truth, and write a bgpdump-style RIB snapshot (plus optionally the
  ground-truth C-BGP config).
* ``repro ingest`` — fault-tolerant ingestion of a real feed (RouteViews
  style ``bgpdump -m`` table dump or CAIDA as-rel file): hardened
  streaming parse with typed record quarantine, sanitization passes
  (loops, bogon ASNs, martian prefixes, prepend collapse), a
  malformed-burst circuit breaker, periodic checkpoints with
  ``--resume``, and an exact JSON/text ``IngestReport``.  Exit 1
  (:class:`~repro.errors.IngestError`, the partial report still emitted)
  means a quality gate fired or strict mode hit a parse error; 5 leaves
  a checkpoint.
* ``repro analyze`` — Section 3 analysis of a dump: dataset summary,
  level-1 clique, classification, pruning, Figure 2 / Table 1 statistics.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bgp.engine import simulate
from repro.cbgp.export import export_network
from repro.command import (
    Command,
    non_negative_int,
    positive_float,
    positive_int,
    positive_unit_fraction,
    unit_fraction,
)
from repro.data.caida import read_as_rel
from repro.data.dumps import read_table_dump, write_table_dump
from repro.data.ingest import IngestConfig, ingest_table_dump
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.quality import IngestReport
from repro.data.sanitize import SanitizeConfig
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import DatasetError, IngestError, ParseError, UsageError
from repro.runstate import drain_signals
from repro.topology.diversity import route_diversity_report
from repro.topology.prune import prepare_dataset, restrict_to_largest_component


def _synthesize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=positive_float, default=0.3,
                        help="population scale factor relative to the default config")
    parser.add_argument("--points", type=positive_int, default=30,
                        help="number of observation ASes")
    parser.add_argument("--out", required=True, help="dump file to write")
    parser.add_argument("--cbgp", help="also write the ground-truth config here")


def _synthesize(args: argparse.Namespace) -> None:
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


def _ingest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("feed", help="raw feed file to ingest")
    parser.add_argument("--format", choices=("bgpdump", "as-rel"),
                        default="bgpdump",
                        help="feed dialect (default: bgpdump -m)")
    parser.add_argument("--out",
                        help="write the normalised clean dump here "
                             "(required with --checkpoint)")
    parser.add_argument("--report",
                        help="write the JSON IngestReport to this path")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the IngestReport as JSON instead of text")
    parser.add_argument("--checkpoint",
                        help="snapshot ingest progress here periodically")
    parser.add_argument("--resume", action="store_true",
                        help="continue from an existing checkpoint "
                             "instead of starting over")
    parser.add_argument("--checkpoint-every", type=positive_int, default=20000,
                        help="source lines between checkpoint snapshots")
    parser.add_argument("--strict", action="store_true",
                        help="raise on the first damaged record "
                             "(with its 1-based line number)")
    parser.add_argument("--max-malformed-fraction", type=unit_fraction,
                        default=0.5,
                        help="whole-file damage fraction that fails the "
                             "quality gate (AS_SET skips excluded)")
    parser.add_argument("--burst-window", type=non_negative_int, default=500,
                        help="sliding window (record lines) of the "
                             "malformed-burst circuit breaker (0 disables)")
    parser.add_argument("--burst-threshold", type=positive_unit_fraction,
                        default=0.95,
                        help="damaged fraction of the window that trips "
                             "the breaker")
    parser.add_argument("--no-quality-gate", action="store_true",
                        help="disable the malformed-fraction gate and the "
                             "burst breaker (still quarantines records)")
    parser.add_argument("--synthetic", action="store_true",
                        help="feed is synthetic round-trip data: skip the "
                             "bogon-ASN and martian-prefix passes (their "
                             "number spaces overlap reserved ranges)")
    parser.add_argument("--keep-bogons", action="store_true",
                        help="do not quarantine reserved/private ASNs")
    parser.add_argument("--keep-martians", action="store_true",
                        help="do not quarantine reserved-space prefixes")
    parser.add_argument("--prune", action="store_true",
                        help="chain the clean/prune/graph pipeline over the "
                             "ingested dataset and print its summary")
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="known tier-1 seed ASNs for --prune")


def _ingest(args: argparse.Namespace) -> IngestReport:
    if args.format == "as-rel":
        if args.checkpoint or args.resume or args.out:
            raise UsageError(
                "--checkpoint/--resume/--out apply only to --format bgpdump"
            )
        return _ingest_as_rel(args)
    if args.checkpoint and not args.out:
        raise UsageError("--checkpoint requires --out (the clean dump is what "
                         "a resume restores from)")
    if args.resume and not args.checkpoint:
        raise UsageError("--resume requires --checkpoint")
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
        checkpoint_every=args.checkpoint_every,
    )
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
    except ParseError as error:  # strict mode names line + field
        raise IngestError(str(error)) from error
    if result.resumed_from_line:
        print(f"resumed from line {result.resumed_from_line}",
              file=sys.stderr)
    if args.out:
        print(f"wrote {result.report.accepted} clean records to {args.out}",
              file=sys.stderr)
    if args.prune:
        try:
            dataset, graph, level1, _, pruned = prepare_dataset(
                result.dataset, args.seeds
            )
        except DatasetError as error:
            raise IngestError(str(error), result.report) from error
        # Progress, like the as-rel summary: stdout is the report alone.
        print(f"cleaned:           {dataset.summary()['routes']} routes, "
              f"{graph.num_ases()} ASes, {graph.num_edges()} edges",
              file=sys.stderr)
        print(f"level-1 clique:    {sorted(level1)}", file=sys.stderr)
        print(f"pruned:            {len(pruned.pruned_asns)} single-homed "
              f"stubs, {pruned.transferred_routes} routes transferred, "
              f"{pruned.graph.num_ases()} ASes remain", file=sys.stderr)
    return result.report


def _ingest_as_rel(args: argparse.Namespace) -> IngestReport:
    """``repro ingest --format as-rel``: CAIDA relationship files."""
    try:
        result = read_as_rel(
            args.feed,
            strict=args.strict,
            drop_bogons=not (args.keep_bogons or args.synthetic),
            max_malformed_fraction=(
                None if args.no_quality_gate else args.max_malformed_fraction
            ),
        )
    except (ParseError, DatasetError) as error:  # strict mode; the quality gate
        raise IngestError(str(error)) from error
    graph = result.graph
    if args.prune:
        graph, dropped = restrict_to_largest_component(graph)
        if dropped:
            print(f"pruned {len(dropped)} ASes outside the largest "
                  "connected component", file=sys.stderr)
    print(f"as-rel graph:      {graph.num_ases()} ASes, "
          f"{graph.num_edges()} edges ({result.relationships!r})",
          file=sys.stderr)
    return result.report


def _analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dump", help="bgpdump -m style file")
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="known tier-1 seed ASNs")


def _analyze(args: argparse.Namespace) -> None:
    parsed = read_table_dump(args.dump)
    dataset, _, level1, classification, pruned = prepare_dataset(
        parsed.dataset, args.seeds
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


SYNTHESIZE = Command("synthesize", _synthesize_arguments, _synthesize)
INGEST = Command(
    "ingest", _ingest_arguments, _ingest, ("report", "ingest report")
)
ANALYZE = Command("analyze", _analyze_arguments, _analyze)
