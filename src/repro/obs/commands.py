"""The ``repro`` commands that read a run back.

* ``repro explain`` — replay one prefix of a saved model and print
  hop-by-hop decision provenance: candidates, the decision step that
  selected the winner, and the refinement iteration that installed each
  policy consulted.
* ``repro stats`` — render the metrics/metadata slice of a JSON health
  report (counters, gauges, histogram percentiles, phase timings) or of
  a ``repro campaign --report`` file.
* ``repro bench-diff`` — compare the flat ``metrics`` maps of two
  documents — PROFILE.json or any ``metrics``-map JSON (``BENCH_obs``,
  ``BENCH_lint``) — against per-metric regression thresholds; exits 1
  when anything regressed (the CI perf gate).
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.command import Command, Output, json_text, load_model
from repro.errors import TopologyError, UsageError
from repro.net.prefix import Prefix
from repro.obs.benchdiff import BenchDiff, diff_files
from repro.obs.explain import explain_prefix
from repro.obs.stats import health_stats, load_health_report, render_stats


def _explain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model config written by 'repro refine --out'")
    parser.add_argument("prefix", help="canonical model prefix, e.g. 0.10.0.0/24")
    parser.add_argument("--observer", type=int, metavar="ASN",
                        help="walk the winning quasi-router chain from this "
                             "AS to the origin (default: explain every AS)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the explanation as JSON instead of text")


def _explain(args: argparse.Namespace) -> Output:
    model = load_model(args.model)
    prefix = Prefix(args.prefix)
    if args.observer is not None and args.observer not in model.network.ases:
        raise TopologyError(f"observer AS{args.observer} is not in the model")
    explanation = explain_prefix(model, prefix, observer_asn=args.observer)
    return Output(lambda: json_text(explanation.to_dict()), explanation.render)


def _stats_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("report", help="health report written with --health-report, "
                        "or a campaign report written with --report")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the stats slice as JSON instead of text")


def _stats(args: argparse.Namespace) -> Output:
    report = load_health_report(args.report)
    return Output(
        lambda: json_text(health_stats(report)), partial(render_stats, report)
    )


def _bench_diff_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("base", help="baseline PROFILE.json/BENCH_*.json")
    parser.add_argument("current", help="candidate PROFILE.json/BENCH_*.json")
    parser.add_argument("--default-threshold", type=float, default=20.0,
                        help="percent change tolerated before a metric "
                             "counts as regressed")
    parser.add_argument("--threshold", action="append", metavar="NAME=PCT",
                        help="per-metric threshold override (repeatable)")
    parser.add_argument("--skip", action="append", metavar="GLOB",
                        help="fnmatch glob of metric names to exclude "
                             "(repeatable); e.g. '*seconds*' when base "
                             "and current ran on different machines")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the comparison as JSON instead of text")


def _bench_diff(args: argparse.Namespace) -> BenchDiff:
    thresholds: dict[str, float] = {}
    for spec in args.threshold or []:
        name, separator, pct = spec.partition("=")
        if not separator or not name:
            raise UsageError(f"--threshold expects NAME=PCT, got {spec!r}")
        try:
            thresholds[name] = float(pct)
        except ValueError:
            raise UsageError(
                f"--threshold {spec!r}: {pct!r} is not a number"
            ) from None
    return diff_files(
        args.base,
        args.current,
        default_threshold=args.default_threshold,
        thresholds=thresholds,
        skip=args.skip or [],
    )


EXPLAIN = Command(
    "explain", "hop-by-hop decision provenance for one prefix",
    _explain_arguments, _explain,
)
STATS = Command(
    "stats", "render the metrics slice of a JSON health report",
    _stats_arguments, _stats,
)
BENCH_DIFF = Command(
    "bench-diff", "compare two PROFILE/BENCH JSONs; exit 1 on regression",
    _bench_diff_arguments, _bench_diff,
)
