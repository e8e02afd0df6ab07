"""The ``repro`` commands that read a run back.

* ``repro explain`` — replay one prefix of a saved model and print
  hop-by-hop decision provenance: candidates, the decision step that
  selected the winner, and the refinement iteration that installed each
  policy consulted.
* ``repro stats`` — render the metrics/metadata slice of a JSON health
  report (counters, gauges, histogram percentiles, phase timings) or of
  a ``repro campaign --report`` file.
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.command import Command, Output, json_text, load_model
from repro.errors import TopologyError
from repro.net.prefix import Prefix
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


EXPLAIN = Command(
    "explain", "hop-by-hop decision provenance for one prefix",
    _explain_arguments, _explain,
)
STATS = Command(
    "stats", "render the metrics slice of a JSON health report",
    _stats_arguments, _stats,
)
