"""The ``repro`` commands that ask a saved model "what if".

* ``repro campaign`` — sweep a scenario space (depeer / link-failure /
  hijack / catchment) against a saved model and rank the scenarios by
  blast radius relative to a baseline prediction artifact.  Unknown ASNs
  and missing per-kind flags are usage errors named before any scenario
  runs; ``--workers N`` ranks bit-identically to sequential; a
  SIGINT/SIGTERM drains to the ``--checkpoint`` a ``--resume`` continues.
* ``repro whatif`` — one depeer scenario of that sweep, printed with the
  before/after paths of every pair it changes (:func:`whatif`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro.campaign.engine import (
    context_from_artifact,
    run_campaign,
    validate_baseline,
    whatif,
)
from repro.campaign.scenarios import (
    generate_catchment,
    generate_depeer,
    generate_hijack,
    generate_link_failure,
)
from repro.command import (
    Command,
    Output,
    add_parallel_arguments,
    load_model,
    non_negative_int,
    parallel_config,
)
from repro.core.model import ASRoutingModel
from repro.errors import TopologyError, UsageError
from repro.obs.metrics import get_registry
from repro.serve.artifact import PredictionArtifact
from repro.serve.compile import compile_artifact


def _campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "kind", choices=["depeer", "link-failure", "hijack", "catchment"],
        help="which scenario space to sweep")
    parser.add_argument(
        "model", help="model config written by 'repro refine --out'")
    parser.add_argument(
        "--baseline", metavar="ARTIFACT",
        help="baseline prediction artifact to diff against "
             "(default: compile one in-process)")
    parser.add_argument(
        "--ases", type=int, nargs="*", metavar="ASN",
        help="depeer: only adjacencies incident to these ASes")
    parser.add_argument(
        "--top-degree", type=int, default=3,
        help="link-failure: target the K highest-degree ASes")
    parser.add_argument(
        "--seeds", type=int, nargs="*", metavar="ASN",
        help="link-failure: explicit target ASes instead of --top-degree")
    parser.add_argument(
        "--victim", type=int, metavar="ASN",
        help="hijack: the AS whose canonical prefix is re-originated")
    parser.add_argument(
        "--attackers", type=int, nargs="*", metavar="ASN",
        help="hijack: candidate attacker ASes (default: every other AS)")
    parser.add_argument(
        "--sites", type=int, nargs="*", metavar="ASN",
        help="catchment: anycast site ASes (at least 2)")
    parser.add_argument(
        "--max-scenarios", type=non_negative_int, metavar="N",
        help="cap the scenario space at the first N scenarios (key order); "
             "the dropped tail is reported, never silent")
    parser.add_argument(
        "--top", type=int, default=10,
        help="ranked scenarios to print (0 = all)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the ranked report as JSON instead of text")
    parser.add_argument(
        "--report", metavar="PATH",
        help="also write the full JSON report to this file")
    parser.add_argument(
        "--checkpoint", metavar="PATH",
        help="scenario checkpoint file (written on completion and during "
             "a signal-driven drain)")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip scenarios already recorded in --checkpoint")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write campaign and supervision trace events as JSON lines")
    add_parallel_arguments(parser)


def _scenarios(args: argparse.Namespace, model: ASRoutingModel) -> list:
    """The scenario space one invocation names (``TopologyError``: unknown
    ASNs or a missing per-kind flag)."""
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


def _campaign(args: argparse.Namespace) -> Output:
    model = load_model(args.model)
    if args.baseline:
        artifact = PredictionArtifact.load(args.baseline)
        validate_baseline(model, artifact)
    else:
        print("no --baseline given; compiling one in-process",
              file=sys.stderr)
        artifact, _ = compile_artifact(model)
    try:
        scenarios = _scenarios(args, model)
    except TopologyError as error:
        raise UsageError(str(error)) from error
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
        raise UsageError("the scenario space is empty")
    report = run_campaign(
        model,
        args.kind,
        scenarios,
        context_from_artifact(artifact),
        parallel=parallel_config(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    report.meta.update(args.meta)
    # What `repro stats REPORT` renders: engine.prefixes against
    # engine.resumes is how much of the sweep was perturbed, not recomputed.
    report.meta["metrics"] = get_registry().snapshot()
    if dropped:
        report.meta["scenarios_dropped"] = dropped
    return Output(
        report.to_json,
        partial(report.render, top=args.top if args.top > 0 else None),
        report.exit_code,
    )


CAMPAIGN = Command(
    "campaign",
    "sweep a scenario space (depeer / link-failure / hijack / "
    "catchment) and rank scenarios by blast radius",
    _campaign_arguments, _campaign, ("report", "report"),
)


def _whatif_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model config written by 'repro refine --out'")
    parser.add_argument("--remove", type=int, nargs=2, metavar=("ASN_A", "ASN_B"),
                        required=True)
    parser.add_argument("--max-changes", type=non_negative_int, default=10,
                        help="how many changed pairs to print")


def _whatif(args: argparse.Namespace) -> None:
    model = load_model(args.model)
    try:
        answer = whatif(model, *args.remove)
    except TopologyError as error:
        raise UsageError(str(error)) from error
    print(answer.render(args.max_changes))


WHATIF = Command("whatif", "predict a link removal", _whatif_arguments, _whatif)
