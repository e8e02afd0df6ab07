"""``repro lint`` — static analysis of a saved model config (or of the
certificates embedded in a compiled artifact), no simulation:
dispute-wheel safety, route-map lint, topology lint, and — with
``--relationships`` — Gao-Rexford valley-free export compliance.
``--diff BASE`` statically diffs two models/artifacts into new /
resolved / unchanged findings.  Exits 1 if any error-severity finding
(for ``--diff``: any *new* error) is reported, 0 otherwise.
"""

from __future__ import annotations

import argparse
from functools import partial

from repro.analysis.analyzer import ALL_PASSES, analyze_model
from repro.analysis.certify import CertificateStore, certify_network
from repro.analysis.diffing import ReportDiff, diff_reports
from repro.analysis.findings import AnalysisReport
from repro.command import Command, Output, load_model
from repro.data.caida import read_as_rel
from repro.data.dumps import read_table_dump
from repro.errors import CertificateError, ParseError, UsageError
from repro.relationships.types import RelationshipMap
from repro.serve.artifact import MAGIC, PredictionArtifact
from repro.topology.dataset import PathDataset


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model config written by 'repro refine "
                                      "--out', or a compiled artifact with "
                                      "embedded certificates")
    parser.add_argument("--dump", help="training dump enabling the dataset-"
                                       "dependent rules (blocking filters, "
                                       "stale refinement clauses, reachability)")
    parser.add_argument("--passes", nargs="*", default=None,
                        metavar="PASS", help="subset of passes to run "
                                             "(safety policy topology gao)")
    parser.add_argument("--relationships", metavar="AS_REL",
                        help="CAIDA as-rel file enabling the Gao-Rexford "
                             "valley-free export pass")
    parser.add_argument("--diff", metavar="BASE",
                        help="statically diff against BASE (a model config or "
                             "compiled artifact) and report new / resolved / "
                             "unchanged findings; exits 1 only on new errors")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full report as JSON instead of text")
    parser.add_argument("--max-findings", type=int, default=50,
                        help="findings shown in text mode (JSON is never cut)")


def _is_artifact(path: str) -> bool:
    """True when ``path`` starts with the prediction-artifact magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _lint_report(
    path: str,
    dataset: PathDataset | None,
    passes: tuple[str, ...],
    relationships: RelationshipMap | None,
    certified: bool,
) -> AnalysisReport:
    """One side of a lint run: a report for a model config or artifact.

    An artifact contributes the certified findings frozen at compile
    time; a model config is analyzed live.  ``certified`` switches the
    live side to the certificate engine's safety/policy/gao passes so a
    ``--diff`` with an artifact on the other side compares
    like-with-like (the dataset- and observer-dependent rules cannot be
    reconstructed from an artifact).
    """
    if _is_artifact(path):
        artifact = PredictionArtifact.load(path)
        if not artifact.certificates:
            raise CertificateError(
                f"artifact {path} carries no safety certificates; recompile "
                "it with this build of 'repro compile-artifact'"
            )
        return CertificateStore.from_dict(artifact.certificates).report()
    model = load_model(path)
    if certified:
        return certify_network(model.network, relationships=relationships).report()
    return analyze_model(
        model, dataset=dataset, passes=passes, relationships=relationships
    )


def _lint(args: argparse.Namespace) -> Output:
    relationships = None
    if args.relationships:
        relationships = read_as_rel(args.relationships).relationships
    dataset = None
    if args.dump:
        dataset = read_table_dump(args.dump).dataset.cleaned()
    passes = tuple(args.passes) if args.passes else ALL_PASSES
    certified = _is_artifact(args.model) or (
        args.diff is not None and _is_artifact(args.diff)
    )
    result: AnalysisReport | ReportDiff
    try:
        result = current = _lint_report(
            args.model, dataset, passes, relationships, certified
        )
        if args.diff is not None:
            base = _lint_report(args.diff, dataset, passes, relationships, certified)
            result = diff_reports(base, current)
    except ParseError:  # a ValueError too, but unusable data, not usage
        raise
    except ValueError as error:
        raise UsageError(str(error)) from error
    return Output(
        result.to_json,
        partial(result.render, max_findings=args.max_findings),
        result.exit_code,
    )


LINT = Command("lint", _lint_arguments, _lint)
