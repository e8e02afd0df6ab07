"""Table 2: single-router-per-AS baselines.

Paper reference values::

    Criteria                    Shortest Path   Customer/Peering Policies
    AS-paths which agree               23.5%            12.5%
    ... disagree                       76.4%            87.5%
      AS-path not available            49.4%            54.5%
      shorter AS-path exists            4.7%             5.7%
      lowest neighbor ID               22.2%            27.3%

The baselines share the initial one-quasi-router-per-AS model; the second
adds local-pref/export-filter policies for relationships inferred with the
paper's valley-free heuristic (siblings and unknown edges treated as
peerings, footnote 2).
"""

from __future__ import annotations

from repro.core.build import build_initial_model
from repro.core.metrics import AgreementCategory, evaluate_agreement
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload
from repro.relationships.gao import enforce_acyclic_hierarchy
from repro.relationships.policies import apply_relationship_policies
from repro.relationships.valleyfree import infer_valley_free_relationships

PAPER_REFERENCE = {
    "shortest": {
        AgreementCategory.AGREE: 0.235,
        AgreementCategory.NOT_AVAILABLE: 0.494,
        AgreementCategory.SHORTER_EXISTS: 0.047,
        AgreementCategory.TIE_BREAK: 0.222,
    },
    "policies": {
        AgreementCategory.AGREE: 0.125,
        AgreementCategory.NOT_AVAILABLE: 0.545,
        AgreementCategory.SHORTER_EXISTS: 0.057,
        AgreementCategory.TIE_BREAK: 0.273,
    },
}


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Evaluate both single-router baselines on the full (pruned) dataset."""
    dataset = prepared.model_dataset
    graph = prepared.model_graph

    shortest = build_initial_model(dataset, graph)
    shortest.simulate_all()
    shortest_counts = evaluate_agreement(shortest, dataset)

    relationships = infer_valley_free_relationships(dataset, prepared.level1)
    enforce_acyclic_hierarchy(relationships)
    policied = build_initial_model(dataset, graph)
    apply_relationship_policies(policied.network, relationships)
    stats = policied.simulate_all(tolerate_divergence=True)
    policy_counts = evaluate_agreement(policied, dataset)

    result = ExperimentResult(
        experiment_id="TAB2",
        title="Agreement between predicted and observed AS-paths (1 router/AS)",
        headers=[
            "criteria",
            "shortest path",
            "paper",
            "cust/peering policies",
            "paper ",
        ],
    )
    total_s = sum(shortest_counts.values()) or 1
    total_p = sum(policy_counts.values()) or 1

    def row(label: str, category: AgreementCategory) -> None:
        result.add_row(
            label,
            shortest_counts[category] / total_s,
            PAPER_REFERENCE["shortest"].get(category, 0.0),
            policy_counts[category] / total_p,
            PAPER_REFERENCE["policies"].get(category, 0.0),
        )

    row("AS-paths which agree", AgreementCategory.AGREE)
    result.add_row(
        "AS-paths which disagree",
        1 - shortest_counts[AgreementCategory.AGREE] / total_s,
        0.764,
        1 - policy_counts[AgreementCategory.AGREE] / total_p,
        0.875,
    )
    row("  AS-path not available", AgreementCategory.NOT_AVAILABLE)
    row("  shorter AS-path exists", AgreementCategory.SHORTER_EXISTS)
    row("  lowest neighbor ID", AgreementCategory.TIE_BREAK)
    row("  other decision step", AgreementCategory.OTHER)

    result.metrics["cases"] = total_s
    result.metrics["shortest_agree"] = shortest_counts[AgreementCategory.AGREE] / total_s
    result.metrics["policies_agree"] = policy_counts[AgreementCategory.AGREE] / total_p
    result.metrics["policies_diverged_prefixes"] = len(stats.diverged)
    result.note(
        "paper: both baselines are poor; the dominant failure is the observed "
        "path never being available at the observation AS"
    )
    return result
