"""Table 3 (Section 5, training): refinement convergence on the training set.

Paper reference: "We find that we can build an AS-routing model that
matches the training set exactly", with "Perfect RIB-Out matches ...
after a total number of iterations that is a multiple of the maximum
AS-path length" (Section 4.6).
"""

from __future__ import annotations

from repro.experiments import models
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Refine on the training split and report per-iteration convergence."""
    model, refinement = models.refined_model(prepared)
    result = ExperimentResult(
        experiment_id="TAB3",
        title="Iterative refinement on the training set",
        headers=[
            "iteration",
            "RIB-Out matched",
            "of paths",
            "match rate",
            "policies+",
            "quasi-routers+",
            "filters-",
        ],
    )
    for it in refinement.iterations:
        result.add_row(
            it.iteration,
            it.paths_matched,
            it.paths_total,
            it.match_rate,
            it.policies_installed,
            it.routers_added,
            it.filters_deleted,
        )

    report = models.refined_report(prepared, "training")
    max_path_len = max(
        (len(route.path) for route in prepared.training), default=0
    )
    result.metrics["converged"] = int(refinement.converged)
    result.metrics["iterations"] = refinement.iteration_count
    result.metrics["training_paths"] = report.total
    result.metrics["max_path_length"] = max_path_len
    result.metrics["final_training_rib_out"] = report.rib_out_rate
    result.metrics["quasi_routers"] = len(model.network.routers)
    result.metrics["policy_clauses"] = model.policy_clause_count()
    result.note(
        "paper: the refined model matches the training set exactly; "
        "iterations scale with the maximum AS-path length"
    )
    return result
