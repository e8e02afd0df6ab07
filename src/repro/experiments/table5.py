"""Table 5 (Sections 4.2/4.7): predicting paths for unobserved prefixes.

The alternative data slicing: the training and validation sets contain
*disjoint origin ASes*, so the validation prefixes received no per-prefix
policies at all during refinement.  Their propagation is shaped only by
the quasi-router topology that refinement created — a strictly harder
prediction task than the observation-point split.
"""

from __future__ import annotations

from repro.core.build import build_initial_model
from repro.core.predict import evaluate_model
from repro.core.refine import RefinementConfig, Refiner
from repro.core.split import split_by_origin
from repro.experiments import models
from repro.experiments.report import ExperimentResult
from repro.experiments.table4 import add_prediction_rows
from repro.experiments.workloads import PreparedWorkload


def run(
    prepared: PreparedWorkload,
    config: RefinementConfig = RefinementConfig(),
) -> ExperimentResult:
    """Refine on half the origins, predict paths for the other half."""
    training, validation = split_by_origin(
        prepared.model_dataset, 0.5, seed=prepared.workload.split_seed
    )
    model = build_initial_model(prepared.model_dataset, prepared.model_graph)
    refiner = Refiner(model, training, config)
    refinement = refiner.run()
    training_report = evaluate_model(model, training)
    validation_report = evaluate_model(model, validation)

    result = ExperimentResult(
        experiment_id="TAB5",
        title="Prediction for unobserved prefixes (origin-AS split)",
        headers=["metric", "training origins", "validation origins"],
    )
    add_prediction_rows(result, training_report, validation_report)
    result.metrics["converged"] = int(refinement.converged)
    result.metrics["validation_rib_out"] = validation_report.rib_out_rate
    result.metrics["validation_tie_break_or_better"] = (
        validation_report.tie_break_or_better_rate
    )
    # TAB4's headline on the same workload, so "harder than the
    # observation-point split" is a comparison this result carries.
    result.metrics["observation_split_tie_break_or_better"] = (
        models.refined_report(prepared, "validation").tie_break_or_better_rate
    )
    result.note(
        "paper: unobserved prefixes are harder — validation prefixes received "
        "no per-prefix policies, so accuracy below the observation-point "
        "split is expected (Section 4.7 discusses re-refining for new prefixes)"
    )
    return result
