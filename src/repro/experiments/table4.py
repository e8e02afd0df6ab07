"""Table 4 (Section 5, validation): predicting unobserved routes.

Paper reference: "we can match the predictions down to the final BGP tie
break in more than 80% of the test cases" — i.e. RIB-Out plus potential
RIB-Out exceeds 80% on the held-out observation points.  The experiment
also reports the per-prefix coverage counters defined in Section 4.2
(">=50%, 90%, or 100% of their respective unique AS-paths").
"""

from __future__ import annotations

from repro.core.metrics import MatchKind, MatchReport
from repro.experiments import models
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload


def add_prediction_rows(
    result: ExperimentResult, training: MatchReport, validation: MatchReport
) -> None:
    """The Section 4.2 match rates of a model on the split it was refined
    on and on the split held out: the body Tables 4 and 5 share."""
    result.add_row("cases (unique paths)", training.total, validation.total)
    result.add_row("RIB-Out match", training.rib_out_rate, validation.rib_out_rate)
    result.add_row(
        "potential RIB-Out match",
        training.rate(MatchKind.POTENTIAL_RIB_OUT),
        validation.rate(MatchKind.POTENTIAL_RIB_OUT),
    )
    result.add_row(
        "matched down to tie-break",
        training.tie_break_or_better_rate,
        validation.tie_break_or_better_rate,
    )
    result.add_row(
        "RIB-In match (upper bound)",
        training.rib_in_or_better_rate,
        validation.rib_in_or_better_rate,
    )


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Evaluate the refined model on training and validation splits."""
    training_report = models.refined_report(prepared, "training")
    validation_report = models.refined_report(prepared, "validation")

    result = ExperimentResult(
        experiment_id="TAB4",
        title="Prediction quality (Section 4.2 metrics)",
        headers=["metric", "training", "validation"],
    )
    add_prediction_rows(result, training_report, validation_report)
    for label, threshold in ((">=50%", 0.5), (">=90%", 0.9), ("100%", 1.0)):
        result.add_row(
            f"origins with {label} paths matched",
            training_report.prefixes_with_coverage(threshold)
            / max(training_report.origin_count, 1),
            validation_report.prefixes_with_coverage(threshold)
            / max(validation_report.origin_count, 1),
        )

    result.metrics["validation_tie_break_or_better"] = (
        validation_report.tie_break_or_better_rate
    )
    result.metrics["validation_rib_out"] = validation_report.rib_out_rate
    result.metrics["validation_rib_in_or_better"] = (
        validation_report.rib_in_or_better_rate
    )
    result.note(
        "paper: >80% of validation cases match down to the final BGP tie break; "
        "training matches exactly"
    )
    return result
