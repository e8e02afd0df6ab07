"""Ablation studies for the design choices DESIGN.md calls out.

* :func:`observation_points` — prediction accuracy as a function of how
  many vantage points the training set contains (the paper's claim that
  exploiting *many* observation points is what makes the model accurate).
* :func:`policy_mechanisms` — which refinement mechanism earns the
  accuracy: quasi-router duplication, filters, MED ranking, or filter
  deletion.
"""

from __future__ import annotations

import random

from repro.core.build import build_initial_model
from repro.core.predict import evaluate_model
from repro.core.refine import RefinementConfig, Refiner
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload


def observation_points(
    prepared: PreparedWorkload,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 5,
) -> ExperimentResult:
    """Sweep the number of training observation points."""
    result = ExperimentResult(
        experiment_id="ABL1",
        title="Validation accuracy vs. number of training observation points",
        headers=[
            "training points",
            "training paths",
            "converged",
            "val RIB-Out",
            "val tie-break+",
        ],
    )
    all_points = sorted(prepared.training.observation_points())
    rng = random.Random(seed)
    shuffled = list(all_points)
    rng.shuffle(shuffled)
    for fraction in fractions:
        count = max(1, round(len(shuffled) * fraction))
        subset = prepared.training.restrict_points(shuffled[:count])
        model = build_initial_model(prepared.model_dataset, prepared.model_graph)
        refinement = Refiner(model, subset).run()
        report = evaluate_model(model, prepared.validation)
        result.add_row(
            count,
            len(subset.unique_paths()),
            "yes" if refinement.converged else "no",
            report.rib_out_rate,
            report.tie_break_or_better_rate,
        )
        result.metrics[f"val_rib_out_at_{count}_points"] = report.rib_out_rate
    result.note(
        "paper: exploiting many vantage points is what makes the model "
        "accurate — more of them in training should help"
    )
    return result


MECHANISM_VARIANTS: dict[str, RefinementConfig] = {
    "full (paper)": RefinementConfig(),
    "no duplication": RefinementConfig(allow_duplication=False),
    "no policies": RefinementConfig(allow_policies=False),
    "filters only": RefinementConfig(install_ranking=False),
    "ranking only": RefinementConfig(install_filters=False),
    "no filter deletion": RefinementConfig(filter_deletion=False),
}


def policy_mechanisms(prepared: PreparedWorkload) -> ExperimentResult:
    """Disable each refinement mechanism in turn."""
    result = ExperimentResult(
        experiment_id="ABL2",
        title="Refinement mechanism ablation",
        headers=[
            "variant",
            "converged",
            "iters",
            "train RIB-Out",
            "val RIB-Out",
            "val tie-break+",
            "quasi-routers",
        ],
    )
    for name, config in MECHANISM_VARIANTS.items():
        model = build_initial_model(prepared.model_dataset, prepared.model_graph)
        refinement = Refiner(model, prepared.training, config).run()
        train_report = evaluate_model(model, prepared.training)
        val_report = evaluate_model(model, prepared.validation)
        result.add_row(
            name,
            "yes" if refinement.converged else "no",
            refinement.iteration_count,
            train_report.rib_out_rate,
            val_report.rib_out_rate,
            val_report.tie_break_or_better_rate,
            len(model.network.routers),
        )
        key = name.replace(" ", "_").replace("(", "").replace(")", "")
        result.metrics[f"train_rib_out[{key}]"] = train_report.rib_out_rate
    result.note(
        "paper: both multiple quasi-routers AND per-prefix "
        "policies are necessary — each single mechanism alone falls short"
    )
    return result
