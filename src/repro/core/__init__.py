"""The paper's primary contribution: the quasi-router AS-routing model.

Workflow (Section 4):

1. :func:`~repro.core.build.build_initial_model` — derive the AS graph
   from *all* feeds and build the simplest model: one quasi-router per AS,
   one eBGP session per AS edge, one canonical prefix originated per AS.
2. :class:`~repro.core.refine.Refiner` — iteratively compare simulated
   with observed (training) AS-paths and repair mismatches by installing
   per-prefix filters and MED rankings, duplicating quasi-routers, and
   deleting stale filters, until the model reproduces the training paths.
3. :func:`~repro.core.predict.evaluate_model` — grade the refined model
   against a held-out validation set using the Section 4.2 metrics
   (RIB-In match, potential RIB-Out match, RIB-Out match).
"""

from repro.core.model import ASRoutingModel, MODEL_DECISION_CONFIG
from repro.core.build import build_initial_model
from repro.core.metrics import (
    MatchKind,
    MatchReport,
    classify_route_match,
    evaluate_dataset,
)
from repro.core.split import split_by_observation_points, split_by_origin
from repro.core.refine import Refiner, RefinementConfig, RefinementResult
from repro.core.predict import (
    collect_path_map,
    evaluate_model,
    origin_is_simulated,
    predict_paths,
    selected_paths,
    validate_pair,
)

__all__ = [
    "ASRoutingModel",
    "MODEL_DECISION_CONFIG",
    "build_initial_model",
    "MatchKind",
    "MatchReport",
    "classify_route_match",
    "evaluate_dataset",
    "split_by_observation_points",
    "split_by_origin",
    "Refiner",
    "RefinementConfig",
    "RefinementResult",
    "collect_path_map",
    "evaluate_model",
    "origin_is_simulated",
    "predict_paths",
    "selected_paths",
    "validate_pair",
]
