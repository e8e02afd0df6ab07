"""Shared (cached) model construction for the experiment modules.

Refining a model is the expensive step several experiments share
(Tables 3-5, Figure 8), so the refined model for a prepared workload is
built once and reused; no experiment mutates it.  Grading it on a split
is the next most expensive, and Tables 3-5 read the same two reports.
"""

from __future__ import annotations

from repro.core.build import build_initial_model
from repro.core.metrics import MatchReport
from repro.core.model import ASRoutingModel
from repro.core.predict import evaluate_model
from repro.core.refine import RefinementResult, Refiner
from repro.experiments.workloads import PreparedWorkload

_CACHE: dict[int, tuple[ASRoutingModel, RefinementResult]] = {}
_REPORTS: dict[tuple[int, str], MatchReport] = {}


def initial_model(prepared: PreparedWorkload) -> ASRoutingModel:
    """A fresh single-quasi-router-per-AS model for the workload."""
    return build_initial_model(prepared.model_dataset, prepared.model_graph)


def refined_model(
    prepared: PreparedWorkload,
) -> tuple[ASRoutingModel, RefinementResult]:
    """The model refined on the workload's training split (cached)."""
    key = id(prepared)
    if key not in _CACHE:
        model = initial_model(prepared)
        _CACHE[key] = (model, Refiner(model, prepared.training).run())
    return _CACHE[key]


def refined_report(prepared: PreparedWorkload, split: str) -> MatchReport:
    """The refined model graded on the workload's ``"training"`` or
    ``"validation"`` split (cached)."""
    key = (id(prepared), split)
    if key not in _REPORTS:
        model, _ = refined_model(prepared)
        _REPORTS[key] = evaluate_model(model, getattr(prepared, split))
    return _REPORTS[key]
