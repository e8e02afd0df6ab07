"""Experiment harness: one module per paper table/figure, one table of them.

Every experiment consumes a :class:`~repro.experiments.workloads.PreparedWorkload`
(a synthetic Internet + collected dataset + splits, cached per workload) and
returns an :class:`~repro.experiments.report.ExperimentResult` whose
``render()`` prints the same rows/series the paper reports, next to the
paper's own numbers where the supplied text states them.
:data:`~repro.experiments.registry.EXPERIMENTS` declares them once — id,
runner, verdict, record file — and is the only list of them.
"""

from repro.experiments.workloads import (
    Workload,
    PreparedWorkload,
    SMALL,
    DEFAULT,
    LARGE,
    WORKLOADS,
    prepare,
)
from repro.experiments.report import ExperimentResult, format_table
from repro.experiments.registry import EXPERIMENTS, Experiment, verdict_table

__all__ = [
    "Workload",
    "PreparedWorkload",
    "SMALL",
    "DEFAULT",
    "LARGE",
    "WORKLOADS",
    "prepare",
    "ExperimentResult",
    "format_table",
    "EXPERIMENTS",
    "Experiment",
    "verdict_table",
]
