"""Experiment harness: one module per paper table/figure.

Every experiment consumes a :class:`~repro.experiments.workloads.PreparedWorkload`
(a synthetic Internet + collected dataset + splits, cached per workload) and
returns an :class:`~repro.experiments.report.ExperimentResult` whose
``render()`` prints the same rows/series the paper reports, next to the
paper's own numbers where the supplied text states them.
"""

from repro.experiments.workloads import (
    Workload,
    PreparedWorkload,
    SMALL,
    DEFAULT,
    LARGE,
    prepare,
)
from repro.experiments.report import ExperimentResult, format_table
from repro.experiments import (
    chaos,
    deflection,
    fig2,
    fig3,
    fig8,
    obs,
    table1,
    table2,
    table3,
    table4,
    table5,
    ablations,
    scaling,
)

__all__ = [
    "Workload",
    "PreparedWorkload",
    "SMALL",
    "DEFAULT",
    "LARGE",
    "prepare",
    "ExperimentResult",
    "format_table",
    "deflection",
    "fig2",
    "fig3",
    "fig8",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "ablations",
    "chaos",
    "obs",
    "scaling",
]
