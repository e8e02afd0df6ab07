"""Table 1: quantiles of the maximum route diversity received per AS.

Paper reference (Section 3.2): "more than 50% of the ASes receive two
unique AS-paths for at least one destination prefix, 10% more than 5, and
2% more than 10" — the distribution whose upper quantiles Table 1 lists.
The value for an AS lower-bounds the number of quasi-routers it needs.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload
from repro.topology.diversity import (
    TABLE1_PERCENTILES,
    max_unique_paths_per_as,
    quantiles,
)

PAPER_REFERENCE = {50.0: 2, 90.0: 5, 98.0: 10}
"""Paper quantiles implied by the Section 3.2 prose."""


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Compute the Table 1 quantiles on the workload's cleaned dataset."""
    per_as = max_unique_paths_per_as(prepared.dataset)
    measured = quantiles(list(per_as.values()), TABLE1_PERCENTILES)
    result = ExperimentResult(
        experiment_id="TAB1",
        title="Maximum # unique AS-paths received, per-AS distribution quantiles",
        headers=["percentile", "measured", "paper"],
    )
    for point in TABLE1_PERCENTILES:
        paper = PAPER_REFERENCE.get(point, "-")
        result.add_row(f"{point:.0f}", measured[point], paper)
    result.metrics["ases"] = len(per_as)
    result.metrics["fraction_ases_ge2"] = (
        sum(1 for v in per_as.values() if v >= 2) / len(per_as) if per_as else 0.0
    )
    result.note(
        "paper: 50% of ASes receive >=2 unique paths for some prefix, "
        "10% more than 5, 2% more than 10 (1300 observation points; "
        "this workload has far fewer, which lowers visible diversity)"
    )
    return result
