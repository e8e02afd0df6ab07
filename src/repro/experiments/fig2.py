"""Figure 2: histogram of distinct AS-paths per (origin, observer) AS pair.

Paper reference points (Section 3.2): "for more than 30% of the AS-pairs
we see more than one AS-path" and "there are more than 5,000 pairs with
more than 10 different paths" (out of ~3.27M pairs, i.e. a small but
heavy tail).
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload
from repro.topology.diversity import distinct_paths_histogram


def run(prepared: PreparedWorkload, max_bucket: int = 10) -> ExperimentResult:
    """Compute the Figure 2 histogram on the workload's cleaned dataset."""
    histogram = distinct_paths_histogram(prepared.dataset)
    total_pairs = sum(histogram.values())
    result = ExperimentResult(
        experiment_id="FIG2",
        title="Histogram of # distinct AS-paths between AS pairs",
        headers=["# distinct AS-paths", "# AS pairs", "fraction"],
    )
    tail = 0
    for count in sorted(histogram):
        if count <= max_bucket:
            result.add_row(count, histogram[count], histogram[count] / total_pairs)
        else:
            tail += histogram[count]
    if tail:
        result.add_row(f">{max_bucket}", tail, tail / total_pairs)

    multipath = sum(n for paths, n in histogram.items() if paths > 1)
    result.metrics["pairs"] = total_pairs
    result.metrics["fraction_multipath"] = multipath / total_pairs if total_pairs else 0.0
    result.metrics["pairs_gt10_paths"] = sum(
        n for paths, n in histogram.items() if paths > 10
    )
    result.note(
        "paper: >30% of AS pairs show more than one distinct AS-path; "
        ">5000 pairs (of 3.27M) show more than 10"
    )
    return result
