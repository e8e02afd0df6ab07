"""Figure 8 (Section 5, model size): quasi-routers per AS after refinement.

The distribution mirrors Table 1's lower bound: most ASes keep a single
quasi-router, while core ASes that propagate many distinct routes need
several.  The experiment cross-checks the refined model against the
Table 1 lower bound computed from the training data.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments import models
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload
from repro.topology.diversity import max_unique_paths_per_as


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Histogram of quasi-routers per AS in the refined model."""
    model, _ = models.refined_model(prepared)
    counts = model.quasi_router_counts()
    histogram = Counter(counts.values())
    total = len(counts)

    result = ExperimentResult(
        experiment_id="FIG8",
        title="Quasi-routers per AS in the refined model",
        headers=["quasi-routers", "# ASes", "fraction"],
    )
    for size in sorted(histogram):
        result.add_row(size, histogram[size], histogram[size] / total)

    # ASes pruned from the model have no count and are skipped.
    lower_bound = max_unique_paths_per_as(prepared.training)
    violations = sum(
        1
        for asn, bound in lower_bound.items()
        if counts.get(asn, 0) and counts[asn] < bound
    )
    result.metrics["ases"] = total
    result.metrics["single_router_fraction"] = histogram.get(1, 0) / total
    result.metrics["max_quasi_routers"] = max(histogram, default=0)
    result.metrics["mean_quasi_routers"] = (
        sum(size * n for size, n in histogram.items()) / total if total else 0.0
    )
    result.metrics["lower_bound_violations"] = violations
    result.note(
        "paper: most ASes need one quasi-router, core ASes many; "
        "Table 1's per-AS maximum route diversity lower-bounds the routers an "
        "AS needs; after convergence the refined model satisfies the bound "
        "for every AS it matched"
    )
    return result
