"""Figure 3: a concrete example of path diversity.

The paper illustrates route diversity with prefix 81.196.64.0/20 at
AS 5511: five level-1 providers, eight distinct AS-paths, and an AS
(AS 3356) that needs eight routers to propagate all its paths.  This
experiment extracts the analogous worst case from the synthetic dataset:
the (origin AS, transit AS) pair exhibiting the most distinct route
suffixes.
"""

from __future__ import annotations

from collections import defaultdict

from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload


def run(prepared: PreparedWorkload) -> ExperimentResult:
    """Find and display the most route-diverse (origin, transit AS) example."""
    suffixes: dict[tuple[int, int], set[tuple[int, ...]]] = defaultdict(set)
    for route in prepared.dataset:
        asns = route.path.asns
        for position, asn in enumerate(asns):
            suffixes[(asn, route.origin_asn)].add(asns[position:])

    (diverse_asn, origin), paths = max(
        suffixes.items(), key=lambda item: (len(item[1]), -item[0][0])
    )
    result = ExperimentResult(
        experiment_id="FIG3",
        title=(
            f"Path-diversity example: routes towards AS {origin} "
            f"as propagated by AS {diverse_asn}"
        ),
        headers=["#", "AS-path suffix at the diverse AS"],
    )
    for index, path in enumerate(sorted(paths, key=lambda p: (len(p), p)), start=1):
        result.add_row(index, " ".join(str(asn) for asn in path))
    result.metrics["distinct_paths"] = len(paths)
    result.metrics["routers_needed_lower_bound"] = len(paths)
    result.note(
        "paper: prefix 81.196.64.0/20 at AS 5511 — 8 AS-paths, "
        "AS 3356 needs 8 routers to propagate all of them"
    )
    return result
