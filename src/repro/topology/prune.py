"""Pruning single-homed stub ASes with path transfer (Section 3.1).

"Single-homed ASes that do not provide transit only add limited
information about the AS-topology as long as any path information gathered
from prefixes originated at such stub-ASes is transferred to a prefix
originated at its AS neighbor."

Pruning therefore (a) truncates paths that *end* in a single-homed stub so
the upstream neighbour becomes the origin, (b) drops observations whose
observation AS *is* a pruned stub, and (c) removes the pruned ASes from
the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DatasetError
from repro.net.aspath import ASPath
from repro.topology.classify import ASClassification, Role, classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.graph import ASGraph


@dataclass
class PruneResult:
    """Outcome of stub pruning."""

    dataset: PathDataset
    graph: ASGraph
    pruned_asns: set[int]
    transferred_routes: int
    dropped_routes: int


def prune_single_homed_stubs(
    dataset: PathDataset,
    graph: ASGraph,
    classification: ASClassification,
) -> PruneResult:
    """Remove single-homed stub ASes, transferring their path information."""
    doomed = classification.role_members(Role.STUB_SINGLE_HOMED)
    # Never prune an AS that hosts an observation point for a route we keep:
    # the observation AS must stay addressable in the model.  (Observation
    # points inside single-homed stubs see paths through their single
    # provider; those observations are dropped, matching the paper's node
    # counts.)
    transferred = 0
    dropped = 0
    result = PathDataset()

    for route in dataset:
        if route.observer_asn in doomed:
            dropped += 1
            continue
        path = route.path
        if path.origin_asn in doomed:
            if len(path) < 2:
                dropped += 1
                continue
            path = ASPath(path.asns[:-1])
            transferred += 1
        if any(asn in doomed for asn in path):
            # A supposedly single-homed stub in the *middle* of a path would
            # contradict the classification; drop defensively.
            dropped += 1
            continue
        result.add(
            ObservedRoute(route.point_id, route.observer_asn, route.prefix, path)
        )

    pruned_graph = graph.copy()
    for asn in doomed:
        pruned_graph.remove_as(asn)

    return PruneResult(
        dataset=result,
        graph=pruned_graph,
        pruned_asns=set(doomed),
        transferred_routes=transferred,
        dropped_routes=dropped,
    )


def prepare_dataset(
    dataset: PathDataset, seeds: list[int] | None = None
) -> tuple[PathDataset, ASGraph, set[int], ASClassification, PruneResult]:
    """The paper's Section 3 preparation of a parsed dataset.

    clean -> graph -> level-1 clique -> classify -> prune, returning every
    intermediate: ``(cleaned dataset, graph, level1, classification,
    pruned)``.  Without ``seeds`` the highest-degree AS seeds the clique.
    """
    dataset = dataset.cleaned()
    graph = ASGraph.from_dataset(dataset)
    if not graph.ases():
        # A fully-quarantined feed must fail loudly here, not as an
        # opaque ValueError from max() below.
        raise DatasetError(
            "dataset is empty after cleaning; no usable routes survived"
        )
    if not seeds:
        seeds = [max(graph.ases(), key=graph.degree)]
    level1 = infer_level1_clique(graph, seeds)
    classification = classify_ases(dataset, graph, level1)
    pruned = prune_single_homed_stubs(dataset, graph, classification)
    return dataset, graph, level1, classification, pruned


def restrict_to_largest_component(graph: ASGraph) -> tuple[ASGraph, set[int]]:
    """Keep only the largest connected component of ``graph``.

    Real ingested AS graphs (CAIDA as-rel files, noisy table dumps) are
    not connected: quarantine-surviving fragments and stale edges leave
    small islands that would crash clique inference and bias the
    classification.  Returns the restricted graph and the set of ASNs
    that were dropped; an empty graph passes through unchanged.
    """
    remaining = graph.ases()
    best: set[int] = set()
    while remaining and len(remaining) > len(best):
        seed = next(iter(remaining))
        component = {seed}
        frontier = [seed]
        while frontier:
            asn = frontier.pop()
            for neighbor in graph.neighbors(asn):
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        remaining -= component
        if len(component) > len(best):
            best = component
    if not best:
        return graph.copy(), set()
    dropped = graph.ases() - best
    return graph.subgraph(best), dropped
