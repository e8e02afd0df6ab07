"""Gao-style degree-based relationship inference [Gao 2001].

For every observed path the highest-degree AS is assumed to be the "top
provider"; edges on the observer side of the top are customer->provider
(each AS is a customer of the next one towards the top) and edges on the
origin side are provider->customer.  Votes are accumulated over all paths
and edges with strong votes in both directions become siblings.

This is the classic alternative to the paper's seed-clique heuristic and
is included both as a cross-check and because much of the related work the
paper compares against ([16-18]) uses it.
"""

from __future__ import annotations

from collections import defaultdict

from repro.relationships.types import Relationship, RelationshipMap
from repro.topology.dataset import PathDataset
from repro.topology.graph import ASGraph


def infer_gao_relationships(
    dataset: PathDataset,
    graph: ASGraph | None = None,
    sibling_ratio: float = 1.0,
) -> RelationshipMap:
    """Infer relationships by top-provider voting.

    ``sibling_ratio`` controls sibling detection: an edge with transit
    votes in both directions is a sibling when the weaker direction has at
    least ``weaker >= stronger / (1 + sibling_ratio)`` votes... in Gao's
    notation L = 1 corresponds to requiring the minority direction to carry
    at least half the majority's votes.
    """
    if graph is None:
        graph = ASGraph.from_dataset(dataset)

    # provider_votes[(a, b)] counts evidence that b is a's provider.
    provider_votes: dict[tuple[int, int], int] = defaultdict(int)

    for path in sorted(dataset.unique_paths()):
        if len(path) < 2:
            continue
        top_index = max(range(len(path)), key=lambda i: (graph.degree(path[i]), -i))
        # Observer side of the top: climbing towards the top provider, so
        # path[i+1] is path[i]'s provider.
        for i in range(top_index):
            provider_votes[(path[i], path[i + 1])] += 1
        # Origin side: descending, so path[i] is path[i+1]'s provider.
        for i in range(top_index, len(path) - 1):
            provider_votes[(path[i + 1], path[i])] += 1

    relationships = RelationshipMap()
    seen: set[tuple[int, int]] = set()
    for (a, b), votes_ab in sorted(provider_votes.items()):
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        votes_ba = provider_votes.get((b, a), 0)
        low, high = sorted((votes_ab, votes_ba))
        if low > 0 and high <= low * (1 + sibling_ratio):
            relationships.set(a, b, Relationship.SIBLING)
        elif votes_ab >= votes_ba:
            relationships.set(a, b, Relationship.PROVIDER)
        else:
            relationships.set(a, b, Relationship.CUSTOMER)
    return relationships


def enforce_acyclic_hierarchy(relationships: RelationshipMap) -> int:
    """Break customer->provider cycles by demoting edges to PEER.

    Inference errors can produce a cyclic provider hierarchy (A provides
    for B provides for C provides for A), which violates the Gao-Rexford
    convergence conditions and can make the policy simulation diverge.
    Repeatedly find a cycle in the customer->provider digraph and demote
    its lexicographically-smallest edge to a peering.  Returns the number
    of demoted edges.
    """
    import networkx as nx

    demoted = 0
    while True:
        digraph = nx.DiGraph()
        for a, b, rel in relationships.edges():
            if rel is Relationship.PROVIDER:
                digraph.add_edge(a, b)  # a's provider is b: a -> b points up
            elif rel is Relationship.CUSTOMER:
                digraph.add_edge(b, a)
        try:
            cycle = nx.find_cycle(digraph)
        except nx.NetworkXNoCycle:
            return demoted
        edge = min((min(u, v), max(u, v)) for u, v in cycle)
        relationships.set(edge[0], edge[1], Relationship.PEER)
        demoted += 1
