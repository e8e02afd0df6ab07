"""Initial-model construction (Section 4.5).

"To derive the initial model we use all available BGP feeds, training as
well as validation, to derive an AS-graph from the AS-path information...
Initially, all ASes consist of a single quasi-router, and peerings are
established according to the edges of the AS graph."
"""

from __future__ import annotations

from repro.bgp.network import Network
from repro.core.model import ASRoutingModel
from repro.relationships.types import RelationshipMap
from repro.topology.dataset import PathDataset
from repro.topology.graph import ASGraph


def build_relationship_model(
    graph: ASGraph, relationships: RelationshipMap
) -> ASRoutingModel:
    """Build the initial model straight from an ingested AS-rel graph.

    Mirrors :func:`build_initial_model` — one quasi-router and one
    canonical prefix per AS — but seeds peerings from a CAIDA-style
    relationship graph instead of observed AS-paths, and installs the
    Gao-Rexford import/export policies for every classified edge, so the
    result is immediately certifiable against ``relationships`` (the
    ``gao`` analysis pass and ``repro lint --relationships``).
    """
    from repro.relationships.policies import apply_relationship_policies

    network = Network(name="as-relationship-model")
    for asn in sorted(graph.ases()):
        network.add_router(asn)
    for a, b in sorted(graph.edges()):
        router_a = network.as_routers(a)[0]
        router_b = network.as_routers(b)[0]
        network.connect(router_a, router_b)
    apply_relationship_policies(network, relationships)
    model = ASRoutingModel(network=network)
    for asn in sorted(graph.ases()):
        model.add_origin(asn)
    network.validate()
    return model


def build_initial_model(
    dataset: PathDataset,
    graph: ASGraph | None = None,
) -> ASRoutingModel:
    """Build the one-quasi-router-per-AS model from observed paths.

    ``graph`` may be supplied when the AS graph was already extracted (and
    possibly pruned); otherwise it is derived from ``dataset``.  It is
    read, not kept: the model's AS view is its network's sessions.  Every
    AS in the graph originates one canonical prefix, matching the paper's
    one-prefix-per-AS simplification.
    """
    if graph is None:
        graph = ASGraph.from_dataset(dataset)
    network = Network(name="as-routing-model")
    for asn in sorted(graph.ases()):
        network.add_router(asn)
    for a, b in sorted(graph.edges()):
        router_a = network.as_routers(a)[0]
        router_b = network.as_routers(b)[0]
        network.connect(router_a, router_b)
    model = ASRoutingModel(network=network)
    for asn in sorted(graph.ases()):
        model.add_origin(asn)
    network.validate()
    return model
