"""Shared fixtures: small deterministic networks and a mini end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.bgp import Network, simulate
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.net.prefix import Prefix
from repro.topology.classify import classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.graph import ASGraph
from repro.topology.prune import prune_single_homed_stubs


@pytest.fixture
def diamond():
    """AS1 observes a prefix from AS4 over two equal-length branches.

          AS2
         /    \\
      AS1      AS4 (originates 10.0.0.0/24)
         \\    /
          AS3
    """
    net = Network("diamond")
    routers = {asn: net.add_router(asn) for asn in (1, 2, 3, 4)}
    net.connect(routers[1], routers[2])
    net.connect(routers[1], routers[3])
    net.connect(routers[2], routers[4])
    net.connect(routers[3], routers[4])
    prefix = Prefix("10.0.0.0/24")
    net.originate(routers[4], prefix)
    return net, routers, prefix


@pytest.fixture
def line():
    """AS1 - AS2 - AS3 chain plus a direct AS1 - AS3 shortcut."""
    net = Network("line")
    routers = {asn: net.add_router(asn) for asn in (1, 2, 3)}
    net.connect(routers[1], routers[2])
    net.connect(routers[2], routers[3])
    net.connect(routers[1], routers[3])
    prefix = Prefix("10.0.0.0/24")
    net.originate(routers[3], prefix)
    return net, routers, prefix


@pytest.fixture
def multi_router_as():
    """AS10 with two iBGP-meshed border routers towards two origins' paths.

    AS20 and AS30 both provide a route to AS40's prefix; router ``a`` of
    AS10 peers with AS20, router ``b`` with AS30, IGP cost 5 between them.
    """
    net = Network("multi-router")
    a = net.add_router(10)
    b = net.add_router(10)
    net.ases[10].igp.add_link(a.router_id, b.router_id, 5)
    net.ibgp_full_mesh(10)
    o1 = net.add_router(20)
    o2 = net.add_router(30)
    src = net.add_router(40)
    net.connect(a, o1)
    net.connect(b, o2)
    net.connect(o1, src)
    net.connect(o2, src)
    prefix = Prefix("10.1.0.0/24")
    net.originate(src, prefix)
    return net, {"a": a, "b": b, "o1": o1, "o2": o2, "src": src}, prefix


MINI_CONFIG = SyntheticConfig(
    seed=5, n_level1=4, n_level2=6, n_other=10, n_stub=22
)


@pytest.fixture(scope="session")
def mini_internet():
    """A small simulated ground-truth Internet (session-scoped, read-only)."""
    internet = synthesize_internet(MINI_CONFIG)
    simulate(internet.network)
    return internet


@pytest.fixture(scope="session")
def mini_dataset(mini_internet):
    """Cleaned observation dataset collected from the mini Internet."""
    points = select_observation_points(
        mini_internet, 16, seed=2, multi_point_fraction=0.5
    )
    return collect_dataset(mini_internet.network, points).cleaned()


@pytest.fixture(scope="session")
def mini_pipeline(mini_internet, mini_dataset):
    """Graph, level-1 clique, classification, pruning for the mini Internet."""
    graph = ASGraph.from_dataset(mini_dataset)
    level1 = infer_level1_clique(graph, mini_internet.level1_asns[:2])
    classification = classify_ases(mini_dataset, graph, level1)
    pruned = prune_single_homed_stubs(mini_dataset, graph, classification)
    return {
        "graph": graph,
        "level1": level1,
        "classification": classification,
        "pruned": pruned,
    }
