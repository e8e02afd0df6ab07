"""Golden RIBs: the engine's output, frozen before the hot path was rewritten.

Three seeded worlds exercise every branch of import / decision / export:
a router-level Internet (iBGP full mesh, IGP hot-potato, per-neighbour
MED, relationship route-maps), a route-reflection Internet with
``NO_EXPORT`` / ``NO_ADVERTISE`` tagging, and a refined quasi-router model
(always-compare MED, per-prefix filter and ranking clauses).  The digests
below were recorded at the commit *before* the kernel rewrite (PR 12,
``a53c66c``); a kernel change that alters any route field in any RIB, or
any ``EngineStats`` counter, changes them.

To re-record after an intended semantic change::

    PYTHONPATH=src python tests/test_bgp_engine_golden.py
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib

import pytest

from repro.bgp import Clause, Match, Network, Route, simulate
from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import EngineStats, _PrefixRun
from repro.core.build import build_initial_model
from repro.core.model import MODEL_DECISION_CONFIG
from repro.core.refine import Refiner
from repro.core.split import split_by_observation_points
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.net.community import NO_ADVERTISE, NO_EXPORT
from repro.parallel.protocol import dump_network
from repro.topology.classify import classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.graph import ASGraph
from repro.topology.prune import prune_single_homed_stubs
from tests.oracle import canonical_dump

ROUTER_LEVEL = SyntheticConfig(
    seed=7, n_level1=3, n_level2=4, n_other=6, n_stub=12,
    multi_homed_stub_fraction=0.4, prefixes_per_as=(2, 3),
    routers_level1=(4, 6), routers_level2=(3, 4), routers_other=(2, 3),
    weird_session_fraction=0.12,
)
"""The ``truth-scale`` benchmark world's shape, shrunk to ~1 s."""

REFLECTION = SyntheticConfig(
    seed=3, n_level1=3, n_level2=4, n_other=5, n_stub=10,
    routers_level1=(4, 6), routers_level2=(3, 4),
    route_reflection_threshold=3,
)

MODEL_WORLD = SyntheticConfig(seed=5, n_level1=3, n_level2=5, n_other=7, n_stub=14)


def router_level_world() -> tuple[Network, EngineStats]:
    network = synthesize_internet(ROUTER_LEVEL).network
    return network, simulate(network)


def reflection_world() -> tuple[Network, EngineStats]:
    """Route reflection, with every 5th eBGP session tagging one prefix
    ``NO_EXPORT`` and every 7th ``NO_ADVERTISE`` on import."""
    network = synthesize_internet(REFLECTION).network
    prefixes = network.prefixes()
    ebgp = sorted(network.ebgp_sessions(), key=lambda s: s.session_id)
    for index, session in enumerate(ebgp):
        prefix = prefixes[index % len(prefixes)]
        for stride, community in ((5, NO_EXPORT), (7, NO_ADVERTISE)):
            if index % stride == 0:
                session.ensure_import_map().prepend(
                    Clause(Match(prefix=prefix), add_communities=frozenset((community,)))
                )
    return network, simulate(network)


def refined_model_world() -> tuple[Network, EngineStats]:
    internet = synthesize_internet(MODEL_WORLD)
    simulate(internet.network)
    points = select_observation_points(internet, 12, seed=2, multi_point_fraction=0.5)
    dataset = collect_dataset(internet.network, points).cleaned()
    graph = ASGraph.from_dataset(dataset)
    level1 = infer_level1_clique(graph, internet.level1_asns[:2])
    pruned = prune_single_homed_stubs(dataset, graph, classify_ases(dataset, graph, level1))
    training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=7)
    model = build_initial_model(pruned.dataset, pruned.graph)
    assert Refiner(model, training).run().converged
    return model.network, model.simulate_all()


WORLDS = {
    "router-level": router_level_world,
    "reflection": reflection_world,
    "refined-model": refined_model_world,
}

GOLDEN = {
    "router-level": ("c286e67f09eda1680fdc461cf936b8b0c9e44f6ab7a407dd994dc022d2a159f0", 16704),
    "reflection": ("c466d3d7ed1c9baf7f0495dbaddc4fc78d0a95c37c65cd1dd84fec0d27239716", 10511),
    "refined-model": ("497c83d2056184e79e09037b2aeb01b331bd23812b6a060851ff71b2fbed1187", 43900),
}
"""World name -> (SHA-256 of the canonical dump, live ``Route`` objects)."""


def digest(network: Network, stats: EngineStats) -> str:
    return hashlib.sha256("\n".join(canonical_dump(network, stats)).encode()).hexdigest()


def live_routes(network: Network) -> int:
    """Distinct ``Route`` objects the network's routers hold."""
    held = set()
    for router in network.routers.values():
        held.update(map(id, router.local_routes.values()))
        held.update(map(id, router.loc_rib.values()))
        for rib in (router.adj_rib_in, router.adj_rib_out):
            for per_session in rib.values():
                held.update(map(id, per_session.values()))
    return len(held)


def _tracked_routes() -> int:
    gc.collect()
    return sum(1 for candidate in gc.get_objects() if type(candidate) is Route)


@pytest.fixture(scope="module", params=sorted(WORLDS))
def built(request):
    """(world name, network, stats, Route objects the build left tracked)."""
    before = _tracked_routes()
    network, stats = WORLDS[request.param]()
    return request.param, network, stats, _tracked_routes() - before


def test_ribs_and_counters_match_the_recorded_digest(built):
    world, network, stats, _ = built
    assert not stats.diverged
    assert digest(network, stats) == GOLDEN[world][0]


def test_same_live_route_objects(built):
    """One ``Route`` per (session, change): none shared, none cached.

    The count of surviving GC-tracked objects sets CPython's
    full-collection schedule; a kernel that shares or interns routes
    moves a gen-2 pass into a neighbouring pipeline stage (DESIGN.md,
    "Engine").  The collector's own count must agree with the RIB walk:
    nothing outside the RIBs may keep a route alive after the call.
    """
    world, network, _, tracked = built
    assert live_routes(network) == GOLDEN[world][1]
    assert tracked == GOLDEN[world][1]


def test_nothing_memoised_survives_the_call():
    """What ``simulate`` leaves on the network is RIB state and nothing else.

    ``dump_network`` pickles the whole network into every campaign
    scenario copy, so a cache hung on a ``RouteMap``, ``Session`` or
    ``Router`` rides along sessions x prefixes times.  Single-router ASes
    keep the (older, per-AS) Dijkstra cost cache out of the comparison;
    the ground-truth route-maps mix generic and per-prefix clauses.  The
    model's config is the one under which the engine keeps a rank per
    Loc-RIB entry: that cache, too, must die with the call.
    """
    one_router = (1, 1)
    network = synthesize_internet(dataclasses.replace(
        ROUTER_LEVEL, routers_level1=one_router, routers_level2=one_router,
        routers_other=one_router, routers_stub=one_router,
    )).network
    before = len(dump_network(network))
    for config in (DecisionConfig(), MODEL_DECISION_CONFIG):
        simulate(network, config=config)
        assert len(dump_network(network)) > before
        network.clear_routing()
        assert len(dump_network(network)) == before
    gc.collect()
    assert not any(isinstance(candidate, _PrefixRun) for candidate in gc.get_objects())


if __name__ == "__main__":
    for name, build in WORLDS.items():
        built, built_stats = build()
        print(f'    "{name}": ("{digest(built, built_stats)}", {live_routes(built)}),')
