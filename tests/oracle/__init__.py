"""The from-scratch references that fast paths are judged against.

ROADMAP item 5's oracle, first step: the seeded refined worlds and the
plain recipes — a fresh unpickle, the edit applied, every prefix simulated
from scratch by the sequential engine — live here once, and the suites that
compare a fast path with it (``TestCrossingOrigins``, ``TestWorkingCopy``,
``TestResumeOracle``, ...) read the same cached answers instead of each
re-simulating the same (seed, adjacency) world.  ``structure`` is what
"the network came back" means wherever one is lent and undone.
"""

import functools
import pickle
import zlib
from dataclasses import dataclass

from repro.bgp import Network, simulate
from repro.bgp.attributes import RouteSource
from repro.bgp.engine import EngineStats
from repro.campaign import context_from_artifact, plan_campaign
from repro.campaign.diffing import ScenarioDiff, diff_path_maps
from repro.campaign.scenarios import crossing_origins, remove_adjacency
from repro.core.build import build_initial_model
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.predict import collect_path_map
from repro.core.refine import RefinementConfig, Refiner
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.net.prefix import Prefix
from repro.parallel.protocol import dump_network
from repro.resilience.retry import ResilienceStats, simulate_network_bounded
from repro.serve import compile_artifact
from repro.topology.graph import ASGraph
from tests.test_bgp_engine_golden import _route_fields, canonical_dump


@dataclass(frozen=True)
class World:
    """A seeded refined model, its baseline and its pickled network."""

    model: ASRoutingModel
    context: object
    blob: bytes


@functools.lru_cache(maxsize=None)
def seeded_world(seed: int) -> World:
    """Synthesize, observe and refine a 23-AS world (read-only, cached)."""
    internet = synthesize_internet(
        SyntheticConfig(seed=seed, n_level1=3, n_level2=4, n_other=6, n_stub=10)
    )
    simulate(internet.network)
    points = select_observation_points(internet, 8, seed=seed)
    dataset = collect_dataset(internet.network, points).cleaned()
    model = build_initial_model(dataset, ASGraph.from_dataset(dataset))
    assert Refiner(model, dataset, RefinementConfig(max_iterations=12)).run().converged
    artifact, _ = compile_artifact(model)
    model.network.clear_routing()
    context = plan_campaign(model, [], context_from_artifact(artifact))
    assert context.unique_state and not context.converged_ahead
    return World(model, context, dump_network(model.network))


def structure(network: Network) -> dict:
    """Everything a simulation's message order can depend on, plus the RIBs.

    A snapshot: one taken before a network is lent compares with one taken
    after it came back.
    """
    routers = network.routers.values()
    return {
        "sessions": list(network.sessions),
        "endpoints": [
            (key, session.session_id)
            for key, session in network._session_by_endpoints.items()
        ],
        "next_session_id": network._next_session_id,
        "sessions_out": [[s.session_id for s in r.sessions_out] for r in routers],
        "sessions_in": [[s.session_id for s in r.sessions_in] for r in routers],
        "originations": [(p, list(o)) for p, o in network.originations.items()],
        "local_routes": [list(r.local_routes) for r in routers],
        "ribs": canonical_dump(network, EngineStats())[:-1],  # by value
        "touched": {prefix: set(ids) for prefix, ids in network._touched.items()},
        "open": (network._undo, network._held),
    }


def rib_contents(network: Network, prefix: Prefix) -> list:
    """What every router holds for ``prefix``, by value: dict order, object
    identity and an empty table against none are not part of it.

    An Adj-RIB-Out entry is compared as the announcement it is.  Its
    learned-from fields (source, peer router, peer AS: the last three
    dropped here) describe the best route that first produced the
    announcement — the engine does not rewrite an entry for an
    attribute-equal successor — so they depend on message order in a
    from-scratch run too, and the receiver overwrites them on import.
    """
    contents = []
    for router_id in sorted(network.routers):
        router = network.routers[router_id]
        best = router.loc_rib.get(prefix)
        contents.append((
            router_id,
            sorted(
                (session_id, _route_fields(route))
                for session_id, route in router.adj_rib_in.get(prefix, {}).items()
            ),
            None if best is None else _route_fields(best),
            sorted(
                (session_id, _route_fields(route.replace(
                    source=RouteSource.LOCAL, peer_router=0, peer_asn=0
                )))
                for session_id, route in router.adj_rib_out.get(prefix, {}).items()
            ),
        ))
    return contents


def depeer_from_scratch(
    blob: bytes, context, asn_a: int, asn_b: int, config=MODEL_DECISION_CONFIG
) -> tuple[Network, ResilienceStats, int, ScenarioDiff]:
    """The plain recipe: fresh copy, adjacency removed, every prefix
    re-simulated; the network as the engine left it, its statistics, the
    sessions removed and the diff against ``context``'s baseline."""
    network = pickle.loads(blob)
    model = ASRoutingModel.from_network(network)
    removed = len(remove_adjacency(model, asn_a, asn_b))
    stats = simulate_network_bounded(network, config=config)
    assert not stats.quarantined
    current = collect_path_map(model, context.observers)
    diff = diff_path_maps(context.baseline_paths, current, context.excluded)
    return network, stats, removed, diff


def from_scratch(blob: bytes, context, asn_a: int, asn_b: int, config=MODEL_DECISION_CONFIG):
    """The oracle's answer to a depeer scenario: sessions removed, diff."""
    return depeer_from_scratch(blob, context, asn_a, asn_b, config)[2:]


def two_pass_changes(network: Network, as_edges) -> list:
    """The plain what-if: simulate all, cut, simulate all again, compare.

    ``(observer, origin, before, after)`` for every pair whose path set
    changed, in (observer, origin) order — ``repro whatif``'s answer.
    """
    model = ASRoutingModel.from_network(network)
    observers, origins = sorted(network.ases), sorted(model.prefix_by_origin)
    model.simulate_all()
    before = collect_path_map(model, observers)
    for asn_a, asn_b in as_edges:
        remove_adjacency(model, asn_a, asn_b)
    model.simulate_all()
    after = collect_path_map(model, observers)
    return [
        (observer, origin, frozenset(before.get(pair, ())), frozenset(after.get(pair, ())))
        for observer in observers
        for origin in origins
        for pair in [(origin, observer)]
        if before.get(pair) != after.get(pair)
    ]


@dataclass(frozen=True)
class Depeered:
    """One adjacency of a seeded world removed, simulated from scratch."""

    removed: int
    diff: ScenarioDiff
    messages: dict
    """Prefix -> the messages its from-scratch simulation took."""
    ribs: dict
    """Crossing prefix -> ``repr(rib_contents(...))``, compressed: a few
    hundred of these networks do not fit in memory side by side."""

    def rib_contents(self, prefix: Prefix) -> str:
        return zlib.decompress(self.ribs[prefix]).decode()


@functools.lru_cache(maxsize=None)
def depeered_world(seed: int, asn_a: int, asn_b: int) -> Depeered:
    """``depeer_from_scratch`` on ``seeded_world(seed)`` (read-only, cached)."""
    world = seeded_world(seed)
    network, stats, removed, diff = depeer_from_scratch(
        world.blob, world.context, asn_a, asn_b
    )
    crossing = crossing_origins(world.model, world.context, asn_a, asn_b)
    return Depeered(
        removed,
        diff,
        {outcome.prefix: outcome.messages for outcome in stats.outcomes},
        {
            prefix: zlib.compress(repr(rib_contents(network, prefix)).encode(), 1)
            for prefix in (world.model.prefix_by_origin[o] for o in crossing)
        },
    )
