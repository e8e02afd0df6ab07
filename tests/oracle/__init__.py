"""The from-scratch references that fast paths are judged against.

ROADMAP item 5's oracle.  Every test module reads these from here and no
test module reads another's helpers; nothing here imports a test module.

*Reading state.*  ``canonical_dump`` is every RIB entry and counter of a
network as lines (the golden digests hash it), ``rib_contents`` what the
routers hold for one prefix by value, and ``structure`` what "the network
came back" means wherever one is lent and undone.

*Small worlds.*  The hand-built networks several suites share:
``line_model`` (the refined line AS1 - AS2 - AS3 - AS4),
``disagree_gadget`` (two stable states), ``gadget_network`` (a
hub-and-spoke triangle a dispute wheel is injected into), and
``engine_counts``, which reads what a call simulated off the engine's own
counters.  ``seeded_world`` is the cached 23-AS refined world the
differential suites run on.

*Decisions.*  The engine's decisions are judged one at a time by the
step-by-step reference ``run_decision``: ``DecisionOracle`` is a tracer
that checks every ``decision`` event against it while the run goes on,
and ``judge`` runs the same work untraced and under that tracer and holds
the two to the same RIBs and counters.

*The one cut-and-resimulate recipe.*  ``depeer_from_scratch``: a fresh
unpickle, the adjacency removed, every prefix simulated from scratch by
the sequential engine, the path map diffed against a baseline.
``depeered_world`` caches its answer per (seed, adjacency) of a seeded
world, so ``TestCrossingOrigins``, ``TestWhatIfResumes``,
``TestResumeOracle`` and the rest read one simulation instead of each
re-simulating the same world.  ``whatif_changes`` reads ``repro
whatif``'s answer off such a diff, and ``two_pass_changes`` is the same
recipe on an unseeded network, its baseline simulated from scratch too.
"""

import functools
import pickle
import zlib
from dataclasses import dataclass

from repro.bgp import Network, simulate
from repro.bgp.attributes import RouteSource
from repro.bgp.decision import DecisionConfig, DecisionOutcome, run_decision, step_name
from repro.bgp.engine import EngineStats
from repro.bgp.policy import Clause, Match
from repro.bgp.route import Route
from repro.bgp.router import Router
from repro.campaign import context_from_artifact, plan_campaign
from repro.campaign.diffing import ScenarioDiff, diff_path_maps
from repro.campaign.scenarios import CampaignContext, crossing_origins, remove_adjacency
from repro.core.build import build_initial_model
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel, simulate_pooled
from repro.core.predict import collect_path_map
from repro.core.refine import RefinementConfig, Refiner
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, prefix_for_asn
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import EVENT_DECISION, RecordingTracer, tracing
from repro.parallel.protocol import dump_network
from repro.serve import compile_artifact
from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.graph import ASGraph


# ----------------------------------------------------------------------
# Reading state
# ----------------------------------------------------------------------


def _route_fields(route: Route) -> tuple:
    return (
        str(route.prefix), route.as_path, route.next_hop, route.local_pref,
        route.med, int(route.origin), sorted(route.communities),
        int(route.source), route.peer_router, route.peer_asn,
        route.originator_id, route.cluster_list,
    )


def canonical_dump(network: Network, stats: EngineStats) -> list[str]:
    """Every RIB entry and counter as one line, in a fixed order."""
    lines = []
    for router_id in sorted(network.routers):
        router = network.routers[router_id]
        for name, rib in (("in", router.adj_rib_in), ("out", router.adj_rib_out)):
            for prefix in sorted(rib):
                for session_id in sorted(rib[prefix]):
                    fields = _route_fields(rib[prefix][session_id])
                    lines.append(f"{name} {router_id} {session_id} {fields}")
        for prefix in sorted(router.loc_rib):
            lines.append(f"loc {router_id} {_route_fields(router.loc_rib[prefix])}")
    lines.append(
        f"stats {stats.prefixes} {stats.messages} {stats.decisions} "
        f"{stats.clauses_evaluated} {stats.clauses_matched}"
    )
    for prefix in sorted(stats.per_prefix_messages):
        lines.append(f"messages {prefix} {stats.per_prefix_messages[prefix]}")
    return lines


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


# ----------------------------------------------------------------------
# Small worlds
# ----------------------------------------------------------------------


def line_model() -> ASRoutingModel:
    """The refined line AS1 - AS2 - AS3 - AS4, observed from both ends."""
    prefix = Prefix("10.0.0.0/24")
    ds = PathDataset()
    paths = [(1, 2, 3, 4), (4, 3, 2, 1), (2, 3, 4), (3, 2, 1), (1, 2), (4, 3)]
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], prefix, ASPath(path)))
    model = build_initial_model(ds)
    Refiner(model, ds).run()
    return model


def disagree_gadget() -> Network:
    """Five ASes, AS1 originating, with two stable states (local-pref).

    AS2 and AS3 each prefer the other's route (a DISAGREE pair), AS2
    also prefers AS4's.  With every session up the engine settles on
    "AS2 via AS4, AS3 via AS2"; AS1-AS2 carries no selected route, and
    that state stays stable without it — yet from scratch the engine
    reaches the other stable state, "AS3 via AS5, AS2 via AS3".
    """
    network = Network("disagree")
    routers = {asn: network.add_router(asn) for asn in range(1, 6)}
    for a, b in ((1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)):
        network.connect(routers[a], routers[b])
    for sender, receiver in ((2, 3), (3, 2), (4, 2), (5, 4)):
        network.get_session(
            routers[sender], routers[receiver]
        ).ensure_import_map().append(Clause(Match(), set_local_pref=200))
    network.originate(routers[1], prefix_for_asn(1))
    return network


def gadget_network(wheel_asns=(1, 2, 3), extra_spokes=0, origin_asn=4):
    """Hub-and-spoke network with the wheel ASes forming a triangle."""
    net = Network("gadget")
    spokes = {asn: net.add_router(asn) for asn in wheel_asns}
    hub = net.add_router(origin_asn)
    prefix = Prefix("10.0.0.0/24")
    net.originate(hub, prefix)
    for router in spokes.values():
        net.connect(router, hub)
    ring = list(wheel_asns)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        net.connect(spokes[a], spokes[b])
    for index in range(extra_spokes):
        net.connect(net.add_router(1000 + index), hub)
    return net, prefix


def engine_counts(call, *args, **kwargs):
    """``call``'s result, prefixes simulated from scratch, prefixes resumed."""
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        result = call(*args, **kwargs)
        counters = registry.snapshot()["counters"]
        return (
            result,
            counters.get("engine.prefixes", 0),
            counters.get("engine.resumes", 0),
        )
    finally:
        set_registry(MetricsRegistry())


# ----------------------------------------------------------------------
# Seeded refined worlds
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Decisions
# ----------------------------------------------------------------------


def reference_decision(
    network: Network, router: Router, prefix: Prefix, config: DecisionConfig,
    candidates=None,
) -> DecisionOutcome:
    """``run_decision`` at ``router`` over ``candidates``, by default every
    candidate it holds for ``prefix``."""
    cost = network.ases[router.asn].igp.cost

    def igp_cost(route):
        if route.source is not RouteSource.IBGP:
            return 0.0
        return cost(router.router_id, route.next_hop)

    if candidates is None:
        candidates = router.candidates(prefix)
    return run_decision(candidates, config, igp_cost)


def reference_best(network: Network, router: Router, prefix: Prefix, config):
    """The winner of :func:`reference_decision`: what ``router`` must hold."""
    return reference_decision(network, router, prefix, config).best


def assert_locally_stable(network: Network, config: DecisionConfig) -> None:
    """Every router holds the reference winner of every prefix."""
    for prefix in network.prefixes():
        for router in network.routers.values():
            assert router.best(prefix) is reference_best(
                network, router, prefix, config
            ), (router, prefix)


class DecisionOracle(RecordingTracer):
    """A tracer that judges each ``decision`` event as the engine emits it.

    The deciding router's live Loc-RIB entry must be the winner of
    ``run_decision`` over its live candidates, and the event must report
    that winner's AS path (null when no route is left).  ``candidates``
    names what was ranked: every live candidate for a scan, whose ``step``
    is ``run_decision``'s decisive step; the standing best alone (1) for
    a withdrawal, which compared nothing; or the best and the arrival (2),
    whose ``step`` is ``run_decision`` over that pair for some live
    candidate.
    """

    def __init__(self, network: Network, config: DecisionConfig) -> None:
        super().__init__()
        self.network = network
        self.config = config
        self.routers = {router.name: router for router in network.routers.values()}
        assert len(self.routers) == len(network.routers), "router names collide"
        self.prefixes: dict[str, Prefix] = {}

    def _record(self, record: dict) -> None:
        super()._record(record)
        if record["kind"] == "event" and record["type"] == EVENT_DECISION:
            self._check(record)

    def _check(self, event: dict) -> None:
        router = self.routers[event["router"]]
        prefix = self.prefixes.get(event["prefix"])
        if prefix is None:
            prefix = self.prefixes[event["prefix"]] = Prefix(event["prefix"])
        outcome = reference_decision(self.network, router, prefix, self.config)
        best = outcome.best
        assert router.best(prefix) is best, event
        assert event["best"] == (None if best is None else list(best.as_path)), event
        ranked, live = event["candidates"], outcome.candidates
        if ranked == len(live):
            steps = iter([outcome.decisive_step])
        elif ranked == 1:
            steps = iter([None])
        else:
            assert ranked == 2, event
            # The arrival is one of the others; the latest slots come last.
            steps = (
                reference_decision(
                    self.network, router, prefix, self.config, [best, route]
                ).decisive_step
                for route in reversed(live)
                if route is not best
            )
        assert any(
            event["step"] == (None if step is None else step_name(step))
            for step in steps
        ), event


def judge(make_network, config: DecisionConfig, act):
    """``act(network) -> EngineStats`` on two fresh ``make_network()``
    networks: one untraced, one under :class:`DecisionOracle`.

    Tracing may not change a thing: the same counters, field for field
    (``candidates_ranked`` included), and the same RIBs; and the oracle
    judged one event per decision, whose ``candidates`` add up to
    ``candidates_ranked``.  Returns the untraced network, its statistics
    and the oracle's decision events.
    """
    plain = make_network()
    plain_stats = act(plain)
    judged = make_network()
    with tracing(DecisionOracle(judged, config)) as oracle:
        judged_stats = act(judged)
    assert judged_stats == plain_stats
    assert canonical_dump(judged, judged_stats) == canonical_dump(plain, plain_stats)
    events = oracle.events(EVENT_DECISION)
    assert len(events) == plain_stats.decisions
    assert sum(event["candidates"] for event in events) == plain_stats.candidates_ranked
    return plain, plain_stats, events


# ----------------------------------------------------------------------
# The one cut-and-resimulate recipe
# ----------------------------------------------------------------------


def depeer_from_scratch(
    blob: bytes, context, asn_a: int, asn_b: int, config=MODEL_DECISION_CONFIG
) -> tuple[Network, EngineStats, int, ScenarioDiff, dict]:
    """The plain recipe: fresh copy, adjacency removed, every prefix
    re-simulated; the network as the engine left it, its statistics, the
    sessions removed, the diff against ``context``'s baseline and the path
    set after the cut of every pair that diff names."""
    network = pickle.loads(blob)
    removed = len(remove_adjacency(network, asn_a, asn_b))
    stats = simulate_pooled(network, config=config)
    assert not stats.quarantined
    current = collect_path_map(network, context.origins, context.observers)
    diff = diff_path_maps(context.baseline_paths, current, context.excluded)
    after = {
        pair: frozenset(current.get(pair, ()))
        for pair in diff.changed + diff.lost + diff.gained
    }
    return network, stats, removed, diff, after


def from_scratch(blob: bytes, context, asn_a: int, asn_b: int, config=MODEL_DECISION_CONFIG):
    """The oracle's answer to a depeer scenario: sessions removed, diff."""
    return depeer_from_scratch(blob, context, asn_a, asn_b, config)[2:4]


def whatif_changes(baseline_paths: dict, after: dict) -> list:
    """``(observer, origin, before, after)`` for every pair ``after`` names,
    in (observer, origin) order — ``repro whatif``'s answer.

    ``after`` is :func:`depeer_from_scratch`'s: the pairs its diff names,
    keyed ``(origin, observer)``.
    """
    return [
        (observer, origin, frozenset(baseline_paths.get((origin, observer), ())),
         after[(origin, observer)])
        for observer, origin in sorted((observer, origin) for origin, observer in after)
    ]


def two_pass_changes(network: Network, origins: dict, asn_a: int, asn_b: int) -> list:
    """The plain what-if on an unseeded network: simulate all from scratch
    for the baseline, then :func:`depeer_from_scratch` against it.

    ``origins`` is the model's origin -> prefix table; every AS observes.
    """
    observers = tuple(sorted(network.ases))
    simulate(network, config=MODEL_DECISION_CONFIG)
    context = CampaignContext(
        collect_path_map(network, origins, observers), observers, origins
    )
    network.clear_routing()
    after = depeer_from_scratch(dump_network(network), context, asn_a, asn_b)[4]
    return whatif_changes(context.baseline_paths, after)


@dataclass(frozen=True)
class Depeered:
    """One adjacency of a seeded world removed, simulated from scratch."""

    removed: int
    diff: ScenarioDiff
    after: dict
    """(origin, observer) -> the path set after the cut, for every pair
    ``diff`` names (changed, lost, gained)."""
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
    network, stats, removed, diff, after = depeer_from_scratch(
        world.blob, world.context, asn_a, asn_b
    )
    crossing = crossing_origins(world.context, asn_a, asn_b)
    return Depeered(
        removed,
        diff,
        after,
        dict(stats.per_prefix_messages),
        {
            prefix: zlib.compress(repr(rib_contents(network, prefix)).encode(), 1)
            for prefix in (world.model.prefix_by_origin[o] for o in crossing)
        },
    )
