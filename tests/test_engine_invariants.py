"""Randomised invariant checks on the engine over synthetic ground truths.

These complement the hypothesis tests: full BGP simulations on seeded
random topologies, asserting the global invariants the substrate must
guarantee (convergence, RIB consistency, loop-freedom, valley-freedom
under pure Gao-Rexford policies).

The engine decides a message against the standing best alone when the
decision at that router is a strict total order: always under the model's
config, and under per-neighbour MED while the router holds no route with
a non-default MED (DESIGN.md, "Incremental decision").
``TestFullScanOracle`` judges that against the full scan, ``run_decision``
over every candidate: once the run is over (``assert_locally_stable``),
and at every decision through the ``DecisionOracle`` tracer of
``tests/oracle``.  A tracer only observes, so ``judge`` also holds the
traced run to the untraced one, counter for counter.

``resume_prefix`` re-converges a prefix from the RIBs the routers hold
(DESIGN.md, "Converge once, resume").  ``TestResumeOracle`` judges it
against the plain recipe — the same edits on a fresh copy, then
``simulate_prefix`` — wherever ``stable_state_is_unique`` holds, and
under the decision oracle one decision at a time.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp import Clause, Match, Network, simulate, simulate_prefix
from repro.bgp.attributes import RouteSource
from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import EngineStats, resume_prefix, stable_state_is_unique
from repro.bgp.policy import Action
from repro.bgp.router import Router
from repro.core.model import MODEL_DECISION_CONFIG
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import ConvergenceError
from repro.net.prefix import Prefix
from repro.relationships.valleyfree import is_valley_free
from repro.campaign import generate_depeer
from repro.campaign.scenarios import crossing_origins, remove_adjacency
from tests.oracle import (
    assert_locally_stable,
    depeered_world,
    disagree_gadget,
    judge,
    reference_best,
    rib_contents,
    seeded_world,
)

BASE = SyntheticConfig(seed=0, n_level1=3, n_level2=5, n_other=8, n_stub=14)


@pytest.fixture(scope="module", params=[1, 2, 3])
def simulated_internet(request):
    config = dataclasses.replace(BASE, seed=request.param)
    internet = synthesize_internet(config)
    simulate(internet.network)
    return internet


def refined_network(seed: int) -> Network:
    """A fresh, unsimulated copy of a seeded refined quasi-router model:
    ten sessions per quasi-router, six candidates per decision."""
    return pickle.loads(seeded_world(seed).blob)


def bounded_prefix(config: DecisionConfig):
    """One ``simulate_prefix`` of PREFIX under a 3,000-message budget, as
    ``judge``'s act.  A diverging prefix is compared too: the partial RIBs
    and the counters at the moment the budget ran out."""

    def act(network: Network) -> EngineStats:
        try:
            return simulate_prefix(network, PREFIX, config, 3000)
        except ConvergenceError as error:
            return error.stats

    return act


PREFIX = Prefix("10.0.0.0/24")

policy_matches = st.builds(
    Match,
    prefix=st.sampled_from((None, PREFIX)),
    path_len_lt=st.sampled_from((None, None, 2, 3)),
    path_len_gt=st.sampled_from((None, None, None, 2)),
    from_asn=st.sampled_from((None, None, 1, 2, 3)),
)
policy_actions = st.sampled_from((Action.PERMIT, Action.PERMIT, Action.DENY))
policy_meds = st.sampled_from((None, 0, 1, 2))
policy_clauses = st.builds(
    Clause,
    match=policy_matches,
    action=policy_actions,
    set_local_pref=st.sampled_from((None, None, 80, 120)),
    set_med=policy_meds,
)
filter_and_med_clauses = st.builds(
    Clause, match=policy_matches, action=policy_actions, set_med=policy_meds
)
"""What a refined model holds: no local-pref, so one stable state."""


@st.composite
def policy_network_blobs(draw, clauses=policy_clauses) -> bytes:
    """A pickled quasi-router style network (1-2 routers per AS, eBGP only)
    with one prefix and random local-pref / MED / filter clauses."""
    network = Network("drawn")
    routers = [
        network.add_router(asn)
        for asn in range(1, draw(st.integers(3, 6)) + 1)
        for _ in range(draw(st.integers(1, 2)))
    ]
    return _peered_and_configured(draw, network, routers, clauses)


def _peered_and_configured(draw, network, routers, clauses) -> bytes:
    """Draw eBGP peerings between ``routers``, one or two originators of
    PREFIX and up to two clauses per route-map; the pickled network."""
    pairs = [
        (a, b)
        for index, a in enumerate(routers)
        for b in routers[index + 1:]
        if a.asn != b.asn
    ]
    wanted = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    for (a, b), keep in zip(pairs, wanted):
        if keep:
            network.connect(a, b)
    indices = st.sampled_from(range(len(routers)))
    for index in draw(st.lists(indices, min_size=1, max_size=2, unique=True)):
        network.originate(routers[index], PREFIX)
    for session in network.sessions.values():
        for ensure_map in (session.ensure_import_map, session.ensure_export_map):
            for clause in draw(st.lists(clauses, max_size=2)):
                ensure_map().append(clause)
    return pickle.dumps(network)


@st.composite
def router_network_blobs(draw, clauses=policy_clauses) -> bytes:
    """A pickled router-level network with one prefix: 2-3 routers per AS
    joined by an iBGP full mesh or a route-reflection cluster over random
    IGP link costs, eBGP between ASes, and random local-pref / MED /
    filter clauses on every session."""
    network = Network("drawn-router-level")
    routers = []
    for asn in range(1, draw(st.integers(2, 4)) + 1):
        members = [network.add_router(asn) for _ in range(draw(st.integers(2, 3)))]
        if len(members) == 3 and draw(st.booleans()):
            network.ibgp_route_reflection(members[:1], members[1:])
        else:
            network.ibgp_full_mesh(asn)
        igp = network.ases[asn].igp
        for index, a in enumerate(members):
            for b in members[index + 1:]:
                cost = draw(st.sampled_from((None, 1, 2, 5)))
                if cost is not None:
                    igp.add_link(a.router_id, b.router_id, cost)
        routers.extend(members)
    return _peered_and_configured(draw, network, routers, clauses)


class TestConvergenceInvariants:
    def test_converges(self, simulated_internet):
        # reaching here means simulate() did not raise SimulationError
        assert simulated_internet.network.prefixes()

    def test_resimulation_reaches_same_fixed_point(self, simulated_internet):
        net = simulated_internet.network
        prefix = net.prefixes()[0]
        before = {
            rid: (r.best(prefix).as_path if r.best(prefix) else None)
            for rid, r in net.routers.items()
        }
        from repro.bgp import simulate_prefix

        simulate_prefix(net, prefix)
        after = {
            rid: (r.best(prefix).as_path if r.best(prefix) else None)
            for rid, r in net.routers.items()
        }
        assert before == after


class TestRibConsistency:
    def test_best_is_among_candidates(self, simulated_internet):
        net = simulated_internet.network
        for prefix in net.prefixes():
            for router in net.routers.values():
                best = router.best(prefix)
                if best is not None:
                    assert best in router.candidates(prefix)

    def test_no_as_loops_in_any_path(self, simulated_internet):
        net = simulated_internet.network
        for prefix in net.prefixes():
            for router in net.routers.values():
                for route in router.rib_in_routes(prefix):
                    collapsed = [route.as_path[0]] if route.as_path else []
                    for asn in route.as_path[1:]:
                        if collapsed[-1] != asn:
                            collapsed.append(asn)
                    assert len(set(collapsed)) == len(collapsed)
                    if route.source is RouteSource.EBGP:
                        assert router.asn not in route.as_path

    def test_adj_rib_out_consistent_with_best(self, simulated_internet):
        net = simulated_internet.network
        for prefix in net.prefixes():
            for router in net.routers.values():
                best = router.best(prefix)
                rib_out = router.adj_rib_out.get(prefix, {})
                if best is None:
                    assert not rib_out
                for session_id, route in rib_out.items():
                    session = net.sessions[session_id]
                    if session.is_ebgp:
                        assert route.as_path[0] == router.asn

    def test_origin_as_is_path_tail(self, simulated_internet):
        internet = simulated_internet
        net = internet.network
        for prefix in net.prefixes():
            origin = internet.origin_of(prefix)
            for router in net.routers.values():
                best = router.best(prefix)
                if best is None or not best.as_path:
                    continue
                assert best.as_path[-1] == origin


class TestValleyFreedom:
    def test_pure_gao_rexford_ground_truth_is_valley_free(self):
        """Without weird policies every chosen path must be valley-free."""
        config = dataclasses.replace(
            BASE,
            seed=6,
            weird_session_fraction=0.0,
            selective_announce_fraction=0.0,
            prepend_fraction=0.0,
            sibling_pair_count=0,
        )
        internet = synthesize_internet(config)
        simulate(internet.network)
        net = internet.network
        for prefix in net.prefixes():
            origin = internet.origin_of(prefix)
            for router in net.routers.values():
                best = router.best(prefix)
                if best is None or len(best.as_path) < 2:
                    continue
                full_path = (router.asn,) + best.as_path
                assert is_valley_free(full_path, internet.relationships), (
                    f"valley path {full_path} for {prefix} (origin {origin})"
                )

    def test_weird_policies_can_break_valley_freedom(self):
        """With weird local-prefs some non-valley-free path usually appears;
        at minimum the simulation still converges."""
        config = dataclasses.replace(BASE, seed=8, weird_session_fraction=0.3)
        internet = synthesize_internet(config)
        stats = simulate(internet.network)
        assert stats.prefixes > 0


class TestFullScanOracle:
    """The incremental decision against ``run_decision`` over everything."""

    def test_ground_truth_best_is_the_full_scan_winner(self, simulated_internet):
        assert_locally_stable(simulated_internet.network, DecisionConfig())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refined_model_best_is_the_full_scan_winner(self, seed):
        network = refined_network(seed)
        stats = simulate(network, config=MODEL_DECISION_CONFIG)
        assert_locally_stable(network, MODEL_DECISION_CONFIG)
        # ... and the scan was indeed skipped: an arrival ranks two routes,
        # where a scan of these Adj-RIB-Ins ranks six.
        assert stats.candidates_ranked < 3 * stats.decisions

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refined_model_equals_the_traced_engine(self, seed):
        judge(
            lambda: refined_network(seed),
            MODEL_DECISION_CONFIG,
            lambda network: simulate(network, config=MODEL_DECISION_CONFIG),
        )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(policy_network_blobs())
    def test_drawn_policy_network_equals_the_traced_engine(self, blob):
        plain, stats, _ = judge(
            lambda: pickle.loads(blob),
            MODEL_DECISION_CONFIG,
            bounded_prefix(MODEL_DECISION_CONFIG),
        )
        if not stats.budget_exhaustions:
            assert_locally_stable(plain, MODEL_DECISION_CONFIG)

    def test_ground_truth_equals_the_traced_engine(self, simulated_internet):
        """Per-neighbour MED with IGP cost: the scan is skipped wherever the
        router holds only default MEDs, and nothing else changes."""
        blob = pickle.dumps(simulated_internet.network)
        judge(lambda: pickle.loads(blob), DecisionConfig(), simulate)

    def test_a_replaced_route_below_the_default_med_forces_the_scan(self):
        """``med_gadget`` with A's MED below the default: A eliminates B and
        C wins; once A is withdrawn every held MED is the default and B
        beats C.  Only the withdrawn route's own MED says to scan."""
        network, routers = med_gadget()
        r = routers["r"]
        for sender, med in (("a", -1), ("b", 0), ("c", 0)):
            network.get_session(routers[sender], r).import_map.prepend(
                Clause(Match(path_len_lt=3), set_med=med)
            )
        simulate(network)
        assert r.best(PREFIX).peer_router == routers["b"].router_id
        assert_locally_stable(network, DecisionConfig())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(router_network_blobs(), st.sampled_from((
        DecisionConfig(),
        DecisionConfig(med_always_compare=True),
        DecisionConfig(use_igp_cost=False),
    )))
    def test_drawn_router_level_network_equals_the_traced_engine(self, blob, config):
        """iBGP, route reflection and IGP costs under every config that keeps
        the hot-potato cost or per-neighbour MED in the decision."""
        plain, stats, _ = judge(lambda: pickle.loads(blob), config, bounded_prefix(config))
        if not stats.budget_exhaustions:
            assert_locally_stable(plain, config)


def med_gadget() -> tuple[Network, dict[str, Router]]:
    """Withdrawing a route that is *not* the best changes the best.

    ``r`` hears the prefix three times at equal local-pref, path length
    and origin: A and B from AS2 (A's MED 1, B's MED 5), C from AS3 (MED
    0), with router ids B < C < A.  Per-neighbour MED lets A eliminate B
    and leaves C alone, so the router-id step picks C; once A is withdrawn
    B survives the MED step and beats C.  C's MED is the lowest so that C
    is also the minimum of ``rank`` while it wins: an engine that wrongly
    compared against the standing best alone would keep it.  ``a``
    withdraws because it moves to the local-pref 200 detour via AS5 - AS6,
    which ``r`` filters.
    """
    network = Network("per-neighbour-med")
    r = network.add_router(1)
    b = network.add_router(2)
    c = network.add_router(3)
    origin = network.add_router(4)
    detour = network.add_router(5)
    far = network.add_router(6)
    # add_router numbers an AS's routers upwards from (asn << 16) | 1, which
    # cannot put AS3's id between two of AS2's.
    a = Router(router_id=9 << 16, asn=2, index=2, name="AS2.a")
    network.ases[2].routers.append(a)
    network.ases[2].igp.add_router(a.router_id)
    network.routers[a.router_id] = a
    for left, right in (
        (origin, a), (origin, b), (origin, c), (origin, far),
        (a, r), (b, r), (c, r), (far, detour), (detour, a),
    ):
        network.connect(left, right)
    network.originate(origin, PREFIX)
    for sender, med in ((a, 1), (b, 5), (c, 0)):
        network.get_session(sender, r).ensure_import_map().append(
            Clause(Match(path_len_lt=3), set_med=med)
        )
    network.get_session(a, r).ensure_import_map().append(
        Clause(Match(), Action.DENY)
    )
    network.get_session(far, detour).ensure_import_map().append(
        Clause(Match(), set_local_pref=150)
    )
    network.get_session(detour, a).ensure_import_map().append(
        Clause(Match(), set_local_pref=200)
    )
    return network, {"r": r, "a": a, "b": b, "c": c}


class TestPerNeighbourMedIsNeverIncremental:
    def test_the_gadget_does_what_its_docstring_says(self):
        network, _, events = judge(lambda: med_gadget()[0], DecisionConfig(), simulate)
        at_r = [
            (event["candidates"], tuple(event["best"]))
            for event in events
            if event["router"] == network.as_routers(1)[0].name
        ]
        # A alone, A over B, C over A; then A is withdrawn: B over C.
        assert at_r == [(1, (2, 4)), (2, (2, 4)), (3, (3, 4)), (2, (2, 4))]

    def test_engine_follows_the_full_scan_under_the_default_config(self):
        network, routers = med_gadget()
        stats = simulate(network)
        r = routers["r"]
        best = r.best(PREFIX)
        assert best is reference_best(network, r, PREFIX, DecisionConfig())
        assert best.peer_router == routers["b"].router_id
        assert best.med == 5
        assert_locally_stable(network, DecisionConfig())
        assert stats.candidates_ranked > stats.decisions

    def test_always_compare_med_keeps_c_when_a_is_withdrawn(self):
        """Under the model config the same messages are a total order: C
        has the lowest MED of all and losing A changes nothing."""
        network, routers = med_gadget()
        simulate(network, config=MODEL_DECISION_CONFIG)
        assert routers["r"].best(PREFIX).peer_router == routers["c"].router_id
        assert_locally_stable(network, MODEL_DECISION_CONFIG)


def flat(peerings) -> list:
    return [session for peering in peerings for session in peering]


class TestResumeOracle:
    """``resume_prefix`` against the same edits followed by ``simulate_prefix``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_adjacency_and_crossing_origin_of_a_refined_world(self, seed):
        world = seeded_world(seed)
        scenarios = [
            (scenario, sorted(
                world.model.prefix_by_origin[origin]
                for origin in crossing_origins(
                    world.context, scenario.asn_a, scenario.asn_b
                )
            ))
            for scenario in generate_depeer(world.model)
        ]
        resumed_messages = []

        def converge_and_depeer(converged: Network) -> EngineStats:
            stats = simulate(converged, config=MODEL_DECISION_CONFIG)
            assert stable_state_is_unique(converged, MODEL_DECISION_CONFIG)
            resumes = EngineStats()
            for scenario, crossing in scenarios:
                plain = depeered_world(seed, scenario.asn_a, scenario.asn_b)
                converged.open_perturbation()
                dropped = flat(remove_adjacency(
                    converged, scenario.asn_a, scenario.asn_b
                ))
                for prefix in crossing:
                    resumed = resume_prefix(
                        converged, prefix, MODEL_DECISION_CONFIG, dropped=dropped
                    )
                    assert repr(rib_contents(converged, prefix)) == plain.rib_contents(prefix), (
                        scenario.key, prefix,
                    )
                    assert (resumed.resumes, resumed.prefixes) == (1, 0)
                    resumes.merge(resumed)
                converged.close_perturbation()
            assert_locally_stable(converged, MODEL_DECISION_CONFIG)  # ... and the undo
            resumed_messages.append(resumes.messages)
            stats.merge(resumes)
            return stats

        judge(lambda: refined_network(seed), MODEL_DECISION_CONFIG, converge_and_depeer)
        scratch_messages = sum(
            depeered_world(seed, scenario.asn_a, scenario.asn_b).messages[prefix]
            for scenario, crossing in scenarios
            for prefix in crossing
        )
        # A perturbation costs what is downstream of it, not the convergence.
        assert resumed_messages[0] < scratch_messages / 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_hijack_of_every_origin_of_a_refined_world(self, seed):
        model = seeded_world(seed).model
        origins = sorted(model.prefix_by_origin)
        hijacks = [
            (model.prefix_by_origin[victim], attacker)
            for victim, attacker in zip(origins, origins[1:] + origins[:1])
        ]
        expected = {}
        for prefix, attacker in hijacks:
            plain = refined_network(seed)
            for router in plain.as_routers(attacker):
                plain.originate(router, prefix)
            simulate_prefix(plain, prefix, MODEL_DECISION_CONFIG)
            expected[prefix] = rib_contents(plain, prefix)

        def converge_and_hijack(converged: Network) -> EngineStats:
            stats = simulate(converged, config=MODEL_DECISION_CONFIG)
            for prefix, attacker in hijacks:
                converged.open_perturbation()
                attackers = converged.as_routers(attacker)
                for router in attackers:
                    converged.originate(router, prefix)
                stats.merge(resume_prefix(
                    converged, prefix, MODEL_DECISION_CONFIG, reoriginated=attackers
                ))
                assert rib_contents(converged, prefix) == expected[prefix], (
                    prefix, attacker,
                )
                converged.close_perturbation()
            assert_locally_stable(converged, MODEL_DECISION_CONFIG)
            return stats

        judge(lambda: refined_network(seed), MODEL_DECISION_CONFIG, converge_and_hijack)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(policy_network_blobs(filter_and_med_clauses), st.data())
    def test_drawn_filter_and_med_networks_with_random_removals(self, blob, data):
        """Sessions dropped and originations toggled, possibly both at once
        and down to no originator at all (a pure withdrawal)."""
        scratch = pickle.loads(blob)
        assert stable_state_is_unique(scratch, MODEL_DECISION_CONFIG)
        routers = sorted(scratch.routers)
        peerings = sorted({
            tuple(sorted((s.src.router_id, s.dst.router_id)))
            for s in scratch.sessions.values()
        })
        cut = data.draw(st.lists(st.sampled_from(peerings), unique=True)) if peerings else []
        toggled = data.draw(st.lists(st.sampled_from(routers), max_size=2, unique=True))

        def perturb(network: Network) -> tuple[list, list]:
            dropped, reoriginated = [], []
            for a, b in cut:
                dropped += network.disconnect(network.routers[a], network.routers[b])
            for router_id in toggled:
                router = network.routers[router_id]
                if router_id in network.originators(PREFIX):
                    network.withdraw(router, PREFIX)
                else:
                    network.originate(router, PREFIX)
                reoriginated.append(router)
            return dropped, reoriginated

        def converge_and_resume(network: Network) -> EngineStats:
            stats = simulate_prefix(network, PREFIX, MODEL_DECISION_CONFIG)
            stats.merge(resume_prefix(
                network, PREFIX, MODEL_DECISION_CONFIG, None, *perturb(network)
            ))
            return stats

        resumed, _, _ = judge(
            lambda: pickle.loads(blob), MODEL_DECISION_CONFIG, converge_and_resume
        )
        perturb(scratch)
        simulate_prefix(scratch, PREFIX, MODEL_DECISION_CONFIG)
        assert rib_contents(resumed, PREFIX) == rib_contents(scratch, PREFIX)
        assert_locally_stable(resumed, MODEL_DECISION_CONFIG)

    def test_without_uniqueness_a_resume_may_settle_elsewhere(self):
        """Why the predicate gates every caller: DISAGREE's other state."""
        resumed, plain = disagree_gadget(), disagree_gadget()
        assert not stable_state_is_unique(resumed, MODEL_DECISION_CONFIG)
        prefix, = resumed.prefixes()
        simulate_prefix(resumed, prefix, MODEL_DECISION_CONFIG)
        as1, as2 = (resumed.as_routers(asn)[0] for asn in (1, 2))
        resume_prefix(
            resumed, prefix, MODEL_DECISION_CONFIG,
            dropped=resumed.disconnect(as1, as2),
        )
        plain.disconnect(*(plain.as_routers(asn)[0] for asn in (1, 2)))
        simulate_prefix(plain, prefix, MODEL_DECISION_CONFIG)
        for network in (resumed, plain):
            assert_locally_stable(network, MODEL_DECISION_CONFIG)
        assert as2.best(prefix).as_path == (4, 5, 1)
        assert plain.as_routers(2)[0].best(prefix).as_path == (3, 5, 1)
