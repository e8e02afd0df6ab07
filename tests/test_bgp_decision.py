"""Unit tests for the BGP decision process (repro.bgp.decision)."""

import pytest

from repro.bgp.attributes import Origin, RouteSource
from repro.bgp.decision import (
    DecisionConfig,
    Step,
    deciding_step,
    rank,
    run_decision,
    select_best,
)
from repro.bgp.route import Route
from repro.net.prefix import Prefix

PREFIX = Prefix("10.0.0.0/24")


def make_route(**kwargs):
    defaults = dict(
        prefix=PREFIX,
        as_path=(1, 2),
        next_hop=1,
        peer_router=100,
        peer_asn=1,
    )
    defaults.update(kwargs)
    return Route(**defaults)


class TestIndividualSteps:
    def test_empty_candidates(self):
        outcome = run_decision([])
        assert outcome.best is None

    def test_single_candidate_wins(self):
        route = make_route()
        assert run_decision([route]).best is route

    def test_local_pref_wins_over_shorter_path(self):
        low = make_route(as_path=(1,), local_pref=80)
        high = make_route(as_path=(1, 2, 3), local_pref=120)
        outcome = run_decision([low, high])
        assert outcome.best is high
        assert outcome.elimination_step(low) is Step.LOCAL_PREF

    def test_shorter_path_wins(self):
        short = make_route(as_path=(1, 2))
        long = make_route(as_path=(1, 2, 3))
        outcome = run_decision([long, short])
        assert outcome.best is short
        assert outcome.elimination_step(long) is Step.PATH_LENGTH

    def test_origin_ranks_igp_first(self):
        igp = make_route(origin=Origin.IGP)
        incomplete = make_route(origin=Origin.INCOMPLETE)
        outcome = run_decision([incomplete, igp])
        assert outcome.best is igp
        assert outcome.elimination_step(incomplete) is Step.ORIGIN

    def test_local_route_beats_ebgp(self):
        local = Route.originate(PREFIX, 5)
        ebgp = make_route(as_path=())  # same length as local
        outcome = run_decision([ebgp, local])
        assert outcome.best is local

    def test_ebgp_beats_ibgp(self):
        ebgp = make_route(source=RouteSource.EBGP)
        ibgp = make_route(source=RouteSource.IBGP, peer_router=99)
        outcome = run_decision([ibgp, ebgp])
        assert outcome.best is ebgp
        assert outcome.elimination_step(ibgp) is Step.EBGP_OVER_IBGP

    def test_igp_cost_breaks_ibgp_tie(self):
        near = make_route(source=RouteSource.IBGP, next_hop=1, peer_router=201)
        far = make_route(source=RouteSource.IBGP, next_hop=2, peer_router=200)
        costs = {1: 1.0, 2: 9.0}
        outcome = run_decision(
            [far, near], igp_cost=lambda route: costs[route.next_hop]
        )
        assert outcome.best is near
        assert outcome.elimination_step(far) is Step.IGP_COST

    def test_igp_cost_step_disabled(self):
        near = make_route(source=RouteSource.IBGP, next_hop=1, peer_router=201)
        far = make_route(source=RouteSource.IBGP, next_hop=2, peer_router=200)
        costs = {1: 1.0, 2: 9.0}
        outcome = run_decision(
            [far, near],
            DecisionConfig(use_igp_cost=False),
            igp_cost=lambda route: costs[route.next_hop],
        )
        # falls through to router-id: far has the lower peer_router
        assert outcome.best is far

    def test_router_id_final_tie_break(self):
        low = make_route(peer_router=100)
        high = make_route(peer_router=200)
        outcome = run_decision([high, low])
        assert outcome.best is low
        assert outcome.elimination_step(high) is Step.ROUTER_ID


class TestMedSemantics:
    def test_med_compared_within_neighbor_as(self):
        cheap = make_route(med=5, peer_asn=7, peer_router=300)
        dear = make_route(med=9, peer_asn=7, peer_router=200)
        outcome = run_decision([dear, cheap])
        assert outcome.best is cheap
        assert outcome.elimination_step(dear) is Step.MED

    def test_med_not_compared_across_neighbors_by_default(self):
        route_a = make_route(med=5, peer_asn=7, peer_router=300)
        route_b = make_route(med=9, peer_asn=8, peer_router=200)
        outcome = run_decision([route_a, route_b])
        # both survive MED; router-id picks the lower peer_router
        assert outcome.best is route_b
        assert outcome.elimination_step(route_a) is Step.ROUTER_ID

    def test_med_always_compare(self):
        route_a = make_route(med=5, peer_asn=7, peer_router=300)
        route_b = make_route(med=9, peer_asn=8, peer_router=200)
        outcome = run_decision(
            [route_a, route_b], DecisionConfig(med_always_compare=True)
        )
        assert outcome.best is route_a
        assert outcome.elimination_step(route_b) is Step.MED

    def test_med_groups_keep_per_group_minimum(self):
        a1 = make_route(med=5, peer_asn=7, peer_router=101)
        a2 = make_route(med=9, peer_asn=7, peer_router=102)
        b1 = make_route(med=7, peer_asn=8, peer_router=103)
        outcome = run_decision([a1, a2, b1])
        assert outcome.elimination_step(a2) is Step.MED
        assert outcome.elimination_step(b1) in (None, Step.ROUTER_ID)


class TestOutcomeIntrospection:
    def test_survivors_until(self):
        short = make_route(as_path=(1,), peer_router=100)
        long = make_route(as_path=(1, 2), peer_router=200)
        tied = make_route(as_path=(1,), peer_router=300)
        outcome = run_decision([short, long, tied])
        alive_at_med = outcome.survivors_until(Step.MED)
        assert long not in alive_at_med
        assert short in alive_at_med and tied in alive_at_med

    def test_best_not_in_eliminated(self):
        routes = [make_route(peer_router=n) for n in (300, 100, 200)]
        outcome = run_decision(routes)
        assert outcome.elimination_step(outcome.best) is None
        assert len(outcome.eliminated) == 2

    def test_every_loser_has_a_step(self):
        routes = [
            make_route(as_path=(1,), peer_router=100),
            make_route(as_path=(1, 2), peer_router=50, local_pref=90),
            make_route(as_path=(1,), peer_router=200, med=3),
        ]
        outcome = run_decision(routes, DecisionConfig(med_always_compare=True))
        for route in routes:
            if route is not outcome.best:
                assert outcome.elimination_step(route) is not None


def _next_hop_cost(route):
    return {1: 1.0, 2: 9.0}[route.next_hop]


ALWAYS_COMPARE = DecisionConfig(med_always_compare=True)

CONFORMANCE = [
    # (step, winner, loser, config, igp_cost).  Every attribute a LATER
    # step looks at favours the loser, so a winner proves the step fired
    # at its place in the order, not merely that it exists.
    (
        Step.LOCAL_PREF,
        make_route(local_pref=120, as_path=(1, 2, 3), peer_router=200),
        make_route(local_pref=80, as_path=(1,), peer_router=100),
        DecisionConfig(), None,
    ),
    (
        Step.PATH_LENGTH,
        make_route(as_path=(1, 2), origin=Origin.INCOMPLETE, peer_router=200),
        make_route(as_path=(1, 2, 3), origin=Origin.IGP, peer_router=100),
        DecisionConfig(), None,
    ),
    (
        Step.ORIGIN,
        make_route(origin=Origin.IGP, med=9, peer_router=200),
        make_route(origin=Origin.EGP, med=1, peer_router=100),
        DecisionConfig(), None,
    ),
    (
        # per-neighbour MED: both routes from neighbour AS 7
        Step.MED,
        make_route(med=5, peer_asn=7, source=RouteSource.IBGP, peer_router=200),
        make_route(med=9, peer_asn=7, source=RouteSource.EBGP, peer_router=100),
        DecisionConfig(), None,
    ),
    (
        # different neighbour ASes: MED is skipped, the router id decides
        Step.ROUTER_ID,
        make_route(med=9, peer_asn=8, peer_router=100),
        make_route(med=5, peer_asn=7, peer_router=200),
        DecisionConfig(), None,
    ),
    (
        # ... unless MED is always compared
        Step.MED,
        make_route(med=5, peer_asn=7, peer_router=200),
        make_route(med=9, peer_asn=8, peer_router=100),
        ALWAYS_COMPARE, None,
    ),
    (
        Step.EBGP_OVER_IBGP,
        make_route(source=RouteSource.EBGP, next_hop=2, peer_router=200),
        make_route(source=RouteSource.IBGP, next_hop=1, peer_router=100),
        DecisionConfig(), _next_hop_cost,
    ),
    (
        Step.IGP_COST,
        make_route(source=RouteSource.IBGP, next_hop=1, cluster_list=(5, 6),
                   peer_router=200),
        make_route(source=RouteSource.IBGP, next_hop=2, peer_router=100),
        DecisionConfig(), _next_hop_cost,
    ),
    (
        Step.CLUSTER_LIST,
        make_route(source=RouteSource.IBGP, cluster_list=(5,), peer_router=200),
        make_route(source=RouteSource.IBGP, cluster_list=(5, 6), peer_router=100),
        DecisionConfig(), None,
    ),
    (
        Step.ROUTER_ID,
        make_route(peer_router=100, next_hop=2),
        make_route(peer_router=200, next_hop=1),
        DecisionConfig(), None,
    ),
    (
        # a reflected route is ranked by its ORIGINATOR_ID, not by the
        # reflector it was learned from
        Step.ROUTER_ID,
        make_route(source=RouteSource.IBGP, originator_id=50, cluster_list=(9,),
                   peer_router=300),
        make_route(source=RouteSource.IBGP, originator_id=60, cluster_list=(9,),
                   peer_router=100),
        DecisionConfig(), None,
    ),
]


class TestConformanceTable:
    """One hand-built case per step (ROADMAP item 2's table)."""

    @pytest.mark.parametrize(
        "step, winner, loser, config, igp_cost",
        CONFORMANCE,
        ids=[f"{row[0].name.lower()}-{index}" for index, row in enumerate(CONFORMANCE)],
    )
    def test_step_decides_at_its_place_in_the_order(
        self, step, winner, loser, config, igp_cost
    ):
        extra = () if igp_cost is None else (igp_cost,)
        for candidates in ([winner, loser], [loser, winner]):
            outcome = run_decision(candidates, config, *extra)
            assert outcome.best is winner
            assert outcome.decisive_step is step
            assert outcome.elimination_step(loser) is step
            assert select_best(candidates, config, *extra) is winner
        if not config.med_always_compare and winner.peer_asn != loser.peer_asn:
            return  # MEDs from two neighbour ASes: rank is not the process
        winner_key, loser_key = (
            rank(route, 0.0 if igp_cost is None else igp_cost(route))
            for route in (winner, loser)
        )
        assert deciding_step(winner_key, loser_key) is step
        assert deciding_step(winner_key, winner_key) is None

    def test_every_step_has_a_case(self):
        assert {row[0] for row in CONFORMANCE} == set(Step)
