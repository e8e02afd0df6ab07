"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import Origin, RouteSource
from repro.bgp.decision import DecisionConfig, Step, rank, run_decision
from repro.bgp.igp import IGPTopology
from repro.bgp.policy import Action, Clause, Match, RouteMap
from repro.bgp.route import Route
from repro.net.aspath import ASPath
from repro.net.ip import ip_from_string, ip_to_string
from repro.net.prefix import Prefix

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
prefix_lengths = st.integers(min_value=0, max_value=32)
asns = st.integers(min_value=1, max_value=65535)
paths = st.lists(asns, min_size=0, max_size=8)


class TestIpProperties:
    @given(ips)
    def test_ip_round_trip(self, value):
        assert ip_from_string(ip_to_string(value)) == value

    @given(ips, prefix_lengths)
    def test_prefix_canonical_and_round_trip(self, network, length):
        prefix = Prefix(network, length)
        assert Prefix(str(prefix)) == prefix
        # canonical: no host bits below the mask
        assert prefix.network & ~prefix.netmask == 0

    @given(ips, st.integers(min_value=1, max_value=32))
    def test_supernet_contains_subnet(self, network, length):
        prefix = Prefix(network, length)
        assert prefix.supernet().contains(prefix)

    @given(ips, st.integers(min_value=0, max_value=31))
    def test_subnets_partition_parent(self, network, length):
        parent = Prefix(network, length)
        low, high = parent.subnets()
        assert low != high
        assert parent.contains(low) and parent.contains(high)
        assert not low.contains(high) and not high.contains(low)


class TestASPathProperties:
    @given(paths)
    def test_parse_str_round_trip(self, asn_list):
        path = ASPath(asn_list)
        assert ASPath.parse(str(path)) == path

    @given(paths)
    def test_without_prepending_idempotent(self, asn_list):
        path = ASPath(asn_list)
        once = path.without_prepending()
        assert once.without_prepending() == once

    @given(paths)
    def test_without_prepending_no_consecutive_dups(self, asn_list):
        collapsed = ASPath(asn_list).without_prepending().asns
        assert all(a != b for a, b in zip(collapsed, collapsed[1:]))

    @given(paths)
    def test_edges_connect_consecutive_distinct(self, asn_list):
        path = ASPath(asn_list)
        for a, b in path.edges():
            assert a != b


def route_strategy():
    return st.builds(
        Route,
        prefix=st.just(Prefix("10.0.0.0/24")),
        as_path=st.lists(asns, min_size=0, max_size=5).map(tuple),
        next_hop=st.integers(min_value=1, max_value=1 << 31),
        local_pref=st.integers(min_value=0, max_value=200),
        med=st.integers(min_value=0, max_value=100),
        peer_router=st.integers(min_value=1, max_value=1 << 31),
        peer_asn=asns,
    )


def mixed_route_strategy():
    """Small value ranges, so that every step both ties and decides."""
    return st.builds(
        Route,
        prefix=st.just(Prefix("10.0.0.0/24")),
        as_path=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
        next_hop=st.integers(min_value=1, max_value=6),
        local_pref=st.sampled_from((100, 100, 100, 120)),
        med=st.integers(min_value=0, max_value=2),
        origin=st.sampled_from((Origin.IGP, Origin.IGP, Origin.INCOMPLETE)),
        source=st.sampled_from((RouteSource.EBGP, RouteSource.IBGP)),
        peer_router=st.integers(min_value=1, max_value=1 << 8),
        peer_asn=st.integers(min_value=1, max_value=3),
        originator_id=st.sampled_from((0, 0, 5, 9)),
        cluster_list=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    )


def distinct_peers(routes):
    """Enforce the engine invariant: one candidate per session, so
    peer_router values are unique within a candidate set."""
    return [
        route.replace(peer_router=(route.peer_router << 4) | index)
        for index, route in enumerate(routes)
    ]


class TestDecisionProperties:
    @given(st.lists(route_strategy(), min_size=1, max_size=8))
    def test_exactly_one_winner(self, routes):
        routes = distinct_peers(routes)
        outcome = run_decision(routes, DecisionConfig(med_always_compare=True))
        assert outcome.best in routes
        assert len(outcome.eliminated) == len(routes) - 1
        assert outcome.elimination_step(outcome.best) is None

    @given(st.lists(route_strategy(), min_size=1, max_size=8))
    def test_winner_is_pareto_optimal_on_first_steps(self, routes):
        outcome = run_decision(routes, DecisionConfig(med_always_compare=True))
        best = outcome.best
        top_lp = max(route.local_pref for route in routes)
        assert best.local_pref == top_lp
        contenders = [r for r in routes if r.local_pref == top_lp]
        assert len(best.as_path) == min(len(r.as_path) for r in contenders)

    @given(st.lists(route_strategy(), min_size=1, max_size=8))
    def test_order_independence(self, routes):
        routes = distinct_peers(routes)
        forward = run_decision(routes, DecisionConfig(med_always_compare=True))
        backward = run_decision(
            list(reversed(routes)), DecisionConfig(med_always_compare=True)
        )
        key = (
            forward.best.local_pref,
            forward.best.as_path,
            forward.best.med,
            forward.best.peer_router,
        )
        back_key = (
            backward.best.local_pref,
            backward.best.as_path,
            backward.best.med,
            backward.best.peer_router,
        )
        assert key == back_key

    @given(st.lists(route_strategy(), min_size=2, max_size=8))
    def test_eliminations_monotone_in_steps(self, routes):
        outcome = run_decision(routes, DecisionConfig(med_always_compare=True))
        # survivors_until is monotone decreasing in the step order
        previous = len(routes)
        for step in Step:
            alive = len(outcome.survivors_until(step))
            assert alive <= previous
            previous = alive


class TestRouteMapProperties:
    clause_strategy = st.builds(
        Clause,
        match=st.builds(
            Match,
            path_len_lt=st.one_of(st.none(), st.integers(1, 6)),
            from_asn=st.one_of(st.none(), asns),
        ),
        action=st.sampled_from([Action.PERMIT, Action.DENY]),
        set_local_pref=st.one_of(st.none(), st.integers(0, 200)),
        set_med=st.one_of(st.none(), st.integers(0, 100)),
    )

    @given(st.lists(clause_strategy, max_size=6), route_strategy())
    def test_apply_matches_naive_first_match(self, clauses, route):
        route_map = RouteMap(clauses)
        expected = None
        for clause in clauses:
            if clause.match.matches(route):
                expected = clause.apply(route)
                break
        else:
            expected = route
        actual = route_map.apply(route)
        if expected is None:
            assert actual is None
        else:
            assert actual is not None
            assert actual.local_pref == expected.local_pref
            assert actual.med == expected.med

    @given(st.lists(clause_strategy, max_size=6), route_strategy())
    def test_apply_never_mutates_input(self, clauses, route):
        snapshot = (route.local_pref, route.med, route.as_path)
        RouteMap(clauses).apply(route)
        assert (route.local_pref, route.med, route.as_path) == snapshot


class TestIgpProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 8), st.integers(1, 8), st.integers(1, 10)
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_triangle_inequality_and_symmetry(self, links):
        igp = IGPTopology()
        for a, b, cost in links:
            if a != b:
                igp.add_link(a, b, cost)
        nodes = list(igp.routers())
        for a in nodes[:4]:
            for b in nodes[:4]:
                assert igp.cost(a, b) == igp.cost(b, a)  # integer costs: exact
                for c in nodes[:4]:
                    if all(
                        not math.isinf(igp.cost(x, y))
                        for x, y in ((a, c), (c, b))
                    ):
                        assert igp.cost(a, b) <= igp.cost(a, c) + igp.cost(c, b) + 1e-9


class TestSelectBestEquivalence:
    """select_best (engine fast path) must agree with run_decision."""

    from repro.bgp.decision import select_best  # noqa: PLC0415

    @given(st.lists(route_strategy(), min_size=1, max_size=8))
    def test_always_compare(self, routes):
        from repro.bgp.decision import select_best

        routes = distinct_peers(routes)
        config = DecisionConfig(med_always_compare=True)
        assert select_best(routes, config) is run_decision(routes, config).best

    @given(st.lists(route_strategy(), min_size=1, max_size=8))
    def test_per_neighbor_med(self, routes):
        from repro.bgp.decision import select_best

        routes = distinct_peers(routes)
        config = DecisionConfig(med_always_compare=False)
        assert select_best(routes, config) is run_decision(routes, config).best

    @given(st.lists(route_strategy(), min_size=1, max_size=6))
    def test_with_igp_costs(self, routes):
        from repro.bgp.decision import select_best
        from repro.bgp.attributes import RouteSource

        routes = [
            route.replace(source=RouteSource.IBGP) for route in distinct_peers(routes)
        ]
        config = DecisionConfig(use_igp_cost=True)

        def cost(route):
            return float(route.next_hop % 7)

        assert (
            select_best(routes, config, cost)
            is run_decision(routes, config, cost).best
        )

    @given(
        st.lists(mixed_route_strategy(), min_size=1, max_size=8),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_all_steps_together(self, routes, always_compare, use_igp_cost):
        """Sources, cluster lists, originator ids, grouped MEDs and a real
        IGP cost at once: the merged steps 5-8 see every combination, and
        the cost function is asked about exactly the same routes."""
        from repro.bgp.decision import select_best

        routes = distinct_peers(routes)
        config = DecisionConfig(
            med_always_compare=always_compare, use_igp_cost=use_igp_cost
        )
        asked: dict[str, set[int]] = {"fast": set(), "reference": set()}

        def cost_for(who):
            def cost(route):
                asked[who].add(id(route))
                return float(route.next_hop % 3)

            return cost

        assert (
            select_best(routes, config, cost_for("fast"))
            is run_decision(routes, config, cost_for("reference")).best
        )
        assert asked["fast"] == asked["reference"]

    @given(st.lists(mixed_route_strategy(), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_rank_is_the_order_run_decision_eliminates_in(self, routes):
        """Under the model config the decision is one strict total order:
        sorting by ``rank`` lists the routes exactly as ``run_decision``
        would crown them, each time the previous winner is taken away —
        which is what lets the engine compare an arrival with the standing
        best alone."""
        routes = distinct_peers(routes)
        config = DecisionConfig(med_always_compare=True, use_igp_cost=False)
        assert config.total_order
        # Strict by construction: one candidate per session, so no two
        # share peer_router and no two ranks are equal.
        assert len({route.peer_router for route in routes}) == len(routes)
        assert len({rank(route) for route in routes}) == len(routes)
        remaining = list(routes)
        for expected in sorted(routes, key=rank):
            assert run_decision(remaining, config).best is expected
            remaining.remove(expected)

    def test_only_the_model_config_is_a_total_order(self):
        assert not DecisionConfig().total_order
        assert not DecisionConfig(med_always_compare=True).total_order
        assert not DecisionConfig(use_igp_cost=False).total_order
