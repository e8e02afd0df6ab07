"""Unit tests for route-maps (repro.bgp.policy)."""

from repro.bgp.policy import Action, Clause, Match, RouteMap
from repro.bgp.route import Route
from repro.net.prefix import Prefix

P1 = Prefix("10.0.0.0/24")
P2 = Prefix("10.0.1.0/24")


def make_route(prefix=P1, **kwargs):
    defaults = dict(as_path=(1, 2, 3), peer_router=100, peer_asn=1)
    defaults.update(kwargs)
    return Route(prefix, **defaults)


class TestMatch:
    def test_empty_match_matches_everything(self):
        assert Match().matches(make_route())

    def test_prefix_match(self):
        assert Match(prefix=P1).matches(make_route(P1))
        assert not Match(prefix=P1).matches(make_route(P2))

    def test_path_len_lt(self):
        assert Match(path_len_lt=4).matches(make_route(as_path=(1, 2, 3)))
        assert not Match(path_len_lt=3).matches(make_route(as_path=(1, 2, 3)))

    def test_path_len_gt(self):
        assert Match(path_len_gt=2).matches(make_route(as_path=(1, 2, 3)))
        assert not Match(path_len_gt=3).matches(make_route(as_path=(1, 2, 3)))

    def test_from_asn_and_router(self):
        route = make_route(peer_asn=7, peer_router=0x70001)
        assert Match(from_asn=7).matches(route)
        assert not Match(from_asn=8).matches(route)
        assert Match(from_router=0x70001).matches(route)
        assert not Match(from_router=0x70002).matches(route)

    def test_path_contains(self):
        assert Match(path_contains=2).matches(make_route(as_path=(1, 2, 3)))
        assert not Match(path_contains=9).matches(make_route(as_path=(1, 2, 3)))

    def test_community(self):
        route = make_route(communities=frozenset((42,)))
        assert Match(community=42).matches(route)
        assert not Match(community=43).matches(route)

    def test_conjunction(self):
        match = Match(prefix=P1, path_len_lt=4, from_asn=1)
        assert match.matches(make_route())
        assert not match.matches(make_route(peer_asn=2))

    def test_describe_mentions_conditions(self):
        text = Match(prefix=P1, path_len_lt=3).describe()
        assert str(P1) in text and "path-length < 3" in text
        assert Match().describe() == "any"


class TestClause:
    def test_deny_returns_none(self):
        assert Clause(Match(), Action.DENY).apply(make_route()) is None

    def test_permit_without_changes_returns_same_object(self):
        route = make_route()
        assert Clause(Match(), Action.PERMIT).apply(route) is route

    def test_set_local_pref_and_med(self):
        out = Clause(Match(), set_local_pref=120, set_med=7).apply(make_route())
        assert out.local_pref == 120 and out.med == 7

    def test_prepend_repeats_head(self):
        out = Clause(Match(), prepend=2).apply(make_route(as_path=(5, 6)))
        assert out.as_path == (5, 5, 5, 6)

    def test_prepend_on_empty_path_is_noop(self):
        route = make_route(as_path=())
        assert Clause(Match(), prepend=3).apply(route) is route

    def test_add_communities(self):
        out = Clause(Match(), add_communities=frozenset((9,))).apply(
            make_route(communities=frozenset((1,)))
        )
        assert out.communities == frozenset((1, 9))

    def test_strip_communities(self):
        out = Clause(
            Match(), strip_communities=True, add_communities=frozenset((9,))
        ).apply(make_route(communities=frozenset((1, 2))))
        assert out.communities == frozenset((9,))

    def test_original_route_is_not_mutated(self):
        route = make_route()
        Clause(Match(), set_med=99).apply(route)
        assert route.med == 0


class TestRouteMap:
    def test_empty_map_permits(self):
        route = make_route()
        assert RouteMap().apply(route) is route

    def test_default_deny(self):
        assert RouteMap(default_action=Action.DENY).apply(make_route()) is None

    def test_first_match_wins(self):
        route_map = RouteMap(
            [
                Clause(Match(prefix=P1), Action.DENY),
                Clause(Match(prefix=P1), set_med=5),
            ]
        )
        assert route_map.apply(make_route(P1)) is None

    def test_prefix_index_routes_to_right_clause(self):
        route_map = RouteMap(
            [
                Clause(Match(prefix=P1), set_med=1),
                Clause(Match(prefix=P2), set_med=2),
            ]
        )
        assert route_map.apply(make_route(P1)).med == 1
        assert route_map.apply(make_route(P2)).med == 2

    def test_generic_clause_order_interleaves_with_indexed(self):
        route_map = RouteMap(
            [
                Clause(Match(from_asn=1), Action.DENY),  # generic, first
                Clause(Match(prefix=P1), set_med=5),
            ]
        )
        assert route_map.apply(make_route(P1, peer_asn=1)) is None
        assert route_map.apply(make_route(P1, peer_asn=2)).med == 5

    def test_non_matching_falls_through_to_default(self):
        route_map = RouteMap([Clause(Match(prefix=P2), Action.DENY)])
        route = make_route(P1)
        assert route_map.apply(route) is route

    def test_remove_by_identity(self):
        clause = Clause(Match(prefix=P1), Action.DENY)
        route_map = RouteMap([clause])
        assert route_map.remove(clause)
        assert not route_map.remove(clause)
        assert route_map.apply(make_route(P1)) is not None

    def test_remove_if_by_tag(self):
        route_map = RouteMap(
            [
                Clause(Match(prefix=P1), Action.DENY, tag="a"),
                Clause(Match(prefix=P2), Action.DENY, tag="b"),
            ]
        )
        assert route_map.remove_if(lambda c: c.tag == "a") == 1
        assert len(route_map) == 1
        assert route_map.apply(make_route(P1)) is not None
        assert route_map.apply(make_route(P2)) is None

    def test_copy_is_independent(self):
        original = RouteMap([Clause(Match(prefix=P1), Action.DENY)])
        clone = original.copy()
        clone.remove_if(lambda c: True)
        assert len(original) == 1 and len(clone) == 0

    def test_clauses_for_prefix(self):
        indexed = Clause(Match(prefix=P1), set_med=1)
        generic = Clause(Match(from_asn=3), set_med=2)
        other = Clause(Match(prefix=P2), set_med=3)
        route_map = RouteMap([indexed, generic, other])
        relevant = list(route_map.clauses_for_prefix(P1))
        assert indexed in relevant and generic in relevant and other not in relevant

    def test_bool_reflects_effectiveness(self):
        assert not RouteMap()
        assert RouteMap(default_action=Action.DENY)
        assert RouteMap([Clause(Match(), set_med=1)])


class TestPathRegex:
    def test_anchored_head_and_origin(self):
        route = make_route(as_path=(3356, 1239, 701))
        assert Match(path_regex=r"^3356 .* 701$").matches(route)
        assert not Match(path_regex=r"^701").matches(route)

    def test_substring_match(self):
        route = make_route(as_path=(10, 20, 30))
        assert Match(path_regex=r"\b20\b").matches(route)
        assert not Match(path_regex=r"\b2\b").matches(route)

    def test_combines_with_other_conditions(self):
        route = make_route(as_path=(10, 20, 30), peer_asn=10)
        assert Match(path_regex=r"30$", from_asn=10).matches(route)
        assert not Match(path_regex=r"30$", from_asn=11).matches(route)

    def test_describe_mentions_regex(self):
        assert "path matches" in Match(path_regex="^1").describe()

    def test_cbgp_round_trip(self):
        import io

        from repro.bgp.network import Network
        from repro.cbgp.export import export_network
        from repro.cbgp.parse import parse_script

        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        net.connect(a, b)
        session = net.get_session(b, a)
        session.ensure_import_map().append(
            Clause(Match(path_regex="^2 .* 9$"), Action.DENY)
        )
        buffer = io.StringIO()
        export_network(net, buffer)
        clone = parse_script(io.StringIO(buffer.getvalue()))
        r_a = clone.as_routers(1)[0]
        r_b = clone.as_routers(2)[0]
        clause = next(clone.get_session(r_b, r_a).import_map.clauses())
        assert clause.match.path_regex == "^2 .* 9$"


class TestSubsumes:
    def test_empty_match_subsumes_everything(self):
        assert Match().subsumes(Match(prefix=P1, path_len_lt=3, from_asn=5))
        assert not Match(prefix=P1).subsumes(Match())

    def test_prefix_must_agree(self):
        assert Match(prefix=P1).subsumes(Match(prefix=P1, path_len_lt=3))
        assert not Match(prefix=P1).subsumes(Match(prefix=P2))
        assert not Match(prefix=P1).subsumes(Match(path_len_lt=3))

    def test_wider_length_bound_subsumes_narrower(self):
        assert Match(path_len_lt=5).subsumes(Match(path_len_lt=3))
        assert not Match(path_len_lt=3).subsumes(Match(path_len_lt=5))
        assert Match(path_len_gt=2).subsumes(Match(path_len_gt=4))
        assert not Match(path_len_gt=4).subsumes(Match(path_len_gt=2))

    def test_unsatisfiable_other_is_always_subsumed(self):
        impossible = Match(path_len_lt=2, path_len_gt=3)
        assert Match(prefix=P1, from_asn=9).subsumes(impossible)

    def test_from_router_implies_its_asn(self):
        # Router ids encode the ASN in the high 16 bits (Section 4.5).
        router_of_as5 = (5 << 16) | 1
        assert Match(from_asn=5).subsumes(Match(from_router=router_of_as5))
        assert not Match(from_asn=6).subsumes(Match(from_router=router_of_as5))

    def test_regexes_only_subsume_when_equal(self):
        assert Match(path_regex="^2 ").subsumes(Match(path_regex="^2 "))
        # ".*" trivially matches more, but the check is conservative.
        assert not Match(path_regex=".*").subsumes(Match(path_regex="^2 "))

    def test_subsumption_implies_match_containment(self):
        # Spot-check the semantic contract on concrete routes.
        wide = Match(prefix=P1, path_len_lt=5)
        narrow = Match(prefix=P1, path_len_lt=3, from_asn=1)
        assert wide.subsumes(narrow)
        for path in ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
            route = make_route(as_path=path)
            if narrow.matches(route):
                assert wide.matches(route)


class TestRegexCacheBound:
    def test_cache_never_exceeds_limit(self):
        from repro.bgp.policy import _REGEX_CACHE, _REGEX_CACHE_LIMIT

        route = make_route()
        for index in range(_REGEX_CACHE_LIMIT + 50):
            Match(path_regex=f"^{index} never$").matches(route)
        assert len(_REGEX_CACHE) <= _REGEX_CACHE_LIMIT

    def test_recently_used_pattern_survives_eviction(self):
        from repro.bgp.policy import _REGEX_CACHE, _REGEX_CACHE_LIMIT

        route = make_route()
        hot = "^1 2 3$"
        Match(path_regex=hot).matches(route)
        for index in range(_REGEX_CACHE_LIMIT - 1):
            Match(path_regex=f"^{index} cold$").matches(route)
            Match(path_regex=hot).matches(route)  # keep it recently used
        assert hot in _REGEX_CACHE
