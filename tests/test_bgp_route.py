"""Unit tests for the Route value object."""

import pytest

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, DEFAULT_MED, Origin, RouteSource
from repro.bgp.route import Route
from repro.net.prefix import Prefix

P = Prefix("10.0.0.0/24")


class TestConstruction:
    def test_defaults(self):
        route = Route(P)
        assert route.local_pref == DEFAULT_LOCAL_PREF
        assert route.med == DEFAULT_MED
        assert route.origin is Origin.IGP
        assert route.source is RouteSource.EBGP
        assert route.communities == frozenset()

    def test_originate(self):
        route = Route.originate(P, 0x50001)
        assert route.source is RouteSource.LOCAL
        assert route.as_path == ()
        assert route.next_hop == 0x50001
        assert route.peer_router == 0


class TestReplace:
    def test_replace_changes_only_named_fields(self):
        route = Route(P, as_path=(1, 2), med=5, peer_asn=9)
        clone = route.replace(med=7)
        assert clone.med == 7
        assert clone.as_path == (1, 2)
        assert clone.peer_asn == 9
        assert route.med == 5  # original untouched

    def test_replace_returns_new_object(self):
        route = Route(P)
        assert route.replace(med=1) is not route

    def test_replace_rejects_an_unknown_field(self):
        """A typo must not become a silently ignored (or new) attribute."""
        with pytest.raises(TypeError, match="bogus"):
            Route(P).replace(bogus=1)

    def test_replace_copies_every_field(self):
        route = Route(
            P, (1, 2), 7, 90, 5, Origin.EGP, frozenset((3,)), RouteSource.IBGP,
            11, 12, 13, (14,),
        )
        clone = route.replace()
        assert all(
            getattr(clone, name) == getattr(route, name) for name in Route.__slots__
        )


class TestAttributesEqual:
    def test_equal_announcements(self):
        a = Route(P, as_path=(1, 2), med=3)
        b = Route(P, as_path=(1, 2), med=3, peer_router=99)
        # peer bookkeeping is not part of the announcement
        assert a.attributes_equal(b)

    def test_none_never_equal(self):
        assert not Route(P).attributes_equal(None)

    def test_path_difference_detected(self):
        assert not Route(P, as_path=(1,)).attributes_equal(Route(P, as_path=(2,)))

    def test_med_and_lp_differences_detected(self):
        assert not Route(P, med=1).attributes_equal(Route(P, med=2))
        assert not Route(P, local_pref=90).attributes_equal(Route(P, local_pref=91))

    def test_community_difference_detected(self):
        tagged = Route(P, communities=frozenset((5,)))
        assert not Route(P).attributes_equal(tagged)


class TestFormatting:
    def test_path_str(self):
        assert Route(P, as_path=(10, 20)).path_str() == "10 20"
        assert Route(P).path_str() == ""

    def test_repr_mentions_prefix_and_path(self):
        text = repr(Route(P, as_path=(3, 4)))
        assert "10.0.0.0/24" in text and "3 4" in text


class TestOriginEnum:
    def test_parse_codes(self):
        assert Origin.parse("i") is Origin.IGP
        assert Origin.parse("e") is Origin.EGP
        assert Origin.parse("?") is Origin.INCOMPLETE
        assert Origin.parse("IGP") is Origin.IGP

    def test_parse_rejects_unknown(self):
        import pytest

        with pytest.raises(ValueError):
            Origin.parse("x")

    def test_code_round_trip(self):
        for origin in Origin:
            assert Origin.parse(origin.code) is origin

    def test_preference_order(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE
