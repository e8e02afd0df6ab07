"""Unit tests for repro.net.aspath."""

import pytest

from repro.errors import ParseError
from repro.net.aspath import ASPath


class TestParsing:
    def test_parses_space_separated(self):
        assert ASPath.parse("1 2 3").asns == (1, 2, 3)

    def test_parses_dash_separated(self):
        assert ASPath.parse("1-2-3").asns == (1, 2, 3)

    def test_parses_empty(self):
        assert len(ASPath.parse("")) == 0

    def test_rejects_as_set(self):
        with pytest.raises(ParseError):
            ASPath.parse("1 2 {3,4}")

    def test_str_round_trip(self):
        assert str(ASPath.parse("10 20 30")) == "10 20 30"


class TestAccessors:
    def test_origin_and_head(self):
        path = ASPath((1, 2, 3))
        assert path.head_asn == 1
        assert path.origin_asn == 3

    def test_empty_path_has_no_origin(self):
        with pytest.raises(ValueError):
            ASPath(()).origin_asn
        with pytest.raises(ValueError):
            ASPath(()).head_asn

    def test_contains(self):
        assert 2 in ASPath((1, 2, 3))
        assert 9 not in ASPath((1, 2, 3))

    def test_indexing_and_slicing(self):
        path = ASPath((1, 2, 3, 4))
        assert path[0] == 1
        assert path[1:] == ASPath((2, 3, 4))

    def test_equality_with_tuple(self):
        assert ASPath((1, 2)) == (1, 2)

    def test_hash_matches_equality(self):
        assert len({ASPath((1, 2)), ASPath((1, 2))}) == 1


class TestPrepending:
    def test_collapses_consecutive_duplicates(self):
        assert ASPath((1, 2, 2, 2, 3)).without_prepending() == ASPath((1, 2, 3))

    def test_no_change_without_prepending(self):
        assert ASPath((1, 2, 3)).without_prepending() == ASPath((1, 2, 3))


class TestLoops:
    def test_detects_non_consecutive_repeat(self):
        assert ASPath((1, 2, 3, 2)).has_loop()

    def test_prepending_is_not_a_loop(self):
        assert not ASPath((1, 2, 2, 3)).has_loop()

    def test_clean_path_has_no_loop(self):
        assert not ASPath((1, 2, 3)).has_loop()


class TestEdges:
    def test_yields_adjacent_pairs(self):
        assert list(ASPath((1, 2, 3)).edges()) == [(1, 2), (2, 3)]

    def test_skips_prepended_self_edges(self):
        assert list(ASPath((1, 2, 2, 3)).edges()) == [(1, 2), (2, 3)]
