"""Tests for the cached query engine over a hand-built artifact."""

import threading

import pytest

from repro.net.prefix import prefix_for_asn
from repro.obs.metrics import get_registry
from repro.serve import QueryEngine, QueryError, build_artifact
from repro.serve.engine import (
    BAD_TARGET,
    QUARANTINED,
    UNKNOWN_OBSERVER,
    UNKNOWN_ORIGIN,
    UNKNOWN_TARGET,
)


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


@pytest.fixture
def artifact():
    # Diamond 1-{2,3}-4 plus quarantined origin 7.  Observer 5 has no
    # path to AS 4 (known pair, empty answer = unreachable).
    return build_artifact(
        origins={
            1: prefix_for_asn(1),
            4: prefix_for_asn(4),
            7: prefix_for_asn(7),
        },
        observers=[1, 2, 3, 4, 5],
        paths={
            (4, 1): {(1, 2, 4), (1, 3, 4)},
            (4, 2): {(2, 4)},
            (4, 3): {(3, 4)},
            (4, 4): {(4,)},
            (1, 2): {(2, 1)},
        },
        quarantined=[prefix_for_asn(7)],
        meta={"argv": ["test"]},
    )


@pytest.fixture
def engine(artifact):
    return QueryEngine(artifact, cache_size=8)


class TestPaths:
    def test_multipath_pair(self, engine):
        answer = engine.paths(4, 1)
        assert answer.reachable
        assert answer.paths == ((1, 2, 4), (1, 3, 4))
        assert answer.prefix == str(prefix_for_asn(4))

    def test_known_pair_without_routes_is_unreachable(self, engine):
        answer = engine.paths(4, 5)
        assert not answer.reachable
        assert answer.paths == ()

    def test_unknown_origin(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.paths(999, 1)
        assert excinfo.value.kind == UNKNOWN_ORIGIN
        assert "999" in str(excinfo.value)

    def test_unknown_observer(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.paths(4, 999)
        assert excinfo.value.kind == UNKNOWN_OBSERVER

    def test_quarantined_origin_refuses(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.paths(7, 1)
        assert excinfo.value.kind == QUARANTINED


class TestDiversity:
    def test_multipath_summary(self, engine):
        answer = engine.diversity(4, 1)
        assert answer.multipath
        assert answer.path_count == 2
        assert answer.next_hops == (2, 3)
        assert answer.min_length == answer.max_length == 2

    def test_single_path_not_multipath(self, engine):
        answer = engine.diversity(4, 2)
        assert not answer.multipath
        assert answer.next_hops == (4,)

    def test_self_origin_has_no_next_hop(self, engine):
        answer = engine.diversity(4, 4)
        assert answer.path_count == 1
        assert answer.next_hops == ()
        assert answer.min_length == 0


class TestLookup:
    def test_address_inside_canonical_prefix(self, engine):
        target = str(prefix_for_asn(4)).split("/")[0]
        answer = engine.lookup(target, 1)
        assert answer.origin == 4
        assert answer.matched_prefix == str(prefix_for_asn(4))
        assert answer.paths == ((1, 2, 4), (1, 3, 4))

    def test_cidr_target(self, engine):
        answer = engine.lookup(str(prefix_for_asn(1)), 2)
        assert answer.origin == 1
        assert answer.paths == ((2, 1),)

    def test_unreachable_origin_answers_empty(self, engine):
        # Observer 5 has no route to AS 4, but the prefix is known:
        # lookup answers (reachable=False) instead of erroring.
        answer = engine.lookup(str(prefix_for_asn(4)), 5)
        assert answer.origin == 4
        assert not answer.reachable

    def test_uncovered_target_is_unknown(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup("200.0.0.1", 1)
        assert excinfo.value.kind == UNKNOWN_TARGET

    def test_quarantined_prefix_refuses(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup(str(prefix_for_asn(7)), 1)
        assert excinfo.value.kind == QUARANTINED

    def test_garbage_target_is_bad(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup("not-an-ip", 1)
        assert excinfo.value.kind == BAD_TARGET

    def test_unknown_observer_checked_first(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup(str(prefix_for_asn(4)), 999)
        assert excinfo.value.kind == UNKNOWN_OBSERVER


class TestCache:
    def test_hits_and_misses_counted(self, engine):
        engine.paths(4, 1)
        engine.paths(4, 1)
        engine.paths(4, 2)
        stats = engine.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["queries"] == 3

    def test_eviction_keeps_capacity_bound(self, artifact):
        engine = QueryEngine(artifact, cache_size=2)
        engine.paths(4, 1)
        engine.paths(4, 2)
        engine.paths(4, 3)  # evicts (paths, 4, 1)
        stats = engine.cache_stats()
        assert stats["entries"] == 2
        engine.paths(4, 1)  # must recompute
        assert engine.cache_stats()["misses"] == 4

    def test_lru_order_recency(self, artifact):
        engine = QueryEngine(artifact, cache_size=2)
        engine.paths(4, 1)
        engine.paths(4, 2)
        engine.paths(4, 1)  # refresh: (4, 1) is now most recent
        engine.paths(4, 3)  # evicts (4, 2), not (4, 1)
        engine.paths(4, 1)
        assert engine.cache_stats()["hits"] == 2

    def test_errors_are_not_cached(self, engine):
        for _ in range(2):
            with pytest.raises(QueryError):
                engine.paths(999, 1)
        stats = engine.cache_stats()
        assert stats["errors"] == 2
        assert stats["entries"] == 0

    def test_queries_flow_through_registry(self, engine):
        engine.paths(4, 1)
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["serve.queries"] == 1
        assert snapshot["histograms"]["serve.query_seconds"]["count"] == 1

    def test_rejects_silly_capacity(self, artifact):
        with pytest.raises(ValueError):
            QueryEngine(artifact, cache_size=0)

    def test_thread_safety_under_concurrent_queries(self, artifact):
        engine = QueryEngine(artifact, cache_size=4)
        errors = []

        def worker():
            try:
                for _ in range(50):
                    assert engine.paths(4, 1).paths
                    engine.diversity(4, 2)
                    engine.lookup(str(prefix_for_asn(1)), 2)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = engine.cache_stats()
        assert stats["queries"] == 8 * 50 * 3
        assert stats["hits"] + stats["misses"] == stats["queries"]


class TestDescribe:
    def test_summary_fields(self, engine, artifact):
        described = engine.describe()
        assert described["origins"] == len(artifact.origins)
        assert described["observers"] == len(artifact.observers)
        assert described["pairs"] == artifact.pair_count
        assert described["quarantined"] == 1
        assert described["meta"] == {"argv": ["test"]}
