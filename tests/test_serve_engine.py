"""Tests for the cached query engine over a hand-built artifact."""

import pickle
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import ASRoutingModel
from repro.net.ip import IPv4Address, ip_to_string
from repro.net.prefix import prefix_for_asn
from repro.obs.metrics import get_registry, render_prometheus
from repro.serve import QueryEngine, QueryError, build_artifact, compile_artifact
from repro.serve.engine import (
    BAD_TARGET,
    QUARANTINED,
    UNKNOWN_OBSERVER,
    UNKNOWN_ORIGIN,
    UNKNOWN_TARGET,
)
from tests.oracle import seeded_world


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def diamond_artifact():
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
def artifact():
    return diamond_artifact()


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

    @pytest.mark.parametrize("string_first", [True, False])
    def test_an_address_and_its_decimal_string_are_two_questions(
        self, engine, string_first
    ):
        # The int is an address; its decimal text is not dotted-quad.
        address = prefix_for_asn(4).network + 1
        calls = [str(address), address]
        if not string_first:
            calls.reverse()
        for target in calls:
            if isinstance(target, str):
                with pytest.raises(QueryError) as excinfo:
                    engine.lookup(target, 1)
                assert excinfo.value.kind == BAD_TARGET
            else:
                answer = engine.lookup(target, 1)
                assert answer.origin == 4
                assert answer.target == str(address)
        stats = engine.cache_stats()
        assert (stats["hits"], stats["misses"], stats["errors"]) == (0, 2, 1)

    def test_a_target_of_another_type_is_asked_as_its_text(self, engine):
        # IPv4Address(a) == a and hashes alike, but it is asked as its text.
        address = prefix_for_asn(4).network + 1
        text = ip_to_string(address)
        assert engine.lookup(address, 1).target == str(address)
        answer = engine.lookup(IPv4Address(address), 1)
        assert (answer.target, answer.origin) == (text, 4)
        assert engine.lookup(text, 1) is answer
        with pytest.raises(QueryError) as excinfo:
            engine.lookup([text], 1)  # unhashable, and not an address
        assert excinfo.value.kind == BAD_TARGET
        stats = engine.cache_stats()
        assert (stats["hits"], stats["misses"], stats["errors"]) == (1, 3, 1)

    @pytest.mark.parametrize(
        "target", [-1, 2**32, 2**32 + prefix_for_asn(4).network + 1]
    )
    def test_an_int_outside_32_bits_is_a_bad_target(self, engine, target):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup(target, 1)
        assert excinfo.value.kind == BAD_TARGET
        assert get_registry().counter("serve.errors").value == 1

    def test_the_highest_address_is_a_target(self, engine):
        with pytest.raises(QueryError) as excinfo:
            engine.lookup(2**32 - 1, 1)
        assert excinfo.value.kind == UNKNOWN_TARGET


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


# Every kind of answer and every QueryError kind the diamond can give.
PAIR_ASNS = st.sampled_from([1, 4, 7, 999])
OBSERVERS = st.sampled_from([1, 2, 4, 5, 999])
TARGETS = st.sampled_from([
    ip_to_string(prefix_for_asn(4).network + 1),  # answered
    prefix_for_asn(4).network + 1,                # the same, as an int
    str(prefix_for_asn(1)),                       # a CIDR string
    prefix_for_asn(4),                            # a Prefix
    IPv4Address(prefix_for_asn(1).network + 1),   # asked as its text
    str(prefix_for_asn(7)),                       # quarantined
    "200.0.0.1",                                  # unknown-target
    "not-an-ip",                                  # bad-target
    2**32 + prefix_for_asn(4).network + 1,        # bad-target
])
CALLS = st.one_of(
    st.tuples(st.just("paths"), PAIR_ASNS, OBSERVERS),
    st.tuples(st.just("diversity"), PAIR_ASNS, OBSERVERS),
    st.tuples(st.just("lookup"), TARGETS, OBSERVERS),
)


class TestAccounting:
    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(CALLS, max_size=40), capacity=st.integers(1, 4))
    @example(
        calls=[("lookup", 2**32 + prefix_for_asn(4).network + 1, 1)], capacity=1
    )
    def test_every_query_is_counted_once_and_errors_never_cached(
        self, calls, capacity
    ):
        registry = get_registry()
        registry.reset()
        engine = QueryEngine(diamond_artifact(), cache_size=capacity)
        raises = 0
        for kind, first, observer in calls:
            before = engine.cache_stats()
            try:
                getattr(engine, kind)(first, observer)
            except QueryError:
                raises += 1
                after = engine.cache_stats()
                # A failing question is never answered from, nor stored in,
                # the cache: the same call raises as a miss each time.
                assert after["hits"] == before["hits"]
                assert after["misses"] == before["misses"] + 1
                assert after["entries"] == before["entries"]
            assert engine.cache_stats()["entries"] <= capacity
        stats = engine.cache_stats()
        queries = registry.counter("serve.queries").value
        assert registry.histogram("serve.query_seconds").count == queries
        assert queries == stats["queries"] == len(calls)
        assert queries == stats["hits"] + stats["misses"]
        assert queries == (
            registry.counter("serve.cache_hits").value
            + registry.counter("serve.cache_misses").value
        )
        assert registry.counter("serve.errors").value == stats["errors"] == raises


class TestSharedLock:
    def test_two_engines_lose_no_update_while_the_registry_is_read(self):
        """A reload's overlap: an old and a new engine answer from eight
        threads, writing the same ``serve.*`` instruments, while a ninth
        thread reads them as ``/metrics`` does."""
        registry = get_registry()
        engines = [QueryEngine(diamond_artifact(), cache_size=2) for _ in range(2)]
        calls = [
            ("paths", 4, 1),
            ("diversity", 4, 2),
            ("lookup", str(prefix_for_asn(1)), 2),
            ("paths", 1, 2),
            ("paths", 999, 1),                # unknown-origin
            ("diversity", 7, 1),              # quarantined
            ("lookup", "not-an-ip", 1),       # bad-target
        ]
        rounds, threads = 300, 8
        raises = [0] * threads
        failures: list[BaseException] = []
        stop = threading.Event()

        def client(index):
            engine = engines[index % 2]
            try:
                for turn in range(rounds):
                    kind, first, observer = calls[(index + turn) % len(calls)]
                    try:
                        getattr(engine, kind)(first, observer)
                    except QueryError:
                        raises[index] += 1
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        def reader():
            try:
                while not stop.is_set():
                    registry.snapshot()
                    render_prometheus(registry)
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            scraper = threading.Thread(target=reader, daemon=True)
            clients = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(threads)
            ]
            scraper.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            stop.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in [scraper, *clients]), "deadlock"
        assert not failures
        counters = registry.snapshot()["counters"]
        queries = counters["serve.queries"]
        assert queries == rounds * threads
        assert queries == counters["serve.cache_hits"] + counters["serve.cache_misses"]
        assert queries == registry.histogram("serve.query_seconds").count
        assert counters["serve.errors"] == sum(raises)
        # Each engine's own tallies add up to the shared instruments.
        stats = [engine.cache_stats() for engine in engines]
        for own, shared in (
            ("queries", "serve.queries"),
            ("hits", "serve.cache_hits"),
            ("misses", "serve.cache_misses"),
            ("errors", "serve.errors"),
        ):
            assert sum(s[own] for s in stats) == counters[shared]

    def test_every_engine_answers_under_the_instruments_lock(self):
        registry = get_registry()
        QueryEngine(diamond_artifact())
        second = QueryEngine(diamond_artifact())
        lock = registry.histogram("serve.query_seconds")._lock
        for name in (
            "serve.queries", "serve.cache_hits", "serve.cache_misses",
            "serve.errors",
        ):
            assert registry.counter(name)._lock is lock
        assert registry.gauge("serve.cache_size")._lock is lock
        answered = threading.Event()

        def query():
            second.paths(4, 1)
            answered.set()

        with lock:
            threading.Thread(target=query, daemon=True).start()
            assert not answered.wait(0.2)
        assert answered.wait(10)

    def test_a_serving_instrument_on_another_lock_is_refused(self):
        """A ``serve.*`` instrument made first without the lock is refused,
        naming it, rather than written under two locks."""
        get_registry().counter("serve.queries")
        with pytest.raises(ValueError, match="serve.queries"):
            QueryEngine(diamond_artifact())


class TestAnswersUnchanged:
    """Every answer equals the one read straight off the artifact."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_pair_of_a_compiled_world(self, seed):
        model = ASRoutingModel.from_network(pickle.loads(seeded_world(seed).blob))
        artifact, _ = compile_artifact(model)
        assert not artifact.quarantined
        engine = QueryEngine(artifact)
        for origin, prefix in artifact.origins.items():
            text = str(artifact.origins[origin])
            inside = prefix.network + 1
            for observer in artifact.observers:
                path_set = artifact.paths.get((origin, observer), ())
                paths = [list(path) for path in path_set]
                hops = [len(path) - 1 for path in path_set]
                routed = {
                    "origin": origin, "observer": observer, "prefix": text,
                    "reachable": bool(path_set), "paths": paths,
                }
                assert engine.paths(origin, observer).to_dict() == routed
                assert engine.diversity(origin, observer).to_dict() == {
                    "origin": origin, "observer": observer, "prefix": text,
                    "path_count": len(path_set),
                    "multipath": len(path_set) > 1,
                    "next_hops": sorted({p[1] for p in path_set if len(p) > 1}),
                    "min_length": min(hops, default=0),
                    "max_length": max(hops, default=0),
                }
                for target in (ip_to_string(inside), inside):
                    assert engine.lookup(target, observer).to_dict() == {
                        "target": str(target), "matched_prefix": text,
                        "origin": origin, "observer": observer,
                        "reachable": bool(path_set), "paths": paths,
                    }


class TestDescribe:
    def test_summary_fields(self, engine, artifact):
        described = engine.describe()
        assert described["origins"] == len(artifact.origins)
        assert described["observers"] == len(artifact.observers)
        assert described["pairs"] == artifact.pair_count
        assert described["quarantined"] == 1
        assert described["meta"] == {"argv": ["test"]}
