"""Tests for the supervised parallel executor: crash isolation, watchdogs,
poison classification, deterministic merge and graceful shutdown."""

import signal
import threading

import pytest

from repro.bgp.network import Network
from repro.core.model import MODEL_DECISION_CONFIG
from repro.errors import ShutdownRequested
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import (
    EVENT_DRAIN,
    EVENT_POISON_PREFIX,
    EVENT_TASK_RESUBMIT,
    EVENT_TASK_TIMEOUT,
    EVENT_WORKER_DEATH,
    EVENT_WORKER_SPAWN,
    RecordingTracer,
    tracing,
)
from repro.parallel import (
    ParallelConfig,
    SupervisedPool,
    WorkerFaults,
    apply_prefix_state,
    capture_prefix_state,
)
from repro.resilience.retry import (
    CONVERGED,
    POISON,
    TIMEOUT,
    simulate_network_bounded,
)

pytestmark = pytest.mark.timeout(120)


def star_network(prefix_count=8, spokes=4):
    """A hub AS originating several prefixes, observed by spoke ASes."""
    net = Network("star")
    hub = net.add_router(100)
    for index in range(spokes):
        net.connect(net.add_router(200 + index), hub)
    prefixes = []
    for index in range(prefix_count):
        prefix = Prefix(f"10.{index}.0.0/24")
        net.originate(hub, prefix)
        prefixes.append(prefix)
    return net, prefixes


def fresh_registry():
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


class TestEquivalence:
    def test_parallel_matches_sequential(self):
        net_seq, prefixes = star_network()
        net_par, _ = star_network()
        seq = simulate_network_bounded(net_seq, config=MODEL_DECISION_CONFIG)
        par = simulate_network_bounded(
            net_par, config=MODEL_DECISION_CONFIG,
            parallel=ParallelConfig(workers=2),
        )
        assert [(str(o.prefix), o.status) for o in par.outcomes] == sorted(
            (str(o.prefix), o.status) for o in seq.outcomes
        )
        assert par.engine.messages == seq.engine.messages
        for router_id, router in net_seq.routers.items():
            other = net_par.routers[router_id]
            assert set(router.loc_rib) == set(other.loc_rib)
            for prefix in router.loc_rib:
                mine, theirs = router.loc_rib[prefix], other.loc_rib[prefix]
                assert mine.as_path == theirs.as_path
                assert mine.next_hop == theirs.next_hop

    def test_workers_1_falls_back_to_sequential(self):
        net, _ = star_network(prefix_count=3)
        stats = simulate_network_bounded(
            net, config=MODEL_DECISION_CONFIG, parallel=ParallelConfig(workers=1)
        )
        assert all(o.status == CONVERGED for o in stats.outcomes)
        assert stats.supervision is None  # no pool ran

    def test_pool_rejects_single_worker(self):
        net, _ = star_network(prefix_count=1)
        with pytest.raises(ValueError, match="workers >= 2"):
            SupervisedPool(net, parallel=ParallelConfig(workers=1))

    def test_merged_metrics_match_sequential(self):
        net_seq, _ = star_network()
        registry = fresh_registry()
        simulate_network_bounded(net_seq, config=MODEL_DECISION_CONFIG)
        seq_messages = registry.snapshot()["histograms"][
            "engine.messages_per_prefix"
        ]
        net_par, _ = star_network()
        registry = fresh_registry()
        simulate_network_bounded(
            net_par, config=MODEL_DECISION_CONFIG,
            parallel=ParallelConfig(workers=2),
        )
        par_messages = registry.snapshot()["histograms"][
            "engine.messages_per_prefix"
        ]
        set_registry(None)
        assert par_messages == seq_messages


class TestCrashIsolation:
    def test_crash_prefix_classified_poison(self):
        net, prefixes = star_network()
        victim = str(prefixes[3])
        registry = fresh_registry()
        with tracing(RecordingTracer()) as tracer:
            stats = simulate_network_bounded(
                net, config=MODEL_DECISION_CONFIG,
                parallel=ParallelConfig(
                    workers=2, max_resubmits=1,
                    faults=WorkerFaults(crash_prefixes=(victim,)),
                ),
            )
        set_registry(None)
        assert [str(p) for p in stats.poison] == [victim]
        outcome = next(o for o in stats.outcomes if str(o.prefix) == victim)
        assert outcome.status == POISON
        assert outcome.resubmits == 1
        assert outcome.attempts == 2  # initial dispatch + one resubmit
        # every healthy prefix still converged
        healthy = [o for o in stats.outcomes if str(o.prefix) != victim]
        assert all(o.status == CONVERGED for o in healthy)
        # the poison prefix carries no routes (quarantined)
        assert not net.touched_routers(prefixes[3])
        assert stats.supervision["deaths"] == 2
        assert stats.supervision["restarts"] == 2
        assert stats.supervision["resubmits"] == 1
        counters = registry.snapshot()["counters"]
        assert counters["parallel.poison_prefixes"] == 1
        assert counters["parallel.resubmits"] == 1
        events = {record["type"] for record in tracer.events()}
        assert {
            EVENT_WORKER_SPAWN,
            EVENT_WORKER_DEATH,
            EVENT_TASK_RESUBMIT,
            EVENT_POISON_PREFIX,
        } <= events

    def test_hang_prefix_classified_timeout(self):
        net, prefixes = star_network()
        victim = str(prefixes[5])
        registry = fresh_registry()
        with tracing(RecordingTracer()) as tracer:
            stats = simulate_network_bounded(
                net, config=MODEL_DECISION_CONFIG,
                parallel=ParallelConfig(
                    workers=2, task_timeout=0.5, max_resubmits=1,
                    faults=WorkerFaults(
                        hang_prefixes=(victim,), hang_seconds=60.0
                    ),
                ),
            )
        set_registry(None)
        assert [str(p) for p in stats.timed_out] == [victim]
        outcome = next(o for o in stats.outcomes if str(o.prefix) == victim)
        assert outcome.status == TIMEOUT
        assert stats.supervision["task_timeouts"] == 2
        assert registry.snapshot()["counters"]["parallel.task_timeouts"] == 2
        events = {record["type"] for record in tracer.events()}
        assert EVENT_TASK_TIMEOUT in events

    def test_resubmit_succeeds_on_fresh_worker_after_one_crash(self):
        # A prefix that crashes its first worker but survives the retry
        # cannot be built with WorkerFaults (faults are deterministic by
        # prefix), so assert the opposite invariant instead: with a
        # generous resubmit allowance the poison classification still
        # triggers only after max_resubmits + 1 dispatches.
        net, prefixes = star_network(prefix_count=4)
        victim = str(prefixes[0])
        stats = simulate_network_bounded(
            net, config=MODEL_DECISION_CONFIG,
            parallel=ParallelConfig(
                workers=2, max_resubmits=3,
                faults=WorkerFaults(crash_prefixes=(victim,)),
            ),
        )
        outcome = next(o for o in stats.outcomes if str(o.prefix) == victim)
        assert outcome.status == POISON
        assert outcome.attempts == 4
        assert stats.supervision["deaths"] == 4

    def test_mixed_faults_whole_run_survives(self):
        net, prefixes = star_network(prefix_count=10)
        crash, hang = str(prefixes[1]), str(prefixes[8])
        stats = simulate_network_bounded(
            net, config=MODEL_DECISION_CONFIG,
            parallel=ParallelConfig(
                workers=3, task_timeout=0.5, max_resubmits=1,
                faults=WorkerFaults(
                    crash_prefixes=(crash,), hang_prefixes=(hang,),
                    hang_seconds=60.0,
                ),
            ),
        )
        assert [str(p) for p in stats.poison] == [crash]
        assert [str(p) for p in stats.timed_out] == [hang]
        assert sum(1 for o in stats.outcomes if o.status == CONVERGED) == 8


class TestGracefulShutdown:
    def test_sigterm_drains_and_raises(self):
        net, prefixes = star_network(prefix_count=12)
        victim = str(prefixes[0])
        timer = threading.Timer(
            0.5, lambda: signal.raise_signal(signal.SIGTERM)
        )
        timer.start()
        with tracing(RecordingTracer()) as tracer:
            try:
                with pytest.raises(ShutdownRequested) as excinfo:
                    simulate_network_bounded(
                        net, config=MODEL_DECISION_CONFIG,
                        parallel=ParallelConfig(
                            workers=2, drain_grace=1.0,
                            faults=WorkerFaults(
                                hang_prefixes=(victim,), hang_seconds=60.0
                            ),
                        ),
                    )
            finally:
                timer.cancel()
        shutdown = excinfo.value
        assert shutdown.signum == signal.SIGTERM
        assert shutdown.stats is not None
        assert shutdown.stats.supervision["drained"] is True
        # partial results + pending cover every prefix except the hung one
        done = {str(o.prefix) for o in shutdown.stats.outcomes}
        left = {str(p) for p in shutdown.pending}
        assert victim not in done
        assert done | left | {victim} == {str(p) for p in prefixes}
        events = {record["type"] for record in tracer.events()}
        assert EVENT_DRAIN in events

    def test_signal_handlers_restored_after_run(self):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        net, _ = star_network(prefix_count=3)
        simulate_network_bounded(
            net, config=MODEL_DECISION_CONFIG, parallel=ParallelConfig(workers=2)
        )
        assert (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        ) == before


class TestPrefixState:
    def test_capture_apply_round_trip(self):
        net, prefixes = star_network(prefix_count=2)
        simulate_network_bounded(net, config=MODEL_DECISION_CONFIG)
        target = prefixes[0]
        state = capture_prefix_state(net, target)
        assert state.routers  # someone touched it
        blank, _ = star_network(prefix_count=2)
        apply_prefix_state(blank, state)
        assert blank.touched_routers(target) == net.touched_routers(target)
        for router_id in net.touched_routers(target):
            mine = net.routers[router_id].loc_rib.get(target)
            theirs = blank.routers[router_id].loc_rib.get(target)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.as_path == theirs.as_path

    def test_apply_clears_stale_state_first(self):
        net, prefixes = star_network(prefix_count=1)
        simulate_network_bounded(net, config=MODEL_DECISION_CONFIG)
        state = capture_prefix_state(net, prefixes[0])
        # re-applying over existing state must not duplicate anything
        apply_prefix_state(net, state)
        apply_prefix_state(net, state)
        touched = net.touched_routers(prefixes[0])
        assert state.routers.keys() == set(touched)


class TestDeterministicSerialization:
    def test_stats_to_dict_sorted_regardless_of_outcome_order(self):
        from repro.resilience.retry import PrefixOutcome, ResilienceStats

        prefixes = [Prefix(f"10.{i}.0.0/24") for i in (3, 1, 2)]
        stats_a = ResilienceStats()
        stats_b = ResilienceStats()
        for prefix in prefixes:
            stats_a.outcomes.append(
                PrefixOutcome.supervised_failure(prefix, POISON, 2, 0.0)
            )
        for prefix in reversed(prefixes):
            stats_b.outcomes.append(
                PrefixOutcome.supervised_failure(prefix, POISON, 2, 0.0)
            )
        assert stats_a.to_dict() == stats_b.to_dict()
        assert stats_a.to_dict()["poison"] == sorted(str(p) for p in prefixes)
        assert stats_b.quarantined == sorted(prefixes)
        assert stats_a.to_dict()["resubmits"] == 6

    def test_health_exit_codes_for_poison_and_interrupted(self):
        from repro.resilience.health import (
            EXIT_DIVERGED,
            EXIT_INTERRUPTED,
            RunHealth,
        )
        from repro.resilience.retry import PrefixOutcome, ResilienceStats

        health = RunHealth()
        stats = ResilienceStats()
        stats.outcomes.append(
            PrefixOutcome.supervised_failure(Prefix("10.0.0.0/24"), POISON, 2, 0.0)
        )
        health.record_simulation(stats)
        assert health.diverged_prefixes == ["10.0.0.0/24"]
        assert health.exit_code == EXIT_DIVERGED
        health.interrupted = True
        assert health.exit_code == EXIT_INTERRUPTED
        assert health.to_dict()["interrupted"] is True
