"""Tests for the supervised parallel executor: crash isolation, watchdogs,
poison classification, deterministic merge and graceful shutdown."""

import signal
import threading

import pytest

from repro.bgp.engine import DIVERGED, POISON, TIMEOUT, EngineStats, Quarantine
from repro.bgp.network import Network
from repro.bgp.route import Route
from repro.core.model import simulate_pooled
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
from repro.parallel import ParallelConfig, WorkerFaults
from repro.parallel import supervisor
from repro.parallel.supervisor import SupervisedPool
from repro.resilience.health import RunHealth

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


def report(stats):
    """The ``simulation`` section a health report makes of ``stats``."""
    health = RunHealth()
    health.record_simulation(stats)
    return health.simulation


def quarantined(stats, reason):
    return [str(q.prefix) for q in stats.quarantined if q.reason == reason]


def fresh_registry():
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def by_value(route):
    """Every field of a route (a ``Route`` compares by identity)."""
    if route is None:
        return None
    return tuple(getattr(route, name) for name in Route.__slots__)


def rib_rows(net, prefix):
    """What every router holds for ``prefix``, by value."""
    rows = {}
    for router_id, router in net.routers.items():
        rib_in = router.adj_rib_in.get(prefix)
        rib_out = router.adj_rib_out.get(prefix)
        rows[router_id] = (
            rib_in and {sid: by_value(route) for sid, route in rib_in.items()},
            by_value(router.loc_rib.get(prefix)),
            rib_out and {sid: by_value(route) for sid, route in rib_out.items()},
        )
    return rows


def sequential_twin(prefix_count=8):
    """The same star, simulated in-process: the oracle for the pool."""
    net, _ = star_network(prefix_count)
    simulate_pooled(net)
    return net


class TestEquivalence:
    def test_parallel_matches_sequential(self):
        net_seq, prefixes = star_network()
        net_par, _ = star_network()
        seq = simulate_pooled(net_seq)
        par = simulate_pooled(net_par, parallel=ParallelConfig(workers=2))
        assert par.prefixes == seq.prefixes == len(prefixes)
        assert par.quarantined == seq.quarantined == []
        assert par.messages == seq.messages
        for router_id, router in net_seq.routers.items():
            other = net_par.routers[router_id]
            assert set(router.loc_rib) == set(other.loc_rib)
            for prefix in router.loc_rib:
                mine, theirs = router.loc_rib[prefix], other.loc_rib[prefix]
                assert mine.as_path == theirs.as_path
                assert mine.next_hop == theirs.next_hop

    def test_workers_1_falls_back_to_sequential(self):
        net, _ = star_network(prefix_count=3)
        stats = simulate_pooled(net, parallel=ParallelConfig(workers=1))
        assert stats.prefixes == 3 and not stats.quarantined
        assert stats.supervision is None  # no pool ran

    def test_pool_rejects_single_worker(self):
        net, _ = star_network(prefix_count=1)
        with pytest.raises(ValueError, match="workers >= 2"):
            SupervisedPool(net, parallel=ParallelConfig(workers=1))

    def test_merged_metrics_match_sequential(self):
        """Every ``engine.*`` instrument, not a sample: the pool folds the
        tasks' metrics dumps in prefix order (the order the client
        submitted them in), as the sequential loop accumulates them."""

        def engine_instruments(**kwargs):
            net, _ = star_network(prefix_count=12)
            registry = fresh_registry()
            simulate_pooled(net, **kwargs)
            set_registry(None)
            snapshot = registry.snapshot()
            return {
                kind: {
                    name: value for name, value in instruments.items()
                    if name.startswith("engine.")
                }
                for kind, instruments in snapshot.items()
            }

        sequential = engine_instruments()
        assert sequential["counters"]["engine.prefixes"] == 12
        assert sequential["histograms"]["engine.messages_per_prefix"]
        assert engine_instruments(parallel=ParallelConfig(workers=2)) == sequential

    def test_a_budget_starved_prefix_is_quarantined_as_sequentially(self):
        """The engine's own quarantine, reached inside a task: the prefix
        comes home diverged with an empty state and holds nothing."""
        far = Prefix("10.99.0.0/24")

        def star_with_tail():
            # One prefix announced from both ends of the tree: it takes
            # more messages to settle than those the hub alone originates.
            net, prefixes = star_network()
            hub, spoke = net.routers[min(net.routers)], net.routers[max(net.routers)]
            tail = net.add_router(300)
            net.connect(tail, spoke)
            net.originate(hub, far)
            net.originate(tail, far)
            return net, prefixes

        net, prefixes = star_with_tail()
        roomy = simulate_pooled(net)
        budget = roomy.per_prefix_messages[far] - 1
        assert budget >= max(
            roomy.per_prefix_messages[prefix] for prefix in prefixes
        )
        seq_net, _ = star_with_tail()
        par_net, _ = star_with_tail()
        seq = simulate_pooled(seq_net, max_messages=budget)
        par = simulate_pooled(
            par_net, max_messages=budget, parallel=ParallelConfig(workers=2)
        )
        assert seq.diverged == par.diverged == [far]
        assert par.quarantined == seq.quarantined == [
            Quarantine(far, DIVERGED, budget + 1, budget)
        ]
        assert not par_net.holds_state(far)
        assert par.budget_exhaustions == seq.budget_exhaustions == 1
        assert par.per_prefix_messages == seq.per_prefix_messages
        for prefix in (*prefixes, far):
            assert rib_rows(par_net, prefix) == rib_rows(seq_net, prefix)


class TestCrashIsolation:
    def test_crash_prefix_classified_poison(self):
        net, prefixes = star_network()
        victim = str(prefixes[3])
        registry = fresh_registry()
        with tracing(RecordingTracer()) as tracer:
            stats = simulate_pooled(
                net,
                parallel=ParallelConfig(
                    workers=2, max_resubmits=1,
                    faults=WorkerFaults(crash_prefixes=(victim,)),
                ),
            )
        set_registry(None)
        assert stats.quarantined == [Quarantine(prefixes[3], POISON, resubmits=1)]
        (outcome,) = report(stats)["outcomes"]
        assert outcome["attempts"] == 2  # initial dispatch + one resubmit
        # every healthy prefix still converged
        assert stats.prefixes == len(prefixes) - 1 and not stats.diverged
        # the poison prefix carries no routes (quarantined); the others
        # hold what the sequential loop leaves
        assert not net.holds_state(prefixes[3])
        oracle = sequential_twin()
        for prefix in prefixes:
            if prefix != prefixes[3]:
                assert rib_rows(net, prefix) == rib_rows(oracle, prefix)
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
            stats = simulate_pooled(
                net,
                parallel=ParallelConfig(
                    workers=2, task_timeout=0.5, max_resubmits=1,
                    faults=WorkerFaults(
                        hang_prefixes=(victim,), hang_seconds=60.0
                    ),
                ),
            )
        set_registry(None)
        assert quarantined(stats, TIMEOUT) == [victim]
        assert report(stats)["timeout"] == [victim]
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
        stats = simulate_pooled(
            net,
            parallel=ParallelConfig(
                workers=2, max_resubmits=3,
                faults=WorkerFaults(crash_prefixes=(victim,)),
            ),
        )
        (outcome,) = report(stats)["outcomes"]
        assert outcome["status"] == POISON
        assert outcome["attempts"] == 4
        assert stats.supervision["deaths"] == 4

    def test_mixed_faults_whole_run_survives(self):
        net, prefixes = star_network(prefix_count=10)
        crash, hang = str(prefixes[1]), str(prefixes[8])
        stats = simulate_pooled(
            net,
            parallel=ParallelConfig(
                workers=3, task_timeout=0.5, max_resubmits=1,
                faults=WorkerFaults(
                    crash_prefixes=(crash,), hang_prefixes=(hang,),
                    hang_seconds=60.0,
                ),
            ),
        )
        assert quarantined(stats, POISON) == [crash]
        assert quarantined(stats, TIMEOUT) == [hang]
        assert report(stats)["converged"] == 8


class TestGracefulShutdown:
    def test_sigterm_drains_and_raises(self, monkeypatch):
        monkeypatch.setattr(supervisor, "DRAIN_GRACE", 1.0)
        net, prefixes = star_network(prefix_count=12)
        victim = str(prefixes[0])
        timer = threading.Timer(
            0.5, lambda: signal.raise_signal(signal.SIGTERM)
        )
        timer.start()
        with tracing(RecordingTracer()) as tracer:
            try:
                with pytest.raises(ShutdownRequested) as excinfo:
                    simulate_pooled(
                        net,
                        parallel=ParallelConfig(
                            workers=2,
                            faults=WorkerFaults(
                                hang_prefixes=(victim,), hang_seconds=60.0
                            ),
                        ),
                    )
            finally:
                timer.cancel()
        shutdown = excinfo.value
        assert shutdown.signum == signal.SIGTERM
        # the contract Refiner._simulate_all, run_chaos and cli.main consume
        assert isinstance(shutdown.stats, EngineStats)
        assert shutdown.stats.supervision["drained"] is True
        assert shutdown.pending and shutdown.pending == sorted(shutdown.pending)
        assert all(isinstance(prefix, Prefix) for prefix in shutdown.pending)
        # partial results + pending cover every prefix except the hung one
        done = {str(p) for p in shutdown.stats.per_prefix_messages}
        left = {str(p) for p in shutdown.pending}
        assert victim not in done
        assert done | left | {victim} == {str(p) for p in prefixes}
        # what finished before the drain is on the network, the rest is not
        oracle = sequential_twin(prefix_count=12)
        for prefix in prefixes:
            if str(prefix) in done:
                assert rib_rows(net, prefix) == rib_rows(oracle, prefix)
            else:
                assert not net.holds_state(prefix)
        events = {record["type"] for record in tracer.events()}
        assert EVENT_DRAIN in events

    def test_signal_handlers_restored_after_run(self):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        net, _ = star_network(prefix_count=3)
        simulate_pooled(net, parallel=ParallelConfig(workers=2))
        assert (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        ) == before


class TestPrefixState:
    def test_capture_apply_round_trip(self):
        net, prefixes = star_network(prefix_count=2)
        simulate_pooled(net)
        target = prefixes[0]
        state = net.capture_prefix(target)
        assert state.routers  # someone touched it
        blank, _ = star_network(prefix_count=2)
        blank.install_prefix(state)
        assert rib_rows(blank, target) == rib_rows(net, target)
        assert blank.capture_prefix(target) == state
        assert not blank.holds_state(prefixes[1])
        # by value: what the capture handed over is not the source's own
        hub = next(iter(net.routers))
        assert (
            blank.routers[hub].adj_rib_out[target]
            is not net.routers[hub].adj_rib_out[target]
        )

    def test_apply_clears_stale_state_first(self):
        net, prefixes = star_network(prefix_count=1)
        simulate_pooled(net)
        target = prefixes[0]
        state = net.capture_prefix(target)
        before = rib_rows(net, target)
        # a row the state does not name must not survive the install
        spoke = max(net.routers)
        del state.routers[spoke]
        net.install_prefix(state)
        assert rib_rows(net, target)[spoke] == (None, None, None)
        # re-applying over existing state must not duplicate anything
        net.install_prefix(state)
        assert net.capture_prefix(target) == state
        assert {
            router_id: row for router_id, row in rib_rows(net, target).items()
            if router_id != spoke
        } == {
            router_id: row for router_id, row in before.items()
            if router_id != spoke
        }
        # a quarantined prefix's (empty) state leaves nothing held
        net.install_prefix(type(state)(target))
        assert not net.holds_state(target)

    def test_a_state_captured_in_a_perturbation_is_what_close_puts_back(self):
        """``set_aside`` and the pool ship the same slice: the state a
        perturbation captures before its first change is the one
        ``close_perturbation`` installs."""
        net, prefixes = star_network(prefix_count=2)
        simulate_pooled(net)
        target, other = prefixes
        before = net.capture_prefix(target)
        untouched = rib_rows(net, other)
        hub, spoke = net.routers[min(net.routers)], net.routers[max(net.routers)]
        net.open_perturbation()
        net.disconnect(hub, spoke)
        simulate_pooled(net, [target])
        assert net.capture_prefix(target) != before
        net.close_perturbation()
        assert net.capture_prefix(target) == before
        assert rib_rows(net, other) == untouched


class TestDeterministicSerialization:
    def test_stats_to_dict_sorted_regardless_of_outcome_order(self):
        prefixes = [Prefix(f"10.{i}.0.0/24") for i in (3, 1, 2)]
        stats_a = EngineStats()
        stats_b = EngineStats()
        for prefix in prefixes:
            stats_a.quarantined.append(Quarantine(prefix, POISON, resubmits=2))
        for prefix in reversed(prefixes):
            stats_b.quarantined.append(Quarantine(prefix, POISON, resubmits=2))
        assert report(stats_a) == report(stats_b)
        assert report(stats_a)["poison"] == [str(p) for p in sorted(prefixes)]
        assert report(stats_a)["resubmits"] == 6

    def test_health_exit_codes_for_poison_and_interrupted(self):
        from repro.resilience.health import EXIT_DIVERGED, EXIT_INTERRUPTED

        health = RunHealth()
        stats = EngineStats()
        stats.quarantined.append(
            Quarantine(Prefix("10.0.0.0/24"), POISON, resubmits=2)
        )
        health.record_simulation(stats)
        assert health.diverged_prefixes == ["10.0.0.0/24"]
        assert health.exit_code == EXIT_DIVERGED
        health.interrupted = True
        assert health.exit_code == EXIT_INTERRUPTED
        assert health.to_dict()["interrupted"] is True
