"""Tests for the supervised pool's one entry point (`run_tasks`).

Anything picklable with a ``key`` and a ``run`` goes through the
crash-isolated pool — campaign scenarios, per-prefix simulations.  These
tests cover that contract directly: deterministic fold in submission
order, each task's network edits undone before the next, context
shipping, worker-side metrics folding, and poison quarantine on injected
crashes.
"""

from dataclasses import dataclass

import pytest

from repro.bgp.network import Network
from repro.core.model import MODEL_DECISION_CONFIG
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.parallel import ParallelConfig, TaskFailure, WorkerFaults
from repro.parallel.supervisor import GenericRunStats, SupervisedPool
from repro.resilience.retry import POISON

pytestmark = pytest.mark.timeout(120)


def small_network():
    net = Network("tasks")
    hub = net.add_router(100)
    for index in range(3):
        net.connect(net.add_router(200 + index), hub)
    net.originate(hub, Prefix("10.0.0.0/24"))
    return net


@dataclass(frozen=True)
class ProbeTask:
    """Reports the worker-side view: session count, context, edits."""

    name: str

    @property
    def key(self) -> str:
        return f"probe:{self.name}"

    def run(self, network, context, config, max_messages) -> dict:
        # Count first, then edit: if one task's edit reached the next,
        # that task would see the sessions gone.
        sessions = len(network.sessions)
        victim = next(iter(network.sessions.values()))
        network.disconnect(victim.src, victim.dst)
        get_registry().counter("probe.ticks").inc()
        return {
            "sessions": sessions,
            "context": context,
            "config_ok": config is not None and max_messages == 4321,
        }


@dataclass(frozen=True)
class FailingTask:
    name: str

    @property
    def key(self) -> str:
        return f"fail:{self.name}"

    def run(self, network, context, config, max_messages) -> dict:
        raise RuntimeError("task exploded on purpose")


def run_pool(tasks, workers=2, context=None, faults=None, **overrides):
    parallel = ParallelConfig(
        workers=workers, task_timeout=30, max_resubmits=1, faults=faults,
        **overrides,
    )
    pool = SupervisedPool(
        small_network(), MODEL_DECISION_CONFIG, 4321, parallel,
        context=context,
    )
    with pool:
        return pool.run_tasks(tasks)


class TestRunTasks:
    def test_results_keyed_and_complete(self):
        tasks = [ProbeTask(f"t{i}") for i in range(6)]
        stats = run_pool(tasks)
        assert isinstance(stats, GenericRunStats)
        assert sorted(stats.results) == sorted(t.key for t in tasks)
        assert stats.failed == {}
        assert stats.supervision["workers"] == 2

    def test_each_task_gets_a_fresh_network(self):
        # Every probe tears a peering down after counting; with more
        # tasks than workers, an edit left behind would show a shrinking
        # count.  The worker undoes it instead of unpickling a new copy.
        stats = run_pool([ProbeTask(f"t{i}") for i in range(8)])
        assert {r["sessions"] for r in stats.results.values()} == {6}

    def test_context_is_shipped_to_workers(self):
        stats = run_pool(
            [ProbeTask("ctx")], context={"baseline": "checksum-123"}
        )
        assert stats.results["probe:ctx"]["context"] == {
            "baseline": "checksum-123"
        }
        assert stats.results["probe:ctx"]["config_ok"]

    def test_worker_metrics_fold_into_parent_registry(self):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            run_pool([ProbeTask(f"t{i}") for i in range(5)])
            assert registry.counter("probe.ticks").value == 5
        finally:
            set_registry(MetricsRegistry())

    def test_task_exception_is_poison_not_fatal(self):
        stats = run_pool([ProbeTask("ok"), FailingTask("boom")])
        assert "probe:ok" in stats.results
        failure = stats.failed["fail:boom"]
        assert isinstance(failure, TaskFailure)
        assert failure.status == POISON
        # Each dispatch is recorded by its failure class.
        assert failure.failures == ("error", "error")

    def test_injected_crash_is_poison_after_resubmits(self):
        tasks = [ProbeTask("a"), ProbeTask("b"), ProbeTask("c")]
        stats = run_pool(
            tasks,
            faults=WorkerFaults(crash_prefixes=("probe:b",)),
        )
        assert stats.failed["probe:b"].status == POISON
        assert stats.failed["probe:b"].resubmits >= 1
        assert sorted(stats.results) == ["probe:a", "probe:c"]

    def test_merge_order_is_deterministic(self):
        # Results fold in the order the tasks were submitted in, whatever
        # order they complete in; a caller wanting a sorted fold sorts.
        tasks = [ProbeTask(f"t{i}") for i in range(6)]
        first = list(run_pool(tasks).results)
        second = list(run_pool(tasks, workers=3).results)
        assert first == second == sorted(first)
        backwards = list(run_pool(tasks[::-1], workers=3).results)
        assert backwards == first[::-1]


@dataclass(frozen=True)
class Ahead:
    """A context that names prefixes for each worker's copy to converge."""

    converged_ahead: tuple


class TestConvergedAheadAtStartup:
    PREFIX = Prefix("10.0.0.0/24")

    def test_a_worker_beats_while_it_converges_ahead(self, monkeypatch):
        """Startup longer than the heartbeat grace is busy, not stalled."""
        import time

        from repro.parallel import supervisor, worker

        simulate = worker.simulate_prefix_bounded

        def slowly(*args, **kwargs):
            time.sleep(2.5)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(supervisor, "HEARTBEAT_GRACE", 1.0)
        monkeypatch.setattr(worker, "simulate_prefix_bounded", slowly)
        stats = run_pool(
            [ProbeTask("a"), ProbeTask("b")], context=Ahead((self.PREFIX,))
        )
        assert sorted(stats.results) == ["probe:a", "probe:b"]
        assert stats.supervision["deaths"] == 0

    def test_startup_metrics_come_home_with_ready(self):
        """A copy's convergence belongs to no task; it is counted all the
        same, once for every worker that reported ready."""
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            run_pool(
                [ProbeTask(f"t{i}") for i in range(4)],
                context=Ahead((self.PREFIX,)),
            )
            counters = registry.snapshot()["counters"]
        finally:
            set_registry(MetricsRegistry())
        assert counters["engine.converged_ahead"] in (1, 2)
        assert counters["engine.prefixes"] == counters["engine.converged_ahead"]
        assert counters["probe.ticks"] == 4
