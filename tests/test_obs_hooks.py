"""Tests for the trace/metrics hooks in engine, quarantine and refine.

Covers satellite (c): budget-exhaustion accounting must be visible —
a starved ``simulate_prefix`` is reported through a trace event, a
registry counter and ``EngineStats.budget_exhaustions``, never silently
truncated.
"""

import pickle

import pytest

from repro.bgp.engine import (
    DIVERGED,
    EngineStats,
    Quarantine,
    resume_prefix,
    simulate,
    simulate_prefix,
)
from repro.bgp.network import Network
from repro.core.build import build_initial_model
from repro.core.refine import RefinementConfig, Refiner
from repro.errors import ConvergenceError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import (
    EVENT_BUDGET_EXHAUSTED,
    EVENT_DECISION,
    EVENT_POLICY_INSTALL,
    EVENT_QUARANTINE,
    RecordingTracer,
    tracing,
)
from repro.resilience.faults import inject_dispute_wheel
from repro.resilience.health import RunHealth
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.oracle import gadget_network


@pytest.fixture
def registry():
    """A fresh global registry for the duration of one test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def line_network(length=4):
    """AS1 - AS2 - ... - ASn chain originating at ASn."""
    net = Network("line")
    routers = [net.add_router(asn) for asn in range(1, length + 1)]
    for left, right in zip(routers, routers[1:]):
        net.connect(left, right)
    prefix = Prefix("10.0.0.0/24")
    net.originate(routers[-1], prefix)
    return net, prefix


class TestBudgetExhaustionVisibility:
    def test_starved_simulation_raises_with_counter_and_event(self, registry):
        net, prefix = line_network()
        tracer = RecordingTracer()
        with tracing(tracer):
            with pytest.raises(ConvergenceError):
                simulate_prefix(net, prefix, max_messages=1)
        assert registry.counter("engine.budget_exhausted").value == 1
        (event,) = tracer.events(EVENT_BUDGET_EXHAUSTED)
        assert event["prefix"] == str(prefix)
        assert event["budget"] == 1
        assert event["messages"] > event["budget"]

    def test_quarantine_mode_reports_in_stats(self, registry):
        net, prefix = line_network()
        stats = simulate(net, max_messages=1, on_divergence="quarantine")
        assert stats.budget_exhaustions == 1
        assert stats.diverged == [prefix]
        assert stats.per_prefix_messages[prefix] > 1

    def test_diverged_prefix_reports_all_attempts(self, registry):
        # triangle 1-2-3 around an originating hub AS4: the classic gadget
        net = Network("gadget")
        spokes = {asn: net.add_router(asn) for asn in (1, 2, 3)}
        hub = net.add_router(4)
        prefix = Prefix("10.0.0.0/24")
        net.originate(hub, prefix)
        for router in spokes.values():
            net.connect(router, hub)
        for a, b in ((1, 2), (2, 3), (3, 1)):
            net.connect(spokes[a], spokes[b])
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        tracer = RecordingTracer()
        with tracing(tracer):
            stats = simulate(
                net, [prefix], max_messages=100, on_divergence="quarantine"
            )
        assert stats.quarantined == [Quarantine(prefix, DIVERGED, 101, 100)]
        assert stats.budget_exhaustions == 1
        assert registry.counter("retry.quarantined").value == 1
        (event,) = tracer.events(EVENT_QUARANTINE)
        assert event["prefix"] == str(prefix)
        assert event["messages"] == 101
        assert event["final_budget"] == 100

    def test_quarantined_work_is_counted_like_converged_work(self, registry):
        """The prefix that burnt its budget is in every total: the stats
        ``simulate`` returns and the registry agree counter for counter,
        with a healthy prefix simulated beside the dispute wheel."""
        net, wheel = gadget_network()
        healthy = Prefix("10.0.1.0/24")
        net.originate(net.as_routers(1)[0], healthy)
        inject_dispute_wheel(net, wheel, (1, 2, 3))
        stats = simulate(net, max_messages=300, on_divergence="quarantine")
        assert stats.diverged == [wheel]
        assert stats.budget_exhaustions == 1
        assert stats.per_prefix_messages[wheel] == 301
        assert stats.prefixes == 2
        snapshot = registry.snapshot()
        assert {
            name: snapshot["counters"][f"engine.{name}"]
            for name in (
                "prefixes", "messages", "decisions", "candidates_ranked",
                "clauses_evaluated", "clauses_matched",
            )
        } == {
            "prefixes": stats.prefixes,
            "messages": stats.messages,
            "decisions": stats.decisions,
            "candidates_ranked": stats.candidates_ranked,
            "clauses_evaluated": stats.clauses_evaluated,
            "clauses_matched": stats.clauses_matched,
        }
        per_prefix = snapshot["histograms"]["engine.messages_per_prefix"]
        assert per_prefix["count"] == 2
        assert per_prefix["max"] == 301
        # ... and the wheel's share is really in there, not just the
        # healthy prefix counted twice over.
        alone = simulate(net, [healthy])
        assert stats.messages == alone.messages + 301
        assert stats.decisions > alone.decisions + 250
        assert stats.candidates_ranked > alone.candidates_ranked + 250
        assert stats.clauses_matched > alone.clauses_matched + 100

    def test_budget_exhaustions_surface_in_resilience_to_dict(self, registry):
        net, prefix = line_network()
        stats = simulate(net, max_messages=1, on_divergence="quarantine")
        health = RunHealth()
        health.record_simulation(stats)
        document = health.simulation
        assert document["budget_exhaustions"] == stats.budget_exhaustions
        assert document["budget_exhaustions"] == 1
        assert document["diverged"] == [str(prefix)]

    def test_stats_merge_folds_exhaustions(self):
        a = EngineStats(budget_exhaustions=2, candidates_ranked=7, resumes=1)
        a.merge(EngineStats(budget_exhaustions=3, candidates_ranked=11, resumes=4))
        assert a.budget_exhaustions == 5
        assert a.candidates_ranked == 18
        assert a.resumes == 5
        assert pickle.loads(pickle.dumps(a)) == a


class TestEngineTracing:
    def test_decision_events_emitted_while_tracing(self):
        net, prefix = line_network()
        tracer = RecordingTracer()
        with tracing(tracer):
            simulate_prefix(net, prefix)
        events = tracer.events(EVENT_DECISION)
        assert events
        assert all(e["prefix"] == str(prefix) for e in events)
        routers = {e["router"] for e in events}
        assert "AS1.r1" in routers

    def test_tracing_does_not_change_results(self, registry):
        net_plain, prefix = line_network(length=5)
        plain = simulate_prefix(net_plain, prefix)
        net_traced, _ = line_network(length=5)
        with tracing(RecordingTracer()):
            traced = simulate_prefix(net_traced, prefix)
        assert plain.messages == traced.messages
        assert plain.decisions == traced.decisions
        for router_id, router in net_plain.routers.items():
            mine = router.best(prefix)
            theirs = net_traced.routers[router_id].best(prefix)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine.as_path == theirs.as_path

    def test_a_decision_that_leaves_no_route_is_traced(self):
        """The withdrawal that cutting AS1 - AS2 sends down the line empties
        every router it reaches, and each of those decisions says so."""
        net = Network("line")
        routers = [net.add_router(asn) for asn in range(1, 5)]
        for left, right in zip(routers, routers[1:]):
            net.connect(left, right)
        prefix = Prefix("10.0.0.0/24")
        net.originate(routers[0], prefix)
        simulate(net)
        dropped = net.disconnect(routers[0], routers[1])
        tracer = RecordingTracer()
        with tracing(tracer):
            stats = resume_prefix(net, prefix, dropped=dropped)
        assert stats.decisions == 3
        assert [
            (e["router"], e["candidates"], e["best"], e["step"])
            for e in tracer.events(EVENT_DECISION)
        ] == [(router.name, 0, None, None) for router in routers[1:]]

    def test_engine_metrics_recorded(self, registry):
        net, prefix = line_network()
        simulate_prefix(net, prefix)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.prefixes"] == 1
        assert snapshot["counters"]["engine.messages"] > 0
        assert snapshot["histograms"]["engine.messages_per_prefix"]["count"] == 1


class TestRefineObservability:
    @staticmethod
    def _training():
        P = Prefix("10.0.0.0/24")
        full = PathDataset()
        for index, path in enumerate(((1, 3, 4), (1, 2, 4))):
            full.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
        training = PathDataset()
        training.add(ObservedRoute("t0", 1, P, ASPath((1, 3, 4))))
        return full, training

    def test_iteration_spans_and_install_events(self, registry):
        full, training = self._training()
        model = build_initial_model(full)
        tracer = RecordingTracer()
        with tracing(tracer):
            result = Refiner(model, training, RefinementConfig()).run()
        assert result.converged
        spans = tracer.spans("refine-iteration")
        assert len(spans) == result.iteration_count
        installs = tracer.events(EVENT_POLICY_INSTALL)
        assert installs
        assert all(e["iteration"] >= 1 for e in installs)

    def test_refine_metrics_recorded(self, registry):
        full, training = self._training()
        model = build_initial_model(full)
        result = Refiner(model, training, RefinementConfig()).run()
        snapshot = registry.snapshot()
        assert (
            snapshot["counters"]["refine.iterations"] == result.iteration_count
        )
        assert snapshot["counters"]["refine.policies_installed"] > 0
        assert snapshot["gauges"]["refine.match_rate"] == 1.0
        assert (
            snapshot["histograms"]["refine.iteration_seconds"]["count"]
            == result.iteration_count
        )

    def test_installed_clauses_stamped_with_iteration(self, registry):
        full, training = self._training()
        model = build_initial_model(full)
        Refiner(model, training, RefinementConfig()).run()
        stamped = [
            clause.iteration
            for session in model.network.sessions.values()
            for route_map in (session.import_map, session.export_map)
            if route_map is not None
            for clause in route_map.clauses()
            if clause.tag is not None
        ]
        assert stamped
        assert all(iteration >= 1 for iteration in stamped)
