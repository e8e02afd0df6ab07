"""Tests for the static safety pass: dispute-digraph wheel detection."""

import io

import pytest

from repro.analysis.analyzer import analyze_model
from repro.analysis.safety import analyze_safety, collect_preference_edges
from repro.analysis.safety import (
    RULE_DISPUTE_WHEEL,
    RULE_MED_CYCLE,
    RULE_MUTUAL_PREFERENCE,
    strongly_connected_components,
    unsafe_prefixes,
)
from repro.bgp.engine import simulate, simulate_prefix
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.cbgp.export import export_network
from repro.cbgp.parse import parse_script
from repro.core.build import build_initial_model
from repro.core.refine import Refiner, RefinementConfig
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import ConvergenceError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, prefix_for_asn
from repro.resilience.faults import FaultConfig, apply_faults, inject_dispute_wheel
from repro.resilience.health import EXIT_DIVERGED, RunHealth
from repro.resilience.retry import ResilienceStats
from repro.topology.dataset import ObservedRoute, PathDataset


def gadget_network(extra_spokes: int = 0):
    """Hub originating a prefix, three wheel spokes, optional bystanders."""
    net = Network("gadget")
    spokes = {asn: net.add_router(asn) for asn in (1, 2, 3)}
    hub = net.add_router(4)
    prefix = Prefix("10.0.0.0/24")
    net.originate(hub, prefix)
    for router in spokes.values():
        net.connect(router, hub)
    for a, b in ((1, 2), (2, 3), (3, 1)):
        net.connect(spokes[a], spokes[b])
    for index in range(extra_spokes):
        bystander = net.add_router(100 + index)
        net.connect(bystander, hub)
    return net, prefix


class TestTarjan:
    def test_acyclic_graph_has_singleton_components(self):
        graph = {1: {2}, 2: {3}, 3: set()}
        components = strongly_connected_components(graph)
        assert sorted(map(sorted, components)) == [[1], [2], [3]]

    def test_cycle_is_one_component(self):
        graph = {1: {2}, 2: {3}, 3: {1}, 4: {1}}
        components = {tuple(sorted(c)) for c in strongly_connected_components(graph)}
        assert (1, 2, 3) in components
        assert (4,) in components

    def test_two_disjoint_cycles(self):
        graph = {1: {2}, 2: {1}, 3: {4}, 4: {3}}
        components = {tuple(sorted(c)) for c in strongly_connected_components(graph)}
        assert components == {(1, 2), (3, 4)}

    def test_edges_to_unknown_nodes_ignored(self):
        graph = {1: {2, 99}, 2: {1}}
        components = {tuple(sorted(c)) for c in strongly_connected_components(graph)}
        assert components == {(1, 2)}

    def test_deep_chain_does_not_recurse(self):
        n = 5000
        graph = {i: {i + 1} for i in range(n)}
        graph[n] = {0}
        components = strongly_connected_components(graph)
        assert max(len(c) for c in components) == n + 1


class TestWheelDetection:
    def test_clean_gadget_has_no_findings(self):
        net, _ = gadget_network()
        assert analyze_safety(net) == []
        assert unsafe_prefixes(net) == []

    def test_injected_wheel_is_flagged_as_error(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        findings = analyze_safety(net)
        wheels = [f for f in findings if f.rule == RULE_DISPUTE_WHEEL]
        assert len(wheels) == 1
        assert wheels[0].prefix == prefix
        assert set(wheels[0].asns) == {1, 2, 3}
        assert wheels[0].clauses  # names the participating clauses
        assert unsafe_prefixes(net) == [prefix]

    def test_static_verdict_matches_simulation_divergence(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        assert unsafe_prefixes(net) == [prefix]
        with pytest.raises(ConvergenceError):
            simulate_prefix(net, prefix, max_messages=5000)

    def test_wheel_survives_config_round_trip(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        buffer = io.StringIO()
        export_network(net, buffer)
        reparsed = parse_script(io.StringIO(buffer.getvalue()))
        assert unsafe_prefixes(reparsed) == [prefix]

    def test_preference_edges_describe_the_wheel(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        edges = [e for e in collect_preference_edges(net) if e.kind == "local-pref"]
        assert {(e.asn, e.neighbor_asn) for e in edges} == {(1, 2), (2, 3), (3, 1)}
        assert all(e.prefix == prefix for e in edges)

    def test_shadowed_wheel_clause_creates_no_edge(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        # A deny-everything clause prepended in front of each wheel clause
        # makes the local-pref raise unreachable: the digraph must be empty.
        for session in net.ebgp_sessions():
            if session.import_map is not None and len(session.import_map):
                session.import_map.prepend(Clause(Match(), Action.DENY))
        assert analyze_safety(net) == []

    def test_disagree_gadget_is_warning_not_error(self):
        net = Network("disagree")
        a = net.add_router(1)
        b = net.add_router(2)
        hub = net.add_router(3)
        prefix = Prefix("10.0.0.0/24")
        net.originate(hub, prefix)
        net.connect(a, hub)
        net.connect(b, hub)
        net.connect(a, b)
        for src, dst in ((b, a), (a, b)):
            session = net.get_session(src, dst)
            session.ensure_import_map().append(
                Clause(Match(prefix=prefix), set_local_pref=200)
            )
        findings = analyze_safety(net)
        assert [f.rule for f in findings] == [RULE_MUTUAL_PREFERENCE]
        assert findings[0].severity.name == "WARNING"
        assert unsafe_prefixes(net) == []

    def test_med_preference_cycle_is_warning(self):
        net = Network("medcycle")
        routers = {asn: net.add_router(asn) for asn in (1, 2, 3)}
        hub = net.add_router(4)
        prefix = Prefix("10.0.0.0/24")
        net.originate(hub, prefix)
        for router in routers.values():
            net.connect(router, hub)
        for a, b in ((1, 2), (2, 3), (3, 1)):
            net.connect(routers[a], routers[b])
        # Each spoke MED-ranks the next spoke's session strictly best.
        for asn, preferred in ((1, 2), (2, 3), (3, 1)):
            owner = routers[asn]
            for session in owner.sessions_in:
                med = 0 if session.src.asn == preferred else 50
                session.ensure_import_map().append(
                    Clause(Match(prefix=prefix), set_med=med)
                )
        findings = analyze_safety(net)
        assert [f.rule for f in findings] == [RULE_MED_CYCLE]
        assert findings[0].severity.name == "WARNING"
        assert unsafe_prefixes(net) == []

    def test_global_local_pref_cycle_scopes_to_every_prefix(self):
        net, prefix = gadget_network()
        other = Prefix("11.0.0.0/24")
        net.originate(net.routers[min(net.routers)], other)
        for asn, preferred in ((1, 2), (2, 3), (3, 1)):
            for router in net.as_routers(asn):
                for session in router.sessions_in:
                    if session.src.asn == preferred:
                        session.ensure_import_map().append(
                            Clause(Match(), set_local_pref=300)
                        )
        assert set(unsafe_prefixes(net)) == set(net.prefixes())


class TestNoFalsePositives:
    def test_gao_rexford_synthetic_internet_is_clean(self):
        internet = synthesize_internet(SyntheticConfig(seed=11).scaled(0.12))
        assert analyze_safety(internet.network) == []

    def test_refined_training_model_is_clean(self):
        routes = []
        for observer in (8, 9):
            routes.append(
                ObservedRoute("p%d" % observer, observer,
                              prefix_for_asn(4), ASPath((observer, 1, 4)))
            )
            routes.append(
                ObservedRoute("p%d" % observer, observer,
                              prefix_for_asn(4), ASPath((observer, 2, 4)))
            )
        routes.append(
            ObservedRoute("p8", 8, prefix_for_asn(4), ASPath((8, 1, 2, 4)))
        )
        dataset = PathDataset(routes)
        model = build_initial_model(dataset)
        result = Refiner(model, dataset).run()
        assert result.converged
        # the refiner installed MED rankings and deny filters...
        assert result.model.policy_clause_count() > 0
        # ...and none of them register as a safety problem
        assert analyze_safety(result.model.network) == []
        report = analyze_model(result.model, dataset=dataset)
        assert report.errors == []


class TestInjectedWheelSweep:
    def test_every_injected_wheel_found_and_divergence_is_subset(self):
        internet = synthesize_internet(SyntheticConfig(seed=7).scaled(0.15))
        report = apply_faults(
            internet.network, FaultConfig(seed=7, dispute_wheels=3)
        )
        assert report.wheels, "fault injection found no usable triangles"
        injected = {Prefix(text) for text, _ in report.wheels}
        flagged = set(unsafe_prefixes(internet.network))
        # 100% of injected wheels detected statically, nothing else flagged
        assert flagged == injected
        # cross-validate: whatever actually diverges is within the flagged set
        stats = simulate(internet.network, on_divergence="quarantine")
        assert set(stats.diverged) <= flagged


class TestLintGateVsQuarantine:
    def _training(self):
        routes = []
        for path in ((9, 1, 4), (9, 2, 4), (9, 3, 4),
                     (9, 1, 2, 4), (9, 2, 3, 4), (9, 3, 1, 4)):
            routes.append(
                ObservedRoute("p9", 9, prefix_for_asn(4), ASPath(path))
            )
        return PathDataset(routes)

    def _refined(self, lint_gate: bool):
        dataset = self._training()
        model = build_initial_model(dataset)
        wheel_prefix = model.canonical_prefix(4)
        inject_dispute_wheel(model.network, wheel_prefix, (1, 2, 3))
        refiner = Refiner(
            model,
            dataset,
            RefinementConfig(max_messages=8000, lint_gate=lint_gate),
        )
        refiner.run()
        return wheel_prefix, ResilienceStats(outcomes=refiner.outcomes)

    def test_gate_spends_strictly_fewer_attempts(self):
        wheel, plain = self._refined(lint_gate=False)
        _, gated = self._refined(lint_gate=True)
        assert wheel in plain.diverged
        assert plain.unsafe == []
        assert gated.unsafe == [wheel]
        assert gated.diverged == []
        # the gated outcome spent nothing on the wheel prefix
        gated_outcome = next(o for o in gated.outcomes if o.prefix == wheel)
        assert gated_outcome.attempts == 0
        assert gated_outcome.messages == 0
        assert gated.attempts < plain.attempts

    def test_run_health_shows_the_saving(self):
        _, plain = self._refined(lint_gate=False)
        wheel, gated = self._refined(lint_gate=True)
        health_plain, health_gated = RunHealth(), RunHealth()
        health_plain.record_simulation(plain)
        health_gated.record_simulation(gated)
        plain_sim = health_plain.to_dict()["simulation"]
        gated_sim = health_gated.to_dict()["simulation"]
        assert gated_sim["attempts"] < plain_sim["attempts"]
        assert gated_sim["unsafe"] == [str(wheel)]
        assert plain_sim["unsafe"] == []
        # both degrade the model, so both map to the diverged exit code
        assert health_plain.exit_code == EXIT_DIVERGED
        assert health_gated.exit_code == EXIT_DIVERGED
