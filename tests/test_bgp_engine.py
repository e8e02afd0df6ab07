"""Integration tests for the propagation engine (eBGP-only topologies)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import DecisionConfig, Network, simulate, simulate_prefix
from repro.bgp.engine import DIVERGED, EngineStats, Quarantine, bounded_message_budget
from repro.bgp.policy import Action, Clause, Match
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import SimulationError
from repro.net.community import NO_ADVERTISE, NO_EXPORT
from repro.net.prefix import Prefix
from repro.resilience.faults import FaultConfig, apply_faults, inject_dispute_wheel
from repro.resilience.health import RunHealth
from tests.oracle import canonical_dump, gadget_network

PREFIX = Prefix("10.0.0.0/24")


class TestBasicPropagation:
    def test_direct_neighbor_learns_route(self, line):
        net, routers, prefix = line
        simulate(net)
        best = routers[1].best(prefix)
        assert best is not None
        assert best.as_path == (3,)

    def test_shortest_path_preferred(self, line):
        net, routers, prefix = line
        simulate(net)
        # AS1 sees both (3,) and (2, 3); shortest wins
        paths = {route.as_path for route in routers[1].rib_in_routes(prefix)}
        assert paths == {(3,), (2, 3)}
        assert routers[1].best(prefix).as_path == (3,)

    def test_as_path_prepending_on_export(self, diamond):
        net, routers, prefix = diamond
        simulate(net)
        assert routers[2].best(prefix).as_path == (4,)
        assert routers[1].best(prefix).as_path in ((2, 4), (3, 4))

    def test_loop_prevention(self, diamond):
        net, routers, prefix = diamond
        simulate(net)
        # AS4's own paths never contain AS4 twice
        for router in net.routers.values():
            for route in router.rib_in_routes(prefix):
                assert router.asn not in route.as_path

    def test_tie_break_lowest_router_id(self, diamond):
        net, routers, prefix = diamond
        simulate(net)
        # AS1 gets (2,4) from AS2 and (3,4) from AS3; AS2's router id is lower
        assert routers[1].best(prefix).as_path == (2, 4)

    def test_adj_rib_out_reflects_best(self, line):
        net, routers, prefix = line
        simulate(net)
        rib_out = routers[3].adj_rib_out[prefix]
        assert rib_out  # origin announced to peers
        for route in rib_out.values():
            assert route.as_path == (3,)

    def test_simulation_is_deterministic(self, diamond):
        net, routers, prefix = diamond
        simulate(net)
        first = {rid: r.best(prefix).as_path if r.best(prefix) else None
                 for rid, r in net.routers.items()}
        simulate(net)
        second = {rid: r.best(prefix).as_path if r.best(prefix) else None
                  for rid, r in net.routers.items()}
        assert first == second

    def test_resimulation_clears_stale_state(self, line):
        net, routers, prefix = line
        simulate(net)
        net.disconnect(routers[1], routers[3])
        simulate_prefix(net, prefix)
        assert routers[1].best(prefix).as_path == (2, 3)


class TestPolicies:
    def test_export_filter_blocks_route(self, line):
        net, routers, prefix = line
        session = net.get_session(routers[3], routers[1])
        session.ensure_export_map().append(Clause(Match(prefix=prefix), Action.DENY))
        simulate(net)
        assert routers[1].best(prefix).as_path == (2, 3)

    def test_import_filter_blocks_route(self, line):
        net, routers, prefix = line
        session = net.get_session(routers[3], routers[1])
        session.ensure_import_map().append(Clause(Match(prefix=prefix), Action.DENY))
        simulate(net)
        assert routers[1].best(prefix).as_path == (2, 3)

    def test_path_length_filter(self, line):
        net, routers, prefix = line
        session = net.get_session(routers[3], routers[1])
        session.ensure_export_map().append(
            Clause(Match(prefix=prefix, path_len_lt=2), Action.DENY)
        )
        simulate(net)
        assert routers[1].best(prefix).as_path == (2, 3)

    def test_local_pref_overrides_length(self, line):
        net, routers, prefix = line
        session = net.get_session(routers[2], routers[1])
        session.ensure_import_map().append(
            Clause(Match(prefix=prefix), set_local_pref=200)
        )
        simulate(net)
        assert routers[1].best(prefix).as_path == (2, 3)

    def test_med_rank_with_always_compare(self, diamond):
        net, routers, prefix = diamond
        # Prefer the AS3 branch at AS1 via lower MED
        net.get_session(routers[3], routers[1]).ensure_import_map().append(
            Clause(Match(prefix=prefix), set_med=0)
        )
        net.get_session(routers[2], routers[1]).ensure_import_map().append(
            Clause(Match(prefix=prefix), set_med=50)
        )
        simulate(net, config=DecisionConfig(med_always_compare=True))
        assert routers[1].best(prefix).as_path == (3, 4)

    def test_med_reset_on_ebgp_export(self, line):
        net, routers, prefix = line
        # AS3 sets MED toward AS2; AS2's re-export to AS1 must reset it
        net.get_session(routers[3], routers[2]).ensure_export_map().append(
            Clause(Match(prefix=prefix), set_med=77)
        )
        simulate(net)
        via_as2 = [
            r for r in routers[1].rib_in_routes(prefix) if r.as_path == (2, 3)
        ]
        assert via_as2 and via_as2[0].med == 0

    def test_withdraw_on_filter_addition_and_resim(self, line):
        net, routers, prefix = line
        simulate(net)
        assert routers[1].best(prefix).as_path == (3,)
        session = net.get_session(routers[3], routers[1])
        session.ensure_export_map().append(Clause(Match(prefix=prefix), Action.DENY))
        simulate_prefix(net, prefix)
        assert routers[1].best(prefix).as_path == (2, 3)


class TestCommunities:
    def test_no_export_stops_at_first_as(self, line):
        net, routers, prefix = line
        # attach NO_EXPORT on AS3 -> AS2 announcements
        net.get_session(routers[3], routers[2]).ensure_import_map().append(
            Clause(Match(prefix=prefix), add_communities=frozenset((NO_EXPORT,)))
        )
        # block the direct AS3 -> AS1 session so AS1 would depend on AS2
        net.get_session(routers[3], routers[1]).ensure_export_map().append(
            Clause(Match(prefix=prefix), Action.DENY)
        )
        simulate(net)
        assert routers[2].best(prefix) is not None
        assert routers[1].best(prefix) is None

    def test_communities_propagate_transitively(self, line):
        net, routers, prefix = line
        net.get_session(routers[3], routers[2]).ensure_import_map().append(
            Clause(Match(prefix=prefix), add_communities=frozenset((42,)))
        )
        simulate(net)
        via_as2 = [
            r for r in routers[1].rib_in_routes(prefix) if r.as_path == (2, 3)
        ]
        assert via_as2 and 42 in via_as2[0].communities

    def test_no_advertise_stops_everywhere(self, line):
        net, routers, prefix = line
        for dst in (routers[1], routers[2]):
            net.get_session(routers[3], dst).ensure_import_map().append(
                Clause(Match(prefix=prefix), add_communities=frozenset((NO_ADVERTISE,)))
            )
        simulate(net)
        # AS1 and AS2 learn the direct route but must not re-advertise it
        assert routers[1].best(prefix).as_path == (3,)
        paths_at_1 = {r.as_path for r in routers[1].rib_in_routes(prefix)}
        assert (2, 3) not in paths_at_1


class TestDivergenceGuard:
    def test_dispute_wheel_raises(self):
        """The classic BAD GADGET: three ASes each prefer the long way round."""
        net = Network("bad-gadget")
        hub = net.add_router(4)
        spokes = {asn: net.add_router(asn) for asn in (1, 2, 3)}
        prefix = Prefix("10.9.0.0/24")
        net.originate(hub, prefix)
        cycle = {1: 2, 2: 3, 3: 1}
        for asn, router in spokes.items():
            net.connect(router, hub)
        for asn, next_asn in cycle.items():
            net.connect(spokes[asn], spokes[next_asn])
        for asn, next_asn in cycle.items():
            session = net.get_session(spokes[next_asn], spokes[asn])
            session.ensure_import_map().append(
                Clause(Match(prefix=prefix), set_local_pref=200)
            )
        with pytest.raises(SimulationError):
            simulate(net, max_messages=5000)

    def test_stats_track_messages_per_prefix(self, line):
        net, routers, prefix = line
        stats = simulate(net)
        assert stats.prefixes == 1
        assert stats.messages > 0
        assert stats.per_prefix_messages[prefix] == stats.messages


def quarantining(net, prefixes=None, max_messages=None):
    return simulate(net, prefixes, max_messages=max_messages, on_divergence="quarantine")


class TestQuarantine:
    """``simulate(on_divergence="quarantine")``: one bounded run per prefix."""

    def test_healthy_prefix_is_converged_first_try(self):
        net, prefix = gadget_network()
        stats = quarantining(net, [prefix])
        assert stats.prefixes == 1
        assert stats.quarantined == stats.diverged == []

    def test_dispute_wheel_is_quarantined(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        stats = quarantining(net, [prefix], max_messages=5000)
        assert stats.prefixes == 1
        assert stats.diverged == [prefix]
        assert all(r.best(prefix) is None for r in net.routers.values())

    def test_the_budget_is_the_whole_cost_of_a_divergence(self):
        """One run, one message past the budget, nothing re-run."""
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        stats = quarantining(net, [prefix], max_messages=500)
        assert stats.quarantined == [Quarantine(prefix, DIVERGED, 501, 500)]
        assert stats.messages == 501
        assert stats.budget_exhaustions == 1

    def test_the_bounded_budget_is_sixteen_engine_defaults(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        budget = bounded_message_budget(net)
        assert budget == 16 * (2000 + 400 * len(net.sessions))
        assert bounded_message_budget(net, 500) == 500
        (quarantine,) = quarantining(net, [prefix], budget).quarantined
        assert quarantine.budget == budget

    def test_network_level_run_mixes_outcomes(self):
        net, prefix = gadget_network()
        clean = Prefix("10.0.1.0/24")
        net.originate(net.routers[list(net.routers)[0]], clean)
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        stats = quarantining(net, max_messages=2000)
        assert stats.diverged == [prefix]
        assert [q.prefix for q in stats.quarantined] == [prefix]
        health = RunHealth()
        health.record_simulation(stats)
        document = health.simulation
        assert document["diverged"] == [str(prefix)]
        assert document["prefixes"] == document["attempts"] == 2
        assert document["converged"] == 1


class TestDisputeWheelProperty:
    """Any injected dispute wheel ends in quarantine — never a hang."""

    @settings(max_examples=20, deadline=None)
    @given(
        wheel_asns=st.permutations((1, 2, 3)),
        extra_spokes=st.integers(min_value=0, max_value=3),
        budget=st.integers(min_value=10, max_value=50_000),
    )
    def test_wheel_always_quarantined_within_its_budget(
        self, wheel_asns, extra_spokes, budget
    ):
        net, prefix = gadget_network(extra_spokes=extra_spokes)
        inject_dispute_wheel(net, prefix, tuple(wheel_asns))
        stats = quarantining(net, [prefix], max_messages=budget)
        assert stats.quarantined == [Quarantine(prefix, DIVERGED, budget + 1, budget)]
        assert stats.messages == budget + 1
        # quarantine: no residual routing state anywhere
        assert all(r.best(prefix) is None for r in net.routers.values())


PARENT_VERDICTS = {
    0: (
        ["39.33.1.0/24"],
        "b891631b913fa02bde483b1169a2be0dea6ca1deaeb11082e0b6f8f9b009020a",
    ),
    1: (
        ["39.22.1.0/24", "39.32.1.0/24"],
        "9eaad1da6e62b657343b510a0ffaaf4514aa82f7059f9f4933c43897832ea373",
    ),
    2: ([], "e117994f52c04875304955c636e88e5febd7fc57698ac029d757ee9adad4f205"),
}
"""Chaos-world seed -> (quarantined prefixes, SHA-256 over every Adj-RIB-In,
Loc-RIB and Adj-RIB-Out entry), recorded at 05c08fa under its default
escalating ladder (3 attempts x 4 growth, 2M cap)."""


class TestVerdictPreservation:
    """One run at the ladder's last rung reaches the ladder's verdicts."""

    @pytest.mark.parametrize("seed", sorted(PARENT_VERDICTS))
    def test_default_budget_reproduces_the_ladder(self, seed):
        # The FAST_CHAOS world of tests/test_resilience_health.py, per seed.
        network = synthesize_internet(SyntheticConfig(seed=seed).scaled(0.12)).network
        apply_faults(
            network, FaultConfig(seed=seed, dispute_wheels=2, session_flaps=1)
        )
        stats = quarantining(network, max_messages=bounded_message_budget(network))
        quarantined, ribs_sha = PARENT_VERDICTS[seed]
        assert [str(q.prefix) for q in sorted(stats.quarantined)] == quarantined
        ribs = [
            line
            for line in canonical_dump(network, EngineStats())
            if line.startswith(("in ", "out ", "loc "))
        ]
        assert hashlib.sha256("\n".join(ribs).encode()).hexdigest() == ribs_sha
        assert stats.prefixes == len(network.prefixes())
        for quarantine in stats.quarantined:
            assert quarantine.messages == quarantine.budget + 1
