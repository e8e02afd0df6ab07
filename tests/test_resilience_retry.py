"""Tests for the one bounded attempt per prefix and divergence quarantine."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.engine import EngineStats
from repro.bgp.network import Network
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.net.prefix import Prefix
from repro.resilience.faults import FaultConfig, apply_faults, inject_dispute_wheel
from repro.resilience.retry import (
    CONVERGED,
    DIVERGED,
    simulate_network_bounded,
    simulate_prefix_bounded,
)
from tests.test_bgp_engine_golden import canonical_dump


def gadget_network(wheel_asns=(1, 2, 3), extra_spokes=0, origin_asn=4):
    """Hub-and-spoke network with the wheel ASes forming a triangle."""
    net = Network("gadget")
    spokes = {asn: net.add_router(asn) for asn in wheel_asns}
    hub = net.add_router(origin_asn)
    prefix = Prefix("10.0.0.0/24")
    net.originate(hub, prefix)
    for router in spokes.values():
        net.connect(router, hub)
    ring = list(wheel_asns)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        net.connect(spokes[a], spokes[b])
    for index in range(extra_spokes):
        net.connect(net.add_router(1000 + index), hub)
    return net, prefix


class TestClassification:
    def test_healthy_prefix_is_converged_first_try(self):
        net, prefix = gadget_network()
        stats, outcome = simulate_prefix_bounded(net, prefix)
        assert outcome.status == CONVERGED
        assert outcome.attempts == 1
        assert stats.diverged == []

    def test_dispute_wheel_is_quarantined(self):
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        stats, outcome = simulate_prefix_bounded(net, prefix, max_messages=5000)
        assert outcome.status == DIVERGED
        assert outcome.attempts == 1
        assert stats.diverged == [prefix]
        assert all(r.best(prefix) is None for r in net.routers.values())

    def test_budget_cap_stops_escalation_early(self):
        """The budget is the whole cost of a divergence: one attempt, one
        message past it, nothing re-run."""
        net, prefix = gadget_network()
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        stats, outcome = simulate_prefix_bounded(net, prefix, max_messages=500)
        assert outcome.status == DIVERGED
        assert outcome.attempts == 1
        assert outcome.final_budget == 500
        assert outcome.messages == stats.messages == 501
        assert stats.budget_exhaustions == 1

    def test_network_level_run_mixes_outcomes(self):
        net, prefix = gadget_network()
        clean = Prefix("10.0.1.0/24")
        net.originate(net.routers[list(net.routers)[0]], clean)
        inject_dispute_wheel(net, prefix, (1, 2, 3))
        result = simulate_network_bounded(net, max_messages=2000)
        assert result.diverged == result.quarantined == [prefix]
        assert clean not in result.diverged
        assert result.engine.diverged == [prefix]
        assert result.attempts == 2
        document = result.to_dict()
        assert document["diverged"] == [str(prefix)]
        assert document["prefixes"] == 2
        assert document["converged"] == 1


class TestDisputeWheelProperty:
    """Any injected dispute wheel ends in quarantine — never a hang."""

    @settings(max_examples=20, deadline=None)
    @given(
        wheel_asns=st.permutations((1, 2, 3)),
        extra_spokes=st.integers(min_value=0, max_value=3),
        budget=st.integers(min_value=10, max_value=50_000),
    )
    def test_wheel_always_quarantined_within_deadline(
        self, wheel_asns, extra_spokes, budget
    ):
        net, prefix = gadget_network(extra_spokes=extra_spokes)
        inject_dispute_wheel(net, prefix, tuple(wheel_asns))
        stats, outcome = simulate_prefix_bounded(net, prefix, max_messages=budget)
        assert outcome.status == DIVERGED
        assert outcome.attempts == 1
        assert outcome.elapsed < 30.0
        assert outcome.messages == budget + 1
        assert stats.diverged == [prefix]
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
Loc-RIB and Adj-RIB-Out entry), recorded at the parent commit (05c08fa)
under its default escalating ladder (3 attempts x 4 growth, 2M cap)."""


class TestVerdictPreservation:
    """One attempt at the ladder's last rung reaches the ladder's verdicts."""

    @pytest.mark.parametrize("seed", sorted(PARENT_VERDICTS))
    def test_default_budget_reproduces_the_ladder(self, seed):
        # The FAST_CHAOS world of tests/test_resilience_health.py, per seed.
        network = synthesize_internet(SyntheticConfig(seed=seed).scaled(0.12)).network
        apply_faults(
            network, FaultConfig(seed=seed, dispute_wheels=2, session_flaps=1)
        )
        stats = simulate_network_bounded(network)
        quarantined, ribs_sha = PARENT_VERDICTS[seed]
        assert [str(prefix) for prefix in stats.quarantined] == quarantined
        ribs = [
            line
            for line in canonical_dump(network, EngineStats())
            if line.startswith(("in ", "out ", "loc "))
        ]
        assert hashlib.sha256("\n".join(ribs).encode()).hexdigest() == ribs_sha
        for outcome in stats.outcomes:
            assert outcome.attempts == 1
            if outcome.status == DIVERGED:
                assert outcome.messages == outcome.final_budget + 1
