"""Unit tests for repro.bgp.network and repro.bgp.router."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.engine import EngineStats, resume_prefix, simulate, simulate_prefix
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.bgp.router import (
    format_router_id,
    make_router_id,
    router_id_asn,
    router_id_index,
)
from repro.core.model import MODEL_DECISION_CONFIG
from repro.errors import ConvergenceError, TopologyError
from repro.net.prefix import Prefix
from tests.oracle import canonical_dump, seeded_world, structure

PREFIX = Prefix("10.0.0.0/24")


class TestRouterIds:
    def test_encoding(self):
        rid = make_router_id(3356, 2)
        assert router_id_asn(rid) == 3356
        assert router_id_index(rid) == 2

    def test_formats_as_ip_for_16bit_asn(self):
        assert format_router_id(make_router_id(3356, 1)) == "13.28.0.1"

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            make_router_id(1, 0)
        with pytest.raises(ValueError):
            make_router_id(1, 1 << 16)


class TestTopologyConstruction:
    def test_add_router_assigns_sequential_ids(self):
        net = Network()
        r1 = net.add_router(7)
        r2 = net.add_router(7)
        assert r1.router_id == make_router_id(7, 1)
        assert r2.router_id == make_router_id(7, 2)
        assert net.as_routers(7) == [r1, r2]

    def test_add_as_idempotent(self):
        net = Network()
        assert net.add_as(5) is net.add_as(5)

    def test_connect_creates_both_directions(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        s_ab, s_ba = net.connect(a, b)
        assert s_ab.src is a and s_ab.dst is b
        assert s_ba.src is b and s_ba.dst is a
        assert net.get_session(a, b) is s_ab
        assert s_ab.is_ebgp and not s_ab.is_ibgp

    def test_duplicate_session_rejected(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        net.connect(a, b)
        with pytest.raises(TopologyError):
            net.add_session(a, b)

    def test_self_session_rejected(self):
        net = Network()
        a = net.add_router(1)
        with pytest.raises(TopologyError):
            net.add_session(a, a)

    def test_disconnect_removes_both_directions(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        forward, backward = net.connect(a, b)
        assert net.disconnect(a, b) == [forward, backward]
        assert net.disconnect(a, b) == []
        assert net.get_session(a, b) is None
        assert net.get_session(b, a) is None
        assert not a.sessions_out and not b.sessions_in

    def test_ibgp_full_mesh(self):
        net = Network()
        routers = [net.add_router(9) for _ in range(3)]
        net.ibgp_full_mesh(9)
        sessions = [s for s in net.sessions.values() if s.is_ibgp]
        assert len(sessions) == 6  # 3 pairs x 2 directions
        assert all(s.src.asn == 9 and s.dst.asn == 9 for s in sessions)
        assert routers[0].sessions_out and routers[0].sessions_in

    def test_originate_registers(self):
        net = Network()
        r = net.add_router(1)
        net.originate(r, PREFIX)
        assert net.originators(PREFIX) == [r.router_id]
        assert PREFIX in r.local_routes

    def test_double_origination_rejected(self):
        net = Network()
        r = net.add_router(1)
        net.originate(r, PREFIX)
        with pytest.raises(TopologyError):
            net.originate(r, PREFIX)

    def test_validate_passes_on_consistent_network(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        net.connect(a, b)
        net.originate(a, PREFIX)
        net.validate()


class TestDuplicateRouter:
    def make_net(self):
        net = Network()
        center = net.add_router(5)
        left = net.add_router(1)
        right = net.add_router(2)
        net.connect(left, center)
        net.connect(center, right)
        session = net.get_session(left, center)
        session.ensure_export_map().append(
            Clause(Match(prefix=PREFIX), Action.DENY, tag="x")
        )
        net.originate(center, PREFIX)
        return net, center, left, right

    def test_clone_gets_same_neighbors(self):
        net, center, left, right = self.make_net()
        clone = net.duplicate_router(center)
        assert clone.asn == 5 and clone.router_id != center.router_id
        assert net.get_session(left, clone) is not None
        assert net.get_session(clone, right) is not None

    def test_clone_policies_are_copies(self):
        net, center, left, right = self.make_net()
        clone = net.duplicate_router(center)
        cloned_session = net.get_session(left, clone)
        assert cloned_session.export_map is not None
        assert len(cloned_session.export_map) == 1
        cloned_session.export_map.remove_if(lambda c: True)
        original_session = net.get_session(left, center)
        assert len(original_session.export_map) == 1

    def test_clone_originates_same_prefixes(self):
        net, center, _, _ = self.make_net()
        clone = net.duplicate_router(center)
        assert clone.router_id in net.originators(PREFIX)

    def test_clone_skips_ibgp_sessions(self):
        net, center, _, _ = self.make_net()
        sibling = net.add_router(5)
        net.connect(center, sibling)
        clone = net.duplicate_router(center)
        assert net.get_session(clone, sibling) is None
        assert net.get_session(sibling, clone) is None


class TestBookkeeping:
    def test_clear_prefix_only_touches_tracked_routers(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        net.connect(a, b)
        net.originate(a, PREFIX)
        simulate(net)
        assert b.best(PREFIX) is not None
        net.clear_prefix(PREFIX)
        assert b.best(PREFIX) is None
        assert not b.adj_rib_in.get(PREFIX)

    def test_stats_counts(self):
        net = Network()
        a, b = net.add_router(1), net.add_router(2)
        net.connect(a, b)
        net.originate(a, PREFIX)
        stats = net.stats()
        assert stats == {
            "ases": 2,
            "routers": 2,
            "sessions": 2,
            "ebgp_sessions": 2,
            "prefixes": 1,
        }

    def test_as_adjacencies(self):
        net = Network()
        a, b, c = net.add_router(1), net.add_router(2), net.add_router(3)
        net.connect(a, b)
        net.connect(b, c)
        assert net.as_adjacencies() == {(1, 2), (2, 3)}


class TestHeldStateUndo:
    """A perturbation hands back the routing state it was opened with."""

    HELD, OTHER, COLD = (Prefix(f"10.{n}.0.0/24") for n in (1, 2, 3))

    @pytest.fixture()
    def square(self):
        """AS1 - AS2 - AS3 - AS4 - AS1; AS1 originates HELD and COLD, AS3
        OTHER; HELD and OTHER are converged, COLD holds nothing."""
        net = Network("square")
        routers = [net.add_router(asn) for asn in (1, 2, 3, 4)]
        for a, b in zip(routers, routers[1:] + routers[:1]):
            net.connect(a, b)
        net.originate(routers[0], self.HELD)
        net.originate(routers[0], self.COLD)
        net.originate(routers[2], self.OTHER)
        simulate(net, [self.HELD, self.OTHER])
        return net, routers, lambda: canonical_dump(net, EngineStats())

    def test_resumed_and_cleared_prefixes_come_back_and_new_state_goes(self, square):
        net, routers, dump = square
        before = dump()
        assert net.holds_state(self.HELD) and not net.holds_state(self.COLD)
        net.open_perturbation()
        dropped = net.disconnect(routers[0], routers[1])
        resume_prefix(net, self.HELD, dropped=dropped)       # held: resumed
        assert routers[1].best(self.HELD).as_path == (3, 4, 1)
        simulate_prefix(net, self.OTHER)                     # held: cleared
        simulate_prefix(net, self.COLD)                      # held nothing
        net.clear_prefix(self.OTHER)
        assert dump() != before
        net.close_perturbation()
        assert dump() == before
        assert not net.holds_state(self.COLD)
        assert {p: set(t) for p, t in net._touched.items()} == {
            self.HELD: {r.router_id for r in routers},
            self.OTHER: {r.router_id for r in routers},
        }
        assert "_held" not in vars(net) and "_undo" not in vars(net)

    def test_a_prefix_nothing_touched_is_not_copied(self, square):
        """Nor is a table nothing wrote: a resume copies each table the
        first time it changes it, and the close puts back the originals."""
        net, routers, dump = square
        before = dump()

        def tables():
            return {
                (prefix, router.asn, kind): getattr(router, kind).get(prefix)
                for prefix in (self.HELD, self.OTHER)
                for router in routers
                for kind in ("adj_rib_in", "adj_rib_out")
            }

        opened = tables()
        net.open_perturbation()
        # AS4 loses AS3's route and moves to AS1's (1 2 3), which it cannot
        # send back to AS1: AS3's and AS4's Adj-RIB-Outs and AS4's and
        # AS1's Adj-RIB-Ins change, nothing else does.
        resume_prefix(net, self.OTHER, dropped=net.disconnect(routers[2], routers[3]))
        assert routers[3].best(self.OTHER).as_path == (1, 2, 3)
        written = {
            (self.OTHER, 3, "adj_rib_out"), (self.OTHER, 4, "adj_rib_out"),
            (self.OTHER, 4, "adj_rib_in"), (self.OTHER, 1, "adj_rib_in"),
        }
        lent = tables()
        assert {key for key in opened if lent[key] is not opened[key]} == written
        # Snapshots, list positions, the touched set, one original per
        # written table and AS4's Loc-RIB entry, the one that changed.
        assert len(net._undo) == 2 + 4 + 1 + len(written) + 1
        net.close_perturbation()
        assert all(table is opened[key] for key, table in tables().items())
        assert dump() == before

    def test_the_slices_are_set_aside_once(self, square):
        """The second touch must not overwrite the pre-open copy."""
        net, routers, dump = square
        before = dump()
        net.open_perturbation()
        resume_prefix(net, self.HELD, dropped=net.disconnect(routers[0], routers[1]))
        resume_prefix(net, self.HELD, dropped=net.disconnect(routers[0], routers[3]))
        assert all(r.best(self.HELD) is None for r in routers[1:])
        net.clear_prefix(self.HELD)
        net.close_perturbation()
        assert dump() == before

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_drawn_edits_are_undone_exactly_wherever_they_stop(self, data):
        """The undo oracle: a refined world holding some prefixes, a drawn
        sequence of disconnects, resumes, from-scratch simulations,
        originations and withdrawals inside one perturbation, stopped by a
        raise before any step or by a starved simulation.  After the close
        the network is the snapshot, and every held table is the very
        object it was: a router no step wrote was never copied, and one
        that was got its original back."""
        world = seeded_world(data.draw(st.sampled_from([1, 2, 3]), label="seed"))
        net = pickle.loads(world.blob)
        originated = sorted(world.model.prefix_by_origin.values())
        held = data.draw(
            st.lists(st.sampled_from(originated), min_size=1, max_size=5, unique=True),
            label="held",
        )
        for prefix in held:
            simulate_prefix(net, prefix, MODEL_DECISION_CONFIG)
        before = structure(net)

        def tables():
            return {
                (prefix, router_id): (
                    router.adj_rib_in.get(prefix),
                    router.loc_rib.get(prefix),
                    router.adj_rib_out.get(prefix),
                )
                for prefix in held
                for router_id, router in net.routers.items()
            }

        opened = tables()
        steps = data.draw(st.lists(st.tuples(
            st.sampled_from(
                ["disconnect", "resume", "simulate", "originate", "withdraw", "raise"]
            ),
            st.sampled_from(held)
            | st.sampled_from([*originated, Prefix("240.0.0.0/24")]),
            st.integers(0, 1 << 16),
        ), max_size=10), label="steps")
        budget = data.draw(st.sampled_from([None, 60]), label="max_messages")
        routers = [net.routers[router_id] for router_id in sorted(net.routers)]
        dropped, reoriginated = [], []

        class Stop(Exception):
            pass

        try:
            with net.perturbation():
                for kind, prefix, pick in steps:
                    if kind == "raise":
                        raise Stop
                    if kind == "disconnect":
                        session = list(net.sessions.values())[pick % len(net.sessions)]
                        dropped += net.disconnect(session.src, session.dst)
                    elif kind == "resume":
                        resume_prefix(
                            net, prefix, MODEL_DECISION_CONFIG, budget,
                            dropped, reoriginated,
                        )
                    elif kind == "simulate":
                        simulate_prefix(net, prefix, MODEL_DECISION_CONFIG, budget)
                    elif kind == "originate":
                        router = routers[pick % len(routers)]
                        if router.router_id not in net.originators(prefix):
                            net.originate(router, prefix)
                            reoriginated.append(router)
                    elif origins := net.originators(prefix):
                        router = net.routers[origins[pick % len(origins)]]
                        net.withdraw(router, prefix)
                        reoriginated.append(router)
        except (Stop, ConvergenceError):
            pass
        assert structure(net) == before
        assert all(
            all(now is then for now, then in zip(held_now, opened[key]))
            for key, held_now in tables().items()
        )

    def test_outside_a_perturbation_nothing_is_logged(self, square):
        net, _, _ = square
        net.set_aside(self.HELD)
        net.clear_prefix(self.HELD)
        assert not net.holds_state(self.HELD)
        assert Network._undo is None and "_undo" not in vars(net)
