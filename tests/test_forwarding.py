"""Tests for the data-plane forwarding simulation."""

import pytest

from repro.bgp import Network, simulate
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.forwarding import (
    ForwardingStatus,
    forward_as_path,
    traceroute,
)
from repro.net.prefix import Prefix


class TestBasicForwarding:
    def test_delivery_on_line(self, line):
        net, routers, prefix = line
        simulate(net)
        trace = traceroute(net, routers[1], prefix)
        assert trace.delivered
        assert trace.as_path(net) == (1, 3)

    def test_delivery_at_origin(self, line):
        net, routers, prefix = line
        simulate(net)
        trace = traceroute(net, routers[3], prefix)
        assert trace.delivered
        assert trace.hops == [routers[3].router_id]

    def test_unreachable_without_route(self, line):
        net, routers, prefix = line
        simulate(net)
        other = Prefix("99.0.0.0/24")
        trace = traceroute(net, routers[1], other)
        assert trace.status is ForwardingStatus.UNREACHABLE

    def test_data_plane_matches_control_plane_on_diamond(self, diamond):
        net, routers, prefix = diamond
        simulate(net)
        for router in routers.values():
            expected = (router.asn,) + router.best(prefix).as_path
            # collapse origin duplicate when router is the origin
            assert forward_as_path(net, router, prefix) == tuple(
                dict.fromkeys(expected)
            ) or forward_as_path(net, router, prefix) == expected


class TestIntraAsForwarding:
    def test_ibgp_route_traverses_igp_hops(self):
        """Internal router forwards through a middle router to the egress."""
        net = Network()
        internal = net.add_router(10)
        middle = net.add_router(10)
        egress = net.add_router(10)
        node = net.ases[10]
        node.igp.add_link(internal.router_id, middle.router_id, 1)
        node.igp.add_link(middle.router_id, egress.router_id, 1)
        node.igp.add_link(internal.router_id, egress.router_id, 5)
        net.ibgp_full_mesh(10)
        origin = net.add_router(20)
        net.connect(egress, origin)
        prefix = Prefix("10.5.0.0/24")
        net.originate(origin, prefix)
        simulate(net)
        trace = traceroute(net, internal, prefix)
        assert trace.delivered
        assert trace.hops == [
            internal.router_id,
            middle.router_id,
            egress.router_id,
            origin.router_id,
        ]

    def test_hot_potato_deflection_is_followed(self):
        """The middle router's own (closer) egress wins over the source's."""
        net = Network()
        a = net.add_router(10)  # source, closer to egress1 via b
        b = net.add_router(10)  # middle, has its own eBGP session
        egress1 = net.add_router(10)
        node = net.ases[10]
        node.igp.add_link(a.router_id, b.router_id, 1)
        node.igp.add_link(b.router_id, egress1.router_id, 1)
        net.ibgp_full_mesh(10)
        up1, up2 = net.add_router(21), net.add_router(22)
        net.connect(egress1, up1)
        net.connect(b, up2)
        origin = net.add_router(40)
        net.connect(up1, origin)
        net.connect(up2, origin)
        prefix = Prefix("10.6.0.0/24")
        net.originate(origin, prefix)
        simulate(net)
        # b prefers its own eBGP route (via up2)
        assert b.best(prefix).as_path == (22, 40)
        trace = traceroute(net, a, prefix)
        assert trace.delivered
        # a's packet is deflected at b towards up2, regardless of a's own
        # choice between the two egresses
        assert net.routers[trace.hops[2]].asn in (21, 22)

    def test_broken_igp_detected(self):
        net = Network()
        a = net.add_router(10)
        b = net.add_router(10)
        # iBGP session but NO IGP link between them
        net.connect(a, b)
        origin = net.add_router(20)
        net.connect(b, origin)
        prefix = Prefix("10.7.0.0/24")
        net.originate(origin, prefix)
        simulate(net)
        assert a.best(prefix) is not None  # learned over iBGP
        trace = traceroute(net, a, prefix)
        assert trace.status is ForwardingStatus.BROKEN_IGP


class TestGroundTruthConsistency:
    @pytest.fixture(scope="class")
    def internet(self):
        config = SyntheticConfig(seed=4, n_level1=3, n_level2=5, n_other=8, n_stub=14)
        internet = synthesize_internet(config)
        simulate(internet.network)
        return internet

    def test_every_routed_packet_is_delivered(self, internet):
        net = internet.network
        checked = 0
        for prefix in net.prefixes()[:20]:
            for router in net.routers.values():
                if router.best(prefix) is None:
                    continue
                trace = traceroute(net, router, prefix)
                assert trace.delivered, (
                    f"{router.name} -> {prefix}: {trace.status}"
                )
                checked += 1
        assert checked > 100

    def test_delivered_as_path_ends_at_origin(self, internet):
        net = internet.network
        for prefix in net.prefixes()[:10]:
            origin_asn = internet.origin_of(prefix)
            for router in list(net.routers.values())[:30]:
                path = forward_as_path(net, router, prefix)
                if path is not None:
                    assert path[-1] == origin_asn

    def test_no_forwarding_loops_anywhere(self, internet):
        net = internet.network
        for prefix in net.prefixes()[:10]:
            for router in net.routers.values():
                trace = traceroute(net, router, prefix)
                assert trace.status is not ForwardingStatus.LOOP

