"""Unit tests for relationship types, inference, and policy realization."""

from repro.bgp import Network, simulate
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.relationships.gao import (
    enforce_acyclic_hierarchy,
    infer_gao_relationships,
)
from repro.relationships.policies import apply_relationship_policies
from repro.relationships.types import Relationship, RelationshipMap
from repro.relationships.valleyfree import (
    infer_valley_free_relationships,
    is_valley_free,
)
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for path in paths:
        ds.add(ObservedRoute(f"p{path[0]}-{hash(path) & 0xffff}", path[0], P, ASPath(path)))
    return ds


class TestRelationshipMap:
    def test_set_and_get_symmetry(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)  # 2 is 1's customer
        assert rels.get(1, 2) is Relationship.CUSTOMER
        assert rels.get(2, 1) is Relationship.PROVIDER

    def test_canonical_storage_with_reversed_insert(self):
        rels = RelationshipMap()
        rels.set(5, 3, Relationship.PROVIDER)  # 3 is 5's provider
        assert rels.get(3, 5) is Relationship.CUSTOMER

    def test_unset_edge_is_unknown(self):
        assert RelationshipMap().get(1, 2) is Relationship.UNKNOWN

    def test_peer_and_sibling_symmetric(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.PEER)
        rels.set(3, 4, Relationship.SIBLING)
        assert rels.get(2, 1) is Relationship.PEER
        assert rels.get(4, 3) is Relationship.SIBLING

    def test_counts_merge_directions(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)
        rels.set(3, 1, Relationship.PROVIDER)
        rels.set(1, 4, Relationship.PEER)
        counts = rels.counts()
        assert counts[Relationship.CUSTOMER] == 2
        assert counts[Relationship.PEER] == 1


class TestValleyFreeValidation:
    def make_rels(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.PROVIDER)  # 2 is 1's provider
        rels.set(2, 3, Relationship.PEER)
        rels.set(3, 4, Relationship.CUSTOMER)  # 4 is 3's customer
        return rels

    def test_canonical_up_peer_down_is_valid(self):
        assert is_valley_free((1, 2, 3, 4), self.make_rels())

    def test_peer_after_descending_is_invalid(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)
        rels.set(2, 3, Relationship.PEER)
        assert not is_valley_free((1, 2, 3), rels)

    def test_two_peerings_invalid(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.PEER)
        rels.set(2, 3, Relationship.PEER)
        assert not is_valley_free((1, 2, 3), rels)

    def test_climb_after_peak_is_invalid(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)  # descending
        rels.set(2, 3, Relationship.PROVIDER)  # climbing again -> valley
        assert not is_valley_free((1, 2, 3), rels)

    def test_unknown_edges_are_wildcards(self):
        assert is_valley_free((1, 2, 3), RelationshipMap())


class TestValleyFreeInference:
    def test_infers_customers_below_tier1(self):
        # Observer 1 (tier-1) sees origin 4 via tier-1 2 then 3: 2->3->4 descend.
        ds = dataset_from_paths((1, 2, 3, 4), (2, 3, 4))
        rels = infer_valley_free_relationships(ds, level1=[1, 2])
        assert rels.get(2, 3) is Relationship.CUSTOMER
        assert rels.get(3, 4) is Relationship.CUSTOMER

    def test_infers_providers_on_observer_side(self):
        # Observer 5 reaches tier-1 1 via 3: the 5-3 and 3-1 edges climb.
        ds = dataset_from_paths((5, 3, 1, 2, 4))
        rels = infer_valley_free_relationships(ds, level1=[1, 2])
        assert rels.get(5, 3) is Relationship.PROVIDER
        assert rels.get(3, 1) is Relationship.PROVIDER

    def test_seeds_are_peers(self):
        ds = dataset_from_paths((1, 2, 3))
        rels = infer_valley_free_relationships(ds, level1=[1, 2])
        assert rels.get(1, 2) is Relationship.PEER

    def test_conflict_becomes_sibling(self):
        # 2-3 inferred as customer from one path and provider from another.
        ds = dataset_from_paths((1, 2, 3, 9), (1, 3, 2, 9))
        rels = infer_valley_free_relationships(ds, level1=[1])
        assert rels.get(2, 3) in (Relationship.SIBLING, Relationship.UNKNOWN)


class TestGaoInference:
    def test_top_provider_voting(self):
        # AS 2 has the highest degree; 1 and 3 hang off it, 4 below 3.
        ds = dataset_from_paths((1, 2, 3, 4), (1, 2, 5), (1, 2, 6))
        rels = infer_gao_relationships(ds)
        assert rels.get(1, 2) is Relationship.PROVIDER  # 2 provides for 1
        assert rels.get(2, 3) is Relationship.CUSTOMER
        assert rels.get(3, 4) is Relationship.CUSTOMER

    def test_sibling_on_conflicting_votes(self):
        ds = dataset_from_paths((1, 2, 3, 4), (4, 3, 2, 1))
        rels = infer_gao_relationships(ds)
        # votes in both directions for every edge
        assert rels.get(2, 3) is Relationship.SIBLING

    def test_enforce_acyclic_hierarchy_breaks_cycle(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.PROVIDER)  # 1 -> 2 up
        rels.set(2, 3, Relationship.PROVIDER)  # 2 -> 3 up
        rels.set(3, 1, Relationship.PROVIDER)  # 3 -> 1 up: cycle!
        demoted = enforce_acyclic_hierarchy(rels)
        assert demoted >= 1
        counts = rels.counts()
        assert counts[Relationship.PEER] >= 1

    def test_enforce_acyclic_noop_on_dag(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.PROVIDER)
        rels.set(2, 3, Relationship.PROVIDER)
        assert enforce_acyclic_hierarchy(rels) == 0


class TestPolicyRealization:
    def build_network(self):
        """1 = provider of 2 and 3; 2 and 3 peer; origin prefix at 2."""
        net = Network()
        r1, r2, r3 = net.add_router(1), net.add_router(2), net.add_router(3)
        net.connect(r1, r2)
        net.connect(r1, r3)
        net.connect(r2, r3)
        net.originate(r2, P)
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)
        rels.set(1, 3, Relationship.CUSTOMER)
        rels.set(2, 3, Relationship.PEER)
        return net, (r1, r2, r3), rels

    def test_customer_routes_exported_everywhere(self):
        net, (r1, r2, r3), rels = self.build_network()
        apply_relationship_policies(net, rels)
        simulate(net)
        assert r1.best(P) is not None
        assert r3.best(P) is not None

    def test_peer_routes_not_reexported_to_provider(self):
        """AS3 learns 2's prefix over the peering; it must not send it up to AS1."""
        net, (r1, r2, r3), rels = self.build_network()
        # remove the 1-2 link so AS1 could only learn via AS3
        net.disconnect(r1, r2)
        rels = RelationshipMap()
        rels.set(1, 3, Relationship.CUSTOMER)
        rels.set(2, 3, Relationship.PEER)
        apply_relationship_policies(net, rels)
        simulate(net)
        assert r3.best(P) is not None
        assert r1.best(P) is None  # valley blocked

    def test_provider_routes_not_reexported_to_peer(self):
        """AS2 hears AS3's... routes from provider must not cross a peering."""
        net = Network()
        r1, r2, r3 = net.add_router(1), net.add_router(2), net.add_router(3)
        net.connect(r1, r2)  # 1 provider of 2
        net.connect(r2, r3)  # 2 peers with 3
        net.originate(r1, P)
        rels = RelationshipMap()
        rels.set(2, 1, Relationship.PROVIDER)
        rels.set(2, 3, Relationship.PEER)
        apply_relationship_policies(net, rels)
        simulate(net)
        assert r2.best(P) is not None
        assert r3.best(P) is None

    def test_customer_preferred_over_peer(self):
        """With routes from both a customer and a peer, pick the customer."""
        net = Network()
        observer = net.add_router(1)
        customer = net.add_router(2)
        peer = net.add_router(3)
        origin = net.add_router(4)
        net.connect(observer, customer)
        net.connect(observer, peer)
        net.connect(customer, origin)
        net.connect(peer, origin)
        net.originate(origin, P)
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)
        rels.set(1, 3, Relationship.PEER)
        rels.set(2, 4, Relationship.CUSTOMER)
        rels.set(3, 4, Relationship.CUSTOMER)
        apply_relationship_policies(net, rels)
        simulate(net)
        assert observer.best(P).as_path == (2, 4)

    def test_reapply_is_idempotent(self):
        net, _, rels = self.build_network()
        apply_relationship_policies(net, rels)
        apply_relationship_policies(net, rels)
        for session in net.ebgp_sessions():
            tagged = [
                c for c in session.import_map.clauses() if c.tag == "relationship"
            ]
            assert len(tagged) == 1
