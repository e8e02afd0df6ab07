"""Unit tests for the AS-routing model object and initial-model builder."""

import pickle

import pytest

from repro.bgp.engine import CONVERGED
from repro.campaign import HijackScenario, context_from_artifact, whatif
from repro.core.build import build_initial_model, build_relationship_model
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.errors import TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, prefix_for_asn
from repro.relationships.types import Relationship, RelationshipMap
from repro.serve import compile_artifact
from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.graph import ASGraph
from tests.oracle import two_pass_changes

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for path in paths:
        ds.add(ObservedRoute(f"p{path[0]}", path[0], P, ASPath(path)))
    return ds


class TestBuildInitialModel:
    def test_one_quasi_router_per_as(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3), (1, 4, 3)))
        for asn in (1, 2, 3, 4):
            assert len(model.quasi_routers(asn)) == 1

    def test_sessions_follow_graph_edges(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3)))
        assert model.network.as_adjacencies() == {(1, 2), (2, 3)}

    def test_every_as_originates_canonical_prefix(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3)))
        for asn in (1, 2, 3):
            prefix = model.canonical_prefix(asn)
            assert model.network.originators(prefix)
            assert model.origin_of(prefix) == asn

    def test_canonical_prefix_encodes_asn(self):
        model = build_initial_model(dataset_from_paths((1, 2)))
        assert model.canonical_prefix(2) == prefix_for_asn(2)

    def test_explicit_graph_overrides_dataset(self):
        graph = ASGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        model = build_initial_model(dataset_from_paths((1, 2)), graph)
        assert 4 in model.network.ases

    def test_unknown_origin_raises(self):
        model = build_initial_model(dataset_from_paths((1, 2)))
        with pytest.raises(TopologyError):
            model.canonical_prefix(99)
        with pytest.raises(TopologyError):
            model.origin_of(P)


class TestModelSimulation:
    def test_model_decision_config(self):
        assert MODEL_DECISION_CONFIG.med_always_compare
        assert not MODEL_DECISION_CONFIG.use_igp_cost

    def test_simulate_all_fills_ribs(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3)))
        model.simulate_all()
        prefix = model.canonical_prefix(3)
        best = model.quasi_routers(1)[0].best(prefix)
        assert best is not None and best.as_path == (2, 3)

    def test_simulate_origin_refreshes_one_prefix(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3)))
        model.simulate_all()
        router_1 = model.quasi_routers(1)[0]
        router_2 = model.quasi_routers(2)[0]
        model.network.disconnect(router_1, router_2)
        model.simulate_origin(3)
        assert router_1.best(model.canonical_prefix(3)) is None

    def test_stats_and_counts(self):
        model = build_initial_model(dataset_from_paths((1, 2, 3)))
        stats = model.stats()
        assert stats["ases"] == 3
        assert stats["policy_clauses"] == 0
        assert model.quasi_router_counts() == {1: 1, 2: 1, 3: 1}

    def test_add_origin_idempotent(self):
        model = build_initial_model(dataset_from_paths((1, 2)))
        first = model.add_origin(1)
        second = model.add_origin(1)
        assert first == second


def wide_asn_model():
    """AS3356 sells transit to two 4-byte ASNs that peer with each other."""
    graph = ASGraph.from_edges([(3356, 131073), (3356, 131074), (131073, 131074)])
    relationships = RelationshipMap()
    relationships.set(3356, 131073, Relationship.CUSTOMER)
    relationships.set(3356, 131074, Relationship.CUSTOMER)
    relationships.set(131073, 131074, Relationship.PEER)
    return build_relationship_model(graph, relationships)


class TestFourByteASNs:
    """ASNs above 0xFFFF get canonical prefixes no other origin holds."""

    def test_canonical_prefixes_are_distinct(self):
        prefixes = wide_asn_model().prefix_by_origin
        assert len(set(prefixes.values())) == 3
        assert prefixes[3356] == prefix_for_asn(3356)  # 16-bit ASNs as before

    def test_from_network_reads_the_same_table(self):
        model = wide_asn_model()
        loaded = ASRoutingModel.from_network(model.network)
        assert loaded.prefix_by_origin == model.prefix_by_origin

    def test_depeer_agrees_with_the_two_pass_oracle(self):
        model = wide_asn_model()
        fresh = pickle.loads(pickle.dumps(model.network))
        answer = whatif(model, 3356, 131073)
        assert answer.changes
        assert list(answer.changes) == two_pass_changes(
            fresh, model.prefix_by_origin, 3356, 131073
        )

    def test_hijack_converges(self):
        model = wide_asn_model()
        context = context_from_artifact(compile_artifact(model)[0])
        model.network.clear_routing()
        with model.network.perturbation():
            result = HijackScenario(131073, 131074).run(
                model.network, context, MODEL_DECISION_CONFIG, None
            )
        assert result["status"] == CONVERGED
        assert result["observers_examined"] == 1  # AS3356
