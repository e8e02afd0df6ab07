"""Tests for saving/loading a refined model via the C-BGP config format."""

import io

import pytest

from repro.cbgp import export_model, parse_script
from repro.core.build import build_initial_model
from repro.core.model import ASRoutingModel
from repro.core.predict import evaluate_model
from repro.core.refine import Refiner
from repro.errors import TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


class TestFromNetwork:
    def test_reconstructs_graph_and_origins(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)
        buffer = io.StringIO()
        export_model(model, buffer)
        network = parse_script(io.StringIO(buffer.getvalue()))
        loaded = ASRoutingModel.from_network(network)
        assert set(loaded.network.ases) == set(model.network.ases)
        assert loaded.network.as_adjacencies() == model.network.as_adjacencies()
        assert loaded.prefix_by_origin == model.prefix_by_origin

    def test_loaded_model_evaluates_identically(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4), (2, 4), (3, 4))
        model = build_initial_model(ds)
        Refiner(model, ds).run()
        original = evaluate_model(model, ds)

        buffer = io.StringIO()
        export_model(model, buffer)
        loaded = ASRoutingModel.from_network(
            parse_script(io.StringIO(buffer.getvalue()))
        )
        reloaded = evaluate_model(loaded, ds)
        assert reloaded.counts == original.counts

    def test_rejects_prefix_without_known_origin(self):
        from repro.bgp.network import Network

        # Two ASes originate one prefix: it has no single origin.
        network = Network()
        for asn in (5, 6):
            network.originate(network.add_router(asn), Prefix("99.99.0.0/24"))
        with pytest.raises(TopologyError, match="one origin AS per prefix"):
            ASRoutingModel.from_network(network)

    def test_origin_is_the_originating_as_not_the_bits(self):
        from repro.bgp.network import Network

        network = Network()
        router = network.add_router(5)
        network.originate(router, Prefix("99.99.0.0/24"))  # bits read AS 25443
        assert ASRoutingModel.from_network(network).prefix_by_origin == {
            5: Prefix("99.99.0.0/24")
        }
        network.originate(router, Prefix("99.98.0.0/24"))
        with pytest.raises(TopologyError, match="one prefix per AS"):
            ASRoutingModel.from_network(network)

    def test_mini_refined_model_round_trips(self, mini_pipeline):
        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, validation = split_by_observation_points(
            pruned.dataset, 0.5, seed=5
        )
        model = build_initial_model(pruned.dataset, pruned.graph.copy())
        Refiner(model, training).run()
        buffer = io.StringIO()
        export_model(model, buffer)
        loaded = ASRoutingModel.from_network(
            parse_script(io.StringIO(buffer.getvalue()))
        )
        assert loaded.network.stats() == model.network.stats()
        original = evaluate_model(model, validation)
        reloaded = evaluate_model(loaded, validation)
        assert reloaded.counts == original.counts
