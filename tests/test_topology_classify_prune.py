"""Unit tests for AS classification and stub pruning."""

import pytest

from repro.errors import DatasetError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.classify import Level, classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.graph import ASGraph
from repro.topology.prune import prepare_dataset, prune_single_homed_stubs

P = Prefix("10.0.0.0/24")


def build_scene():
    """1,2 = tier-1 clique; 3 = level-2 transit; 4 = single-homed stub;
    5 = multi-homed stub; 6 = single-homed observer stub."""
    paths = [
        ("o1", (1, 2, 3, 4)),
        ("o1", (1, 3, 5)),
        ("o2", (2, 3, 5)),
        ("o6", (6, 3, 4)),
        ("o2", (2, 5), Prefix("10.0.5.0/24")),
    ]
    ds = PathDataset()
    for point, path, *rest in paths:
        prefix = rest[0] if rest else P
        ds.add(ObservedRoute(point, path[0], prefix, ASPath(path)))
    graph = ASGraph.from_dataset(ds)
    return ds, graph


class TestClassification:
    def test_levels(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        assert cls.levels[1] is Level.LEVEL1
        assert cls.levels[2] is Level.LEVEL1
        assert cls.levels[3] is Level.LEVEL2  # neighbour of tier-1
        assert cls.levels[5] is Level.LEVEL2  # neighbour of AS 2
        assert cls.levels[4] is Level.OTHER

    def test_transit_detection(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        assert 3 in cls.transit_asns()  # middle of paths
        assert 2 in cls.transit_asns()  # middle of (1, 2, 3, 4)
        assert 4 not in cls.transit_asns()

    def test_homing(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        assert 4 in cls.single_homed_stubs()  # only neighbour: 3
        assert 5 in cls.multi_homed_stubs()  # neighbours 2 and 3
        assert 6 in cls.single_homed_stubs()

    def test_summary_adds_up(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        summary = cls.summary()
        assert summary["ases"] == graph.num_ases()
        assert (
            summary["transit"]
            + summary["stub_single_homed"]
            + summary["stub_multi_homed"]
            == summary["ases"]
        )


class TestPruning:
    def test_paths_ending_in_stub_are_transferred(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        result = prune_single_homed_stubs(ds, graph, cls)
        # (1, 2, 3, 4) becomes (1, 2, 3): origin transferred to AS 3
        assert (1, 2, 3) in result.dataset.unique_paths()
        assert all(4 not in path for path in result.dataset.unique_paths())
        # (6, 3, 4) is dropped with its pruned observer, so exactly one
        # route is transferred
        assert result.transferred_routes == 1

    def test_observations_from_pruned_stubs_are_dropped(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        result = prune_single_homed_stubs(ds, graph, cls)
        assert 6 not in result.dataset.observer_asns()
        assert result.dropped_routes >= 1

    def test_graph_loses_pruned_nodes(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        result = prune_single_homed_stubs(ds, graph, cls)
        assert 4 not in result.graph
        assert 6 not in result.graph
        assert 5 in result.graph  # multi-homed stubs stay
        assert result.pruned_asns == {4, 6}

    def test_original_inputs_untouched(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        prune_single_homed_stubs(ds, graph, cls)
        assert 4 in graph
        assert len(ds) == 5

    def test_multi_homed_origins_keep_full_paths(self):
        ds, graph = build_scene()
        cls = classify_ases(ds, graph, level1=[1, 2])
        result = prune_single_homed_stubs(ds, graph, cls)
        assert (1, 3, 5) in result.dataset.unique_paths()


class TestPrepareDataset:
    def test_equals_the_hand_assembled_sequence(self):
        ds, graph = build_scene()
        clique = infer_level1_clique(graph, [1, 2])
        cls = classify_ases(ds, graph, clique)
        expected = prune_single_homed_stubs(ds, graph, cls)
        dataset, built, level1, classification, pruned = prepare_dataset(
            ds, [1, 2]
        )
        assert dataset.routes() == ds.cleaned().routes()
        assert built.ases() == graph.ases()
        assert level1 == clique
        assert classification.summary() == cls.summary()
        assert pruned.pruned_asns == expected.pruned_asns == {4, 6}
        assert pruned.dataset.unique_paths() == expected.dataset.unique_paths()

    def test_seedless_fallback_picks_the_max_degree_as(self):
        ds, graph = build_scene()
        assert max(graph.ases(), key=graph.degree) == 3
        for seeds in (None, []):
            _, _, level1, _, _ = prepare_dataset(ds, seeds)
            assert level1 == infer_level1_clique(graph, [3])

    def test_empty_after_cleaning_is_a_dataset_error(self):
        looped = PathDataset(
            [ObservedRoute("o1", 1, P, ASPath((1, 2, 1, 3)))]
        )
        for dataset in (PathDataset(), looped):
            with pytest.raises(DatasetError, match="empty after cleaning"):
                prepare_dataset(dataset)
