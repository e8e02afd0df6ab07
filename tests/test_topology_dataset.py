"""Unit tests for repro.topology.dataset."""

import pytest

from repro.errors import DatasetError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset

P1 = Prefix("10.0.0.0/24")
P2 = Prefix("10.0.1.0/24")


def route(point: str, path: tuple[int, ...], prefix=P1) -> ObservedRoute:
    return ObservedRoute(point, path[0], prefix, ASPath(path))


@pytest.fixture
def dataset():
    return PathDataset(
        [
            route("a0", (1, 2, 4)),
            route("a0", (1, 3, 4)),
            route("a0", (1, 2, 5), P2),
            route("b0", (2, 4)),
            route("b1", (2, 3, 4)),
        ]
    )


class TestObservedRoute:
    def test_origin_asn(self):
        assert route("x", (1, 2, 3)).origin_asn == 3

    def test_rejects_empty_path(self):
        with pytest.raises(DatasetError):
            ObservedRoute("x", 1, P1, ASPath(()))

    def test_rejects_path_not_starting_at_observer(self):
        with pytest.raises(DatasetError):
            ObservedRoute("x", 9, P1, ASPath((1, 2)))


class TestViews:
    def test_len_and_iter(self, dataset):
        assert len(dataset) == 5
        assert len(list(dataset)) == 5

    def test_observation_points(self, dataset):
        assert dataset.observation_points() == {"a0": 1, "b0": 2, "b1": 2}

    def test_observer_and_origin_asns(self, dataset):
        assert dataset.observer_asns() == {1, 2}
        assert dataset.origin_asns() == {4, 5}

    def test_prefixes_and_asns(self, dataset):
        assert dataset.prefixes() == {P1, P2}
        assert dataset.all_asns() == {1, 2, 3, 4, 5}

    def test_unique_paths(self, dataset):
        assert (1, 2, 4) in dataset.unique_paths()
        assert len(dataset.unique_paths()) == 5

    def test_paths_by_pair(self, dataset):
        pairs = dataset.paths_by_pair()
        assert pairs[(4, 1)] == {(1, 2, 4), (1, 3, 4)}
        assert pairs[(4, 2)] == {(2, 4), (2, 3, 4)}

    def test_unique_paths_by_origin(self, dataset):
        grouped = dataset.unique_paths_by_origin()
        assert grouped[5] == {(1, 2, 5)}
        assert len(grouped[4]) == 4

    def test_adjacencies(self, dataset):
        assert (1, 2) in dataset.adjacencies()
        assert (2, 4) in dataset.adjacencies()

    def test_summary_counts(self, dataset):
        summary = dataset.summary()
        assert summary["routes"] == 5
        assert summary["observation_points"] == 3
        assert summary["unique_paths"] == 5


class TestTransformations:
    def test_cleaned_removes_prepending(self):
        ds = PathDataset([route("a0", (1, 2, 2, 4))])
        cleaned = ds.cleaned()
        assert cleaned.unique_paths() == {(1, 2, 4)}

    def test_cleaned_drops_loops(self):
        ds = PathDataset([route("a0", (1, 2, 3, 2, 4))])
        assert len(ds.cleaned()) == 0

    def test_cleaned_deduplicates(self):
        ds = PathDataset([route("a0", (1, 2, 4)), route("a0", (1, 2, 2, 4))])
        assert len(ds.cleaned()) == 1

    def test_restrict_points(self, dataset):
        subset = dataset.restrict_points({"a0"})
        assert subset.observer_asns() == {1}
        assert len(subset) == 3

    def test_restrict_origins(self, dataset):
        subset = dataset.restrict_origins({5})
        assert len(subset) == 1
        assert subset.origin_asns() == {5}

    def test_filter_routes(self, dataset):
        subset = dataset.filter_routes(lambda r: len(r.path) == 2)
        assert len(subset) == 1
