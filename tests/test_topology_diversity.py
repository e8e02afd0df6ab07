"""Unit tests for route-diversity statistics (Figure 2 / Table 1)."""

from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset
from repro.topology.diversity import (
    distinct_paths_histogram,
    max_unique_paths_per_as,
    prefixes_per_path_histogram,
    quantiles,
    route_diversity_report,
)

P1 = Prefix("10.0.0.0/24")
P2 = Prefix("10.0.1.0/24")


def build_dataset():
    entries = [
        ("a", (1, 2, 4), P1),
        ("a", (1, 3, 4), P1),  # second path for pair (4, 1)
        ("a", (1, 2, 4), P2),  # same path, second prefix
        ("b", (2, 4), P1),
        ("b", (2, 4), P2),
    ]
    ds = PathDataset()
    for point, path, prefix in entries:
        ds.add(ObservedRoute(point, path[0], prefix, ASPath(path)))
    return ds


class TestPairHistogram:
    def test_counts_distinct_paths_per_pair(self):
        histogram = distinct_paths_histogram(build_dataset())
        assert histogram[2] == 1  # pair (4, 1)
        assert histogram[1] == 1  # pair (4, 2)

    def test_empty_dataset(self):
        assert distinct_paths_histogram(PathDataset()) == {}


class TestMaxUniquePaths:
    def test_counts_suffixes_per_prefix(self):
        per_as = max_unique_paths_per_as(build_dataset())
        # AS 4 only ever appears as origin: one suffix (4,)
        assert per_as[4] == 1
        # AS 1 received two distinct routes for P1
        assert per_as[1] == 2
        # AS 2 relays (2, 4): one suffix per prefix
        assert per_as[2] == 1

    def test_transit_suffix_counted(self):
        ds = PathDataset(
            [
                ObservedRoute("a", 1, P1, ASPath((1, 2, 4))),
                ObservedRoute("b", 3, P1, ASPath((3, 2, 5, 4))),
            ]
        )
        per_as = max_unique_paths_per_as(ds)
        assert per_as[2] == 2  # suffixes (2, 4) and (2, 5, 4)


class TestPathPopularity:
    def test_counts_prefixes_per_path(self):
        histogram = prefixes_per_path_histogram(build_dataset())
        assert histogram[2] == 2  # (1,2,4) and (2,4) each used by two prefixes
        assert histogram[1] == 1  # (1,3,4) used by one


class TestQuantiles:
    def test_empty(self):
        assert quantiles([], (50.0,)) == {50.0: 0}

    def test_median_of_uniform(self):
        values = [1, 2, 3, 4, 5]
        result = quantiles(values, (0.0, 50.0, 100.0))
        assert result[0.0] == 1
        assert result[50.0] == 3
        assert result[100.0] == 5

    def test_values_are_attained(self):
        values = [1, 1, 1, 10]
        result = quantiles(values, (90.0,))
        assert result[90.0] in values


class TestReport:
    def test_fraction_multipath(self):
        report = route_diversity_report(build_dataset())
        assert report.fraction_pairs_multipath == 0.5

    def test_table1_keys(self):
        report = route_diversity_report(build_dataset())
        table = report.table1()
        assert set(table) == {50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 100.0}

    def test_empty_report(self):
        report = route_diversity_report(PathDataset())
        assert report.fraction_pairs_multipath == 0.0

    def test_mini_internet_exhibits_diversity(self, mini_dataset):
        """The synthetic substrate must show the paper's core phenomenon."""
        report = route_diversity_report(mini_dataset)
        assert report.fraction_pairs_multipath > 0.02
        assert max(report.max_paths_per_as.values()) >= 2
