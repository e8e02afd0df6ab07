"""Route-diversity statistics (Section 3.2, Figure 2, Table 1).

Three measurements:

* :func:`distinct_paths_histogram` — for every (origin AS, observation AS)
  pair, how many distinct AS-paths were observed (Figure 2);
* :func:`max_unique_paths_per_as` — for every AS, the maximum over
  prefixes of the number of distinct route suffixes the AS demonstrably
  received; the quantiles of this distribution are Table 1 and lower-bound
  the number of quasi-routers the AS needs;
* :func:`prefixes_per_path_histogram` — how many prefixes are propagated
  along each AS-path (the log-log-linear observation in Section 3.2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.net.prefix import Prefix
from repro.topology.dataset import PathDataset


def distinct_paths_histogram(dataset: PathDataset) -> Counter:
    """Histogram: #distinct AS-paths per (origin, observer) pair -> #pairs."""
    counts = Counter()
    for paths in dataset.paths_by_pair().values():
        counts[len(paths)] += 1
    return counts


def max_unique_paths_per_as(dataset: PathDataset) -> dict[int, int]:
    """For each AS, the max over prefixes of distinct received route suffixes.

    For every observed path containing AS ``a`` at position ``i`` the
    suffix ``path[i:]`` is a route that some router of ``a`` selected and
    propagated.  The number of distinct suffixes per (AS, prefix) is a
    lower bound on the routers needed inside the AS (Section 3.2); we take
    the maximum over prefixes.  Origin-only appearances (suffix of length
    1) are counted too: the AS trivially needs one router.
    """
    suffixes: dict[tuple[int, Prefix], set[tuple[int, ...]]] = defaultdict(set)
    for route in dataset:
        asns = route.path.asns
        for position, asn in enumerate(asns):
            suffixes[(asn, route.prefix)].add(asns[position:])
    result: dict[int, int] = {}
    for (asn, _prefix), paths in suffixes.items():
        count = len(paths)
        if count > result.get(asn, 0):
            result[asn] = count
    return result


def prefixes_per_path_histogram(dataset: PathDataset) -> Counter:
    """Histogram: #prefixes propagated along an AS-path -> #paths."""
    prefixes_by_path: dict[tuple[int, ...], set[Prefix]] = defaultdict(set)
    for route in dataset:
        prefixes_by_path[route.path.asns].add(route.prefix)
    counts = Counter()
    for prefixes in prefixes_by_path.values():
        counts[len(prefixes)] += 1
    return counts


def quantiles(values: list[int], points: tuple[float, ...]) -> dict[float, int]:
    """Empirical quantiles of ``values`` at the given percentile points.

    Uses the "lower" interpolation so results are attained values, matching
    how Table 1 reports integer path counts.
    """
    if not values:
        return {point: 0 for point in points}
    ordered = sorted(values)
    result = {}
    for point in points:
        index = min(len(ordered) - 1, int(point / 100.0 * len(ordered)))
        result[point] = ordered[index]
    return result


TABLE1_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 100.0)


@dataclass
class DiversityReport:
    """All Section 3.2 statistics for one dataset."""

    pair_histogram: Counter = field(default_factory=Counter)
    max_paths_per_as: dict[int, int] = field(default_factory=dict)
    path_popularity: Counter = field(default_factory=Counter)

    @property
    def fraction_pairs_multipath(self) -> float:
        """Fraction of (origin, observer) pairs with more than one path."""
        total = sum(self.pair_histogram.values())
        if total == 0:
            return 0.0
        multi = sum(
            count for paths, count in self.pair_histogram.items() if paths > 1
        )
        return multi / total

    def table1(self) -> dict[float, int]:
        """Table 1: quantiles of the per-AS maximum route diversity."""
        return quantiles(list(self.max_paths_per_as.values()), TABLE1_PERCENTILES)


def route_diversity_report(dataset: PathDataset) -> DiversityReport:
    """Compute every Section 3.2 statistic for ``dataset``."""
    return DiversityReport(
        pair_histogram=distinct_paths_histogram(dataset),
        max_paths_per_as=max_unique_paths_per_as(dataset),
        path_popularity=prefixes_per_path_histogram(dataset),
    )
