"""Observed-route datasets.

An :class:`ObservedRoute` is one line of a RIB dump: an observation point
saw one AS-path for one prefix.  A :class:`PathDataset` is a cleaned,
indexed collection of such observations — the object the whole pipeline
(Section 3 analysis, model refinement, evaluation) operates on.

Conventions
-----------
* The stored AS-path *includes* the observation AS as its first element
  (that is what a monitor peering with a router inside the AS receives),
  and the origin AS as its last element.
* Cleaning (``PathDataset.cleaned``) removes AS-path prepending and drops
  paths with loops, as in Section 3.1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import DatasetError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


@dataclass(frozen=True)
class ObservedRoute:
    """One observed (observation point, prefix, AS-path) triple."""

    point_id: str
    observer_asn: int
    prefix: Prefix
    path: ASPath

    def __post_init__(self):
        if len(self.path) == 0:
            raise DatasetError("observed route with empty AS-path")
        if self.path.head_asn != self.observer_asn:
            raise DatasetError(
                f"path {self.path} does not start at observer AS {self.observer_asn}"
            )

    @property
    def origin_asn(self) -> int:
        """The AS that originated the prefix."""
        return self.path.origin_asn


class PathDataset:
    """An indexed collection of observed routes."""

    def __init__(self, routes: Iterable[ObservedRoute] = ()):
        self._routes: list[ObservedRoute] = []
        self._points: dict[str, int] = {}
        for route in routes:
            self.add(route)

    def add(self, route: ObservedRoute) -> None:
        """Append one observation."""
        self._routes.append(route)
        self._points[route.point_id] = route.observer_asn

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[ObservedRoute]:
        return iter(self._routes)

    def routes(self) -> list[ObservedRoute]:
        """All observations in insertion order."""
        return list(self._routes)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def observation_points(self) -> dict[str, int]:
        """Map from observation-point id to its observer ASN."""
        return dict(self._points)

    def observer_asns(self) -> set[int]:
        """ASes hosting at least one observation point."""
        return set(self._points.values())

    def origin_asns(self) -> set[int]:
        """ASes originating at least one observed prefix."""
        return {route.origin_asn for route in self._routes}

    def prefixes(self) -> set[Prefix]:
        """All observed prefixes."""
        return {route.prefix for route in self._routes}

    def all_asns(self) -> set[int]:
        """Every AS appearing on any observed path."""
        asns: set[int] = set()
        for route in self._routes:
            asns.update(route.path.asns)
        return asns

    def unique_paths(self) -> set[tuple[int, ...]]:
        """The set of distinct AS-paths across all observations."""
        return {route.path.asns for route in self._routes}

    def paths_by_pair(self) -> dict[tuple[int, int], set[tuple[int, ...]]]:
        """Distinct AS-paths per (origin AS, observer AS) pair (Figure 2)."""
        pairs: dict[tuple[int, int], set[tuple[int, ...]]] = defaultdict(set)
        for route in self._routes:
            pairs[(route.origin_asn, route.observer_asn)].add(route.path.asns)
        return dict(pairs)

    def unique_paths_by_origin(self) -> dict[int, set[tuple[int, ...]]]:
        """Distinct observed AS-paths grouped by originating AS.

        This is the view the refinement heuristic consumes: the model
        originates one canonical prefix per AS (Section 4.1), so paths for
        all prefixes of an origin AS collapse into one constraint set.
        """
        grouped: dict[int, set[tuple[int, ...]]] = defaultdict(set)
        for route in self._routes:
            grouped[route.origin_asn].add(route.path.asns)
        return dict(grouped)

    def adjacencies(self) -> set[tuple[int, int]]:
        """Undirected AS-level edges implied by the observed paths."""
        edges: set[tuple[int, int]] = set()
        for route in self._routes:
            for a, b in route.path.edges():
                edges.add((min(a, b), max(a, b)))
        return edges

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def cleaned(self) -> "PathDataset":
        """Remove prepending, drop looped paths and exact duplicates."""
        result = PathDataset()
        seen: set[tuple[str, Prefix, tuple[int, ...]]] = set()
        for route in self._routes:
            path = route.path.without_prepending()
            if path.has_loop():
                continue
            key = (route.point_id, route.prefix, path.asns)
            if key in seen:
                continue
            seen.add(key)
            result.add(
                ObservedRoute(route.point_id, route.observer_asn, route.prefix, path)
            )
        return result

    def filter_routes(
        self, predicate: Callable[[ObservedRoute], bool]
    ) -> "PathDataset":
        """Dataset restricted to routes satisfying ``predicate``."""
        return PathDataset(route for route in self._routes if predicate(route))

    def restrict_points(self, point_ids: Iterable[str]) -> "PathDataset":
        """Dataset restricted to the given observation points."""
        wanted = set(point_ids)
        return self.filter_routes(lambda route: route.point_id in wanted)

    def restrict_origins(self, origin_asns: Iterable[int]) -> "PathDataset":
        """Dataset restricted to prefixes originated by the given ASes."""
        wanted = set(origin_asns)
        return self.filter_routes(lambda route: route.origin_asn in wanted)

    def summary(self) -> dict[str, int]:
        """Headline counts in the style of Section 3.1."""
        return {
            "routes": len(self._routes),
            "observation_points": len(self._points),
            "observer_ases": len(self.observer_asns()),
            "origin_ases": len(self.origin_asns()),
            "prefixes": len(self.prefixes()),
            "unique_paths": len(self.unique_paths()),
            "as_pairs": len(self.paths_by_pair()),
            "as_edges": len(self.adjacencies()),
            "ases": len(self.all_asns()),
        }

    def __repr__(self) -> str:
        counts = self.summary()
        return (
            f"PathDataset(routes={counts['routes']}, "
            f"points={counts['observation_points']}, "
            f"prefixes={counts['prefixes']}, unique_paths={counts['unique_paths']})"
        )
