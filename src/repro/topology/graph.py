"""The AS-level adjacency graph extracted from observed AS-paths.

"If two ASes are next to each other on a path we assume that they have an
agreement to exchange data and are therefore neighbors in the AS-topology
graph" (Section 3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import TopologyError
from repro.topology.dataset import PathDataset

if TYPE_CHECKING:
    import networkx as nx


class ASGraph:
    """An undirected AS adjacency graph."""

    def __init__(self):
        self._adjacency: dict[int, set[int]] = {}

    @classmethod
    def from_dataset(cls, dataset: PathDataset) -> "ASGraph":
        """Build the graph from every adjacency on every observed path."""
        graph = cls()
        for route in dataset:
            previous = None
            for asn in route.path:
                graph.add_as(asn)
                if previous is not None and previous != asn:
                    graph.add_edge(previous, asn)
                previous = asn
        return graph

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "ASGraph":
        """Build the graph from explicit undirected edges."""
        graph = cls()
        for a, b in edges:
            graph.add_edge(a, b)
        return graph

    def add_as(self, asn: int) -> None:
        """Add an isolated AS; idempotent."""
        self._adjacency.setdefault(asn, set())

    def add_edge(self, a: int, b: int) -> None:
        """Add an undirected edge; idempotent."""
        if a == b:
            raise TopologyError(f"self-loop at AS {a}")
        self._adjacency.setdefault(a, set()).add(b)
        self._adjacency.setdefault(b, set()).add(a)

    def remove_as(self, asn: int) -> None:
        """Remove an AS and all its edges."""
        neighbors = self._adjacency.pop(asn, set())
        for neighbor in neighbors:
            self._adjacency[neighbor].discard(asn)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove an undirected edge if present."""
        self._adjacency.get(a, set()).discard(b)
        self._adjacency.get(b, set()).discard(a)

    def has_edge(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are adjacent."""
        return b in self._adjacency.get(a, ())

    def neighbors(self, asn: int) -> set[int]:
        """The neighbour set of ``asn`` (empty if unknown)."""
        return set(self._adjacency.get(asn, ()))

    def degree(self, asn: int) -> int:
        """Number of neighbours of ``asn``."""
        return len(self._adjacency.get(asn, ()))

    def ases(self) -> set[int]:
        """All AS numbers in the graph."""
        return set(self._adjacency)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as (min, max) pairs."""
        for a, neighbors in self._adjacency.items():
            for b in neighbors:
                if a < b:
                    yield (a, b)

    def num_ases(self) -> int:
        """Number of ASes."""
        return len(self._adjacency)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def subgraph(self, asns: Iterable[int]) -> "ASGraph":
        """The induced subgraph on ``asns``."""
        wanted = set(asns)
        result = ASGraph()
        for asn in wanted:
            if asn in self._adjacency:
                result.add_as(asn)
        for a, b in self.edges():
            if a in wanted and b in wanted:
                result.add_edge(a, b)
        return result

    def is_clique(self, asns: Iterable[int]) -> bool:
        """True if every pair among ``asns`` is adjacent."""
        members = list(set(asns))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not self.has_edge(a, b):
                    return False
        return True

    def to_networkx(self) -> "nx.Graph":
        """Export to a networkx graph (for clique algorithms, plotting).

        The one reader of networkx in the package, so it is imported here:
        a run that never exports never loads it.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._adjacency)
        graph.add_edges_from(self.edges())
        return graph

    def copy(self) -> "ASGraph":
        """An independent copy of this graph."""
        result = ASGraph()
        for asn, neighbors in self._adjacency.items():
            result._adjacency[asn] = set(neighbors)
        return result

    def __contains__(self, asn: object) -> bool:
        return asn in self._adjacency

    def __repr__(self) -> str:
        return f"ASGraph(ases={self.num_ases()}, edges={self.num_edges()})"
