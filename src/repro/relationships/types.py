"""Relationship types and the per-edge relationship map."""

from __future__ import annotations

import enum
from typing import Iterator


class Relationship(enum.Enum):
    """The relationship of an ordered AS pair (a, b), from a's point of view."""

    CUSTOMER = "customer"
    """b is a's customer (a provides transit to b)."""

    PROVIDER = "provider"
    """b is a's provider (b provides transit to a)."""

    PEER = "peer"
    """a and b are settlement-free peers."""

    SIBLING = "sibling"
    """a and b belong to the same organisation and exchange all routes."""

    UNKNOWN = "unknown"
    """The edge could not be classified."""

    def inverse(self) -> "Relationship":
        """The same relationship seen from the other endpoint."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


class RelationshipMap:
    """A symmetric map from undirected AS edges to relationships.

    Stored canonically: for the edge {a, b} with a < b we record the
    relationship of b *from a's point of view* under key (a, b).
    """

    def __init__(self):
        self._edges: dict[tuple[int, int], Relationship] = {}

    def set(self, a: int, b: int, rel_of_b_from_a: Relationship) -> None:
        """Record that, from ``a``'s point of view, ``b`` is ``rel_of_b_from_a``."""
        if a == b:
            raise ValueError(f"self relationship at AS {a}")
        if a < b:
            self._edges[(a, b)] = rel_of_b_from_a
        else:
            self._edges[(b, a)] = rel_of_b_from_a.inverse()

    def get(self, a: int, b: int) -> Relationship:
        """The relationship of ``b`` from ``a``'s point of view."""
        if a < b:
            return self._edges.get((a, b), Relationship.UNKNOWN)
        return self._edges.get((b, a), Relationship.UNKNOWN).inverse()

    def has(self, a: int, b: int) -> bool:
        """True if the edge {a, b} has been classified (even as UNKNOWN)."""
        key = (a, b) if a < b else (b, a)
        return key in self._edges

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Iterate canonical (a, b, relationship-of-b-from-a) triples, a < b."""
        for (a, b), rel in self._edges.items():
            yield a, b, rel

    def counts(self) -> dict[Relationship, int]:
        """Number of edges per relationship type (customer/provider merged)."""
        result: dict[Relationship, int] = {
            Relationship.CUSTOMER: 0,
            Relationship.PEER: 0,
            Relationship.SIBLING: 0,
            Relationship.UNKNOWN: 0,
        }
        for _, _, rel in self.edges():
            if rel in (Relationship.CUSTOMER, Relationship.PROVIDER):
                result[Relationship.CUSTOMER] += 1
            else:
                result[rel] += 1
        return result

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            "RelationshipMap("
            f"c2p={counts[Relationship.CUSTOMER]}, "
            f"p2p={counts[Relationship.PEER]}, "
            f"sibling={counts[Relationship.SIBLING]}, "
            f"unknown={counts[Relationship.UNKNOWN]})"
        )
