"""The BGP route object used throughout the engine.

Routes are treated as immutable: policy application and export produce new
:class:`Route` instances via :meth:`Route.replace`.  The AS-path is a plain
tuple of ints (head = most recent AS, tail = origin AS) for speed; use
:class:`repro.net.aspath.ASPath` for dataset-level path manipulation.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, DEFAULT_MED, Origin, RouteSource
from repro.net.prefix import Prefix

_EMPTY_COMMUNITIES: FrozenSet[int] = frozenset()


class Route:
    """One BGP route: a prefix plus its path attributes and bookkeeping.

    ``peer_router``/``peer_asn`` identify the session the route was learned
    over (0 for locally-originated routes); ``next_hop`` is the router id of
    the NEXT_HOP, which for iBGP-learned routes is the remote egress border
    router and drives the IGP-cost (hot-potato) decision step.
    """

    __slots__ = (
        "prefix",
        "as_path",
        "next_hop",
        "local_pref",
        "med",
        "origin",
        "communities",
        "source",
        "peer_router",
        "peer_asn",
        "originator_id",
        "cluster_list",
    )

    def __init__(
        self,
        prefix: Prefix,
        as_path: tuple[int, ...] = (),
        next_hop: int = 0,
        local_pref: int = DEFAULT_LOCAL_PREF,
        med: int = DEFAULT_MED,
        origin: Origin = Origin.IGP,
        communities: FrozenSet[int] = _EMPTY_COMMUNITIES,
        source: RouteSource = RouteSource.EBGP,
        peer_router: int = 0,
        peer_asn: int = 0,
        originator_id: int = 0,
        cluster_list: tuple[int, ...] = (),
    ):
        self.prefix = prefix
        self.as_path = as_path
        self.next_hop = next_hop
        self.local_pref = local_pref
        self.med = med
        self.origin = origin
        self.communities = communities
        self.source = source
        self.peer_router = peer_router
        self.peer_asn = peer_asn
        self.originator_id = originator_id
        self.cluster_list = cluster_list

    @classmethod
    def originate(cls, prefix: Prefix, router_id: int) -> "Route":
        """Create the locally-originated route for ``prefix`` at ``router_id``."""
        return cls(
            prefix,
            as_path=(),
            next_hop=router_id,
            source=RouteSource.LOCAL,
            peer_router=0,
            peer_asn=0,
        )

    def replace(self, **changes) -> "Route":
        """Return a copy of this route with the given attributes replaced."""
        route = Route(
            self.prefix,
            self.as_path,
            self.next_hop,
            self.local_pref,
            self.med,
            self.origin,
            self.communities,
            self.source,
            self.peer_router,
            self.peer_asn,
            self.originator_id,
            self.cluster_list,
        )
        for name, value in changes.items():
            if name not in _FIELDS:
                raise TypeError(f"Route.replace() got an unexpected field {name!r}")
            setattr(route, name, value)
        return route

    def attributes_equal(self, other: "Route | None") -> bool:
        """True if ``other`` carries the same announcement (ignoring bookkeeping).

        Used to suppress redundant UPDATE messages: a route needs to be
        re-sent over a session only if an attribute visible to the peer
        changed.  The AS-path is compared first because it is what usually
        differs, the prefix last and by identity first because within one
        per-prefix simulation every route shares the prefix object.
        """
        if other is None:
            return False
        return (
            self.as_path == other.as_path
            and self.next_hop == other.next_hop
            and self.med == other.med
            and self.origin == other.origin
            and self.communities == other.communities
            and self.local_pref == other.local_pref
            and self.originator_id == other.originator_id
            and self.cluster_list == other.cluster_list
            and (self.prefix is other.prefix or self.prefix == other.prefix)
        )

    def path_str(self) -> str:
        """The AS-path as a space-separated string (dump format)."""
        return " ".join(str(asn) for asn in self.as_path)

    def __repr__(self) -> str:
        return (
            f"Route({self.prefix}, path=[{self.path_str()}], lp={self.local_pref}, "
            f"med={self.med}, src={self.source.name}, from={self.peer_router:#x})"
        )


_FIELDS = frozenset(Route.__slots__)
