"""Routers (and quasi-routers) with their three RIBs.

A :class:`Router` keeps, per prefix:

* ``adj_rib_in`` — the post-import-policy route from each incoming session,
* ``loc_rib`` — the best route chosen by the decision process,
* ``adj_rib_out`` — the post-export-policy route sent on each outgoing
  session.

Quasi-routers (Section 4.1) are ordinary :class:`Router` instances; what
makes them "quasi" is how the model wires them: no iBGP sessions between
routers of the same AS, duplicated eBGP sessions to neighbour ASes.

Router ids follow Section 4.5: ``(asn << 16) | index`` so that the final
router-id tie-break of the decision process is deterministic and, for
16-bit ASNs, the id reads as an IP address whose high 16 bits are the AS
number.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.bgp.route import Route
from repro.net.ip import ip_to_string
from repro.net.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.bgp.session import Session


def make_router_id(asn: int, index: int) -> int:
    """Compose the deterministic router id of Section 4.5."""
    if index <= 0 or index > 0xFFFF:
        raise ValueError(f"router index out of range: {index}")
    return (asn << 16) | index


def router_id_asn(router_id: int) -> int:
    """The AS number encoded in ``router_id``."""
    return router_id >> 16


def router_id_index(router_id: int) -> int:
    """The per-AS index encoded in ``router_id``."""
    return router_id & 0xFFFF


def format_router_id(router_id: int) -> str:
    """Format a router id as a dotted quad when it fits in 32 bits."""
    if 0 <= router_id <= 0xFFFFFFFF:
        return ip_to_string(router_id)
    return f"router-{router_id:#x}"


class Router:
    """One BGP speaker."""

    __slots__ = (
        "router_id",
        "asn",
        "index",
        "name",
        "sessions_in",
        "sessions_out",
        "adj_rib_in",
        "loc_rib",
        "adj_rib_out",
        "local_routes",
        "rr_clients",
    )

    def __init__(self, router_id: int, asn: int, index: int, name: str | None = None):
        self.router_id = router_id
        self.asn = asn
        self.index = index
        self.name = name or f"AS{asn}.r{index}"
        self.sessions_in: list["Session"] = []
        self.sessions_out: list["Session"] = []
        self.adj_rib_in: dict[Prefix, dict[int, Route]] = {}
        self.loc_rib: dict[Prefix, Route] = {}
        self.adj_rib_out: dict[Prefix, dict[int, Route]] = {}
        self.local_routes: dict[Prefix, Route] = {}
        self.rr_clients: set[int] = set()
        """Router ids this router acts as a route reflector for (RFC 4456)."""

    def originate(self, prefix: Prefix) -> Route:
        """Register ``prefix`` as locally originated at this router."""
        route = Route.originate(prefix, self.router_id)
        self.local_routes[prefix] = route
        return route

    def candidates(self, prefix: Prefix) -> list[Route]:
        """All routes for ``prefix`` the decision process chooses among."""
        result: list[Route] = []
        local = self.local_routes.get(prefix)
        if local is not None:
            result.append(local)
        rib_in = self.adj_rib_in.get(prefix)
        if rib_in:
            result.extend(rib_in.values())
        return result

    def best(self, prefix: Prefix) -> Route | None:
        """The current best route for ``prefix`` (None if unreachable)."""
        return self.loc_rib.get(prefix)

    def rib_in_routes(self, prefix: Prefix) -> Iterator[Route]:
        """Iterate over the Adj-RIB-In routes for ``prefix``."""
        rib_in = self.adj_rib_in.get(prefix)
        if rib_in:
            yield from rib_in.values()

    def clear_prefix(self, prefix: Prefix) -> None:
        """Forget all routing state for ``prefix`` (used before re-simulation)."""
        self.adj_rib_in.pop(prefix, None)
        self.loc_rib.pop(prefix, None)
        self.adj_rib_out.pop(prefix, None)

    def __repr__(self) -> str:
        return f"Router({self.name}, id={format_router_id(self.router_id)})"
