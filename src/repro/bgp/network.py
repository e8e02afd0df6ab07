"""The simulated network: ASes, routers, sessions and originations.

:class:`Network` is the mutable topology object shared by the ground-truth
substrate and the quasi-router model.  It owns routers (grouped into
:class:`ASNode` objects), directed sessions, prefix originations, and the
bookkeeping the engine needs to clear per-prefix state between simulation
runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.bgp.igp import IGPTopology
from repro.bgp.route import Route
from repro.bgp.router import Router, make_router_id
from repro.bgp.session import Session
from repro.errors import TopologyError
from repro.net.prefix import Prefix


class ASNode:
    """One autonomous system: a set of routers plus an optional IGP graph."""

    __slots__ = ("asn", "routers", "igp", "name")

    def __init__(self, asn: int, name: str | None = None):
        self.asn = asn
        self.routers: list[Router] = []
        self.igp = IGPTopology()
        self.name = name or f"AS{asn}"

    def __repr__(self) -> str:
        return f"ASNode({self.name}, routers={len(self.routers)})"


@dataclass
class PrefixState:
    """One prefix's complete routing state, detached from any network.

    ``routers`` maps the id of every router holding state for the prefix
    to its four per-prefix slots, ``(adj_rib_in, loc_rib entry,
    adj_rib_out, local_routes entry)`` — the RIB dicts shallow copies
    (routes are immutable), a slot the router lacks ``None``.  Routes are
    plain attribute objects, so a state pickles cleanly; route *identity*
    does not survive a process boundary, which is fine because every
    consumer (refiner, evaluator, exporter) compares attributes.
    :meth:`Network.capture_prefix` makes one,
    :meth:`Network.install_prefix` takes one back.  A clear inside a
    perturbation makes one of the tables themselves, not copies, for its
    undo log (:meth:`Network.clear_prefix`).
    """

    prefix: Prefix
    routers: dict[
        int,
        tuple[
            dict[int, Route] | None,
            Route | None,
            dict[int, Route] | None,
            Route | None,
        ],
    ] = field(default_factory=dict)


class Lease:
    """What a perturbation has changed so far of one prefix held at open.

    ``rib_in`` / ``rib_out`` are the ids of the routers whose Adj-RIB-In /
    Adj-RIB-Out for the prefix the perturbation already owns: a copy of
    the table it opened with, or one made where there was none.  Every
    other router still holds the very dict it held at open, which the
    writer must :meth:`own` before changing it.  ``loc_rib`` are the ids
    of the routers whose Loc-RIB entry has changed, the original kept on
    the undo log (:meth:`keep_best`).
    """

    __slots__ = ("prefix", "undo", "rib_in", "rib_out", "loc_rib")

    def __init__(self, prefix: Prefix, undo: list) -> None:
        self.prefix = prefix
        self.undo = undo
        self.rib_in: set[int] = set()
        self.rib_out: set[int] = set()
        self.loc_rib: set[int] = set()

    def own(
        self, tables: dict[Prefix, dict[int, Route]], owned: set[int], router_id: int
    ) -> dict[int, Route]:
        """Copy on first write: put a copy of ``tables[prefix]`` (or a new
        table) in its place, log putting the original back, and return the
        copy.  ``tables`` is router ``router_id``'s ``adj_rib_in`` or
        ``adj_rib_out``, ``owned`` the matching set of this lease."""
        prefix = self.prefix
        original = tables.get(prefix)
        if original is None:
            self.undo.append((tables.pop, (prefix, None)))
            table = tables[prefix] = {}
        else:
            self.undo.append((tables.__setitem__, (prefix, original)))
            table = tables[prefix] = original.copy()
        owned.add(router_id)
        return table

    def keep_best(self, router: Router, best: Route | None) -> None:
        """Log putting ``best`` (None: nothing) back as ``router``'s Loc-RIB
        entry: call it before the entry's first change."""
        prefix = self.prefix
        if best is None:
            self.undo.append((router.loc_rib.pop, (prefix, None)))
        else:
            self.undo.append((router.loc_rib.__setitem__, (prefix, best)))
        self.loc_rib.add(router.router_id)


def _insert_at(mapping: dict, index: int, key, value) -> None:
    """Put ``key`` back at position ``index`` of an insertion-ordered dict."""
    tail = list(mapping.items())[index:]
    for later, _ in tail:
        del mapping[later]
    mapping[key] = value
    mapping.update(tail)


class Network:
    """A topology of ASes, routers and directed BGP sessions."""

    _undo: list[tuple[Callable[..., object], tuple]] | None = None
    """``(inverse, args)`` of every edit since :meth:`open_perturbation`,
    oldest first; None while no perturbation is open.  A class-level
    default: a network pickles the same whether or not it was perturbed."""

    _held: dict[Prefix, Lease | None] | None = None
    """Prefixes that held routing state at :meth:`open_perturbation` and
    have not been cleared since, each with the :class:`Lease` of its first
    :meth:`set_aside` (None before it); None while no perturbation is
    open."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.ases: dict[int, ASNode] = {}
        self.routers: dict[int, Router] = {}
        self.sessions: dict[int, Session] = {}
        self._session_by_endpoints: dict[tuple[int, int], Session] = {}
        self._next_session_id = 1
        self.originations: dict[Prefix, list[int]] = {}
        self._touched: dict[Prefix, set[int]] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_as(self, asn: int, name: str | None = None) -> ASNode:
        """Create (or return the existing) AS ``asn``."""
        node = self.ases.get(asn)
        if node is None:
            node = ASNode(asn, name)
            self.ases[asn] = node
        return node

    def add_router(self, asn: int, name: str | None = None) -> Router:
        """Create a new router in AS ``asn`` with the next deterministic id."""
        node = self.add_as(asn)
        index = len(node.routers) + 1
        router_id = make_router_id(asn, index)
        if router_id in self.routers:
            raise TopologyError(f"duplicate router id {router_id:#x}")
        router = Router(router_id, asn, index, name)
        node.routers.append(router)
        node.igp.add_router(router_id)
        self.routers[router_id] = router
        return router

    def get_session(self, src: Router, dst: Router) -> Session | None:
        """The directed session from ``src`` to ``dst``, if any."""
        return self._session_by_endpoints.get((src.router_id, dst.router_id))

    def add_session(self, src: Router, dst: Router) -> Session:
        """Create the directed session ``src -> dst``."""
        key = (src.router_id, dst.router_id)
        if src is dst:
            raise TopologyError(f"session from {src.name} to itself")
        if key in self._session_by_endpoints:
            raise TopologyError(f"duplicate session {src.name} -> {dst.name}")
        session = Session(self._next_session_id, src, dst)
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        self._session_by_endpoints[key] = session
        src.sessions_out.append(session)
        dst.sessions_in.append(session)
        return session

    def connect(self, a: Router, b: Router) -> tuple[Session, Session]:
        """Create the bidirectional peering between ``a`` and ``b``."""
        return self.add_session(a, b), self.add_session(b, a)

    def disconnect(self, a: Router, b: Router) -> list[Session]:
        """Tear down the peering between ``a`` and ``b`` (both directions).

        Returns the sessions removed, ``a`` → ``b`` first.
        """
        removed = []
        for src, dst in ((a, b), (b, a)):
            session = self.get_session(src, dst)
            if session is None:
                continue
            removed.append(session)
            del self._session_by_endpoints[(src.router_id, dst.router_id)]
            del self.sessions[session.session_id]
            out_index = src.sessions_out.index(session)
            in_index = dst.sessions_in.index(session)
            del src.sessions_out[out_index]
            del dst.sessions_in[in_index]
            if self._undo is not None:
                # The two session dicts are restored whole on close.
                self._undo.append((src.sessions_out.insert, (out_index, session)))
                self._undo.append((dst.sessions_in.insert, (in_index, session)))
        return removed

    def ibgp_route_reflection(
        self, reflectors: list[Router], clients: list[Router]
    ) -> None:
        """Wire an RFC 4456 route-reflection cluster.

        Every reflector peers with every client (marking the client) and
        the reflectors form a full mesh among themselves.  All routers
        must belong to the same AS.
        """
        asns = {router.asn for router in reflectors + clients}
        if len(asns) != 1:
            raise TopologyError(f"route reflection across ASes: {sorted(asns)}")
        for i, a in enumerate(reflectors):
            for b in reflectors[i + 1 :]:
                if self.get_session(a, b) is None:
                    self.connect(a, b)
        for reflector in reflectors:
            for client in clients:
                if self.get_session(reflector, client) is None:
                    self.connect(reflector, client)
                reflector.rr_clients.add(client.router_id)

    def ibgp_full_mesh(self, asn: int) -> None:
        """Create iBGP sessions between every router pair of AS ``asn``."""
        node = self.ases[asn]
        for i, a in enumerate(node.routers):
            for b in node.routers[i + 1 :]:
                if self.get_session(a, b) is None:
                    self.connect(a, b)

    def originate(self, router: Router, prefix: Prefix) -> Route:
        """Originate ``prefix`` at ``router``."""
        undo = self._undo
        if undo is not None and prefix not in self.originations:
            undo.append((self.originations.__delitem__, (prefix,)))
        origins = self.originations.setdefault(prefix, [])
        if router.router_id in origins:
            raise TopologyError(f"{router.name} already originates {prefix}")
        origins.append(router.router_id)
        if undo is not None:
            undo.append((origins.pop, ()))
            undo.append((router.local_routes.__delitem__, (prefix,)))
        return router.originate(prefix)

    def withdraw(self, router: Router, prefix: Prefix) -> None:
        """Stop ``router`` originating ``prefix`` (anycast site failure).

        Removes the origination bookkeeping and the router's local route;
        callers must re-simulate (or :func:`~repro.bgp.engine.resume_prefix`)
        for the withdrawal to propagate.  Raises :class:`TopologyError` if
        the router does not originate the prefix — silently "withdrawing"
        nothing would mask a scenario-construction bug.
        """
        origins = self.originations.get(prefix)
        if origins is None or router.router_id not in origins:
            raise TopologyError(f"{router.name} does not originate {prefix}")
        undo, local = self._undo, router.local_routes
        if undo is not None:
            # In the order the edits below are made; positions as of now.
            router_id = router.router_id
            undo.append((origins.insert, (origins.index(router_id), router_id)))
            if len(origins) == 1:
                position = list(self.originations).index(prefix)
                undo.append((_insert_at, (self.originations, position, prefix, origins)))
            if prefix in local:
                position = list(local).index(prefix)
                undo.append((_insert_at, (local, position, prefix, local[prefix])))
        origins.remove(router.router_id)
        if not origins:
            del self.originations[prefix]
        local.pop(prefix, None)

    def originators(self, prefix: Prefix) -> list[int]:
        """Router ids originating ``prefix`` (empty list if none)."""
        return self.originations.get(prefix, [])

    def prefixes(self) -> list[Prefix]:
        """All originated prefixes, sorted for deterministic iteration."""
        return sorted(self.originations)

    # ------------------------------------------------------------------
    # Perturbation with exact undo (campaign scenarios)
    # ------------------------------------------------------------------

    @contextmanager
    def perturbation(self) -> Iterator[None]:
        """Lend the network to one what-if; every edit is undone on the way out.

        Whether the body returned or raised: :meth:`disconnect`,
        :meth:`originate` and :meth:`withdraw` have each logged their
        inverse by the time they return, and a held table is set aside or
        copied before it changes, so a body that stops between two edits or
        inside a simulation is undone as exactly as one that finished.  An
        error out of the replay itself means the network was not put back.
        """
        self.open_perturbation()
        try:
            yield
        finally:
            self.close_perturbation()

    def open_perturbation(self) -> None:
        """Start recording the inverse of every edit.

        While open, :meth:`disconnect`, :meth:`originate` and
        :meth:`withdraw` — the edits a what-if scenario makes — log what
        :meth:`close_perturbation` needs to put the network back.  So
        does the routing state of a prefix that holds some now (its
        converged RIBs, which the perturbation's simulations may resume
        from): a resume copies each of its tables the first time it writes
        it (:meth:`set_aside`), and a clear moves them onto the log whole.
        """
        if self._undo is not None:
            raise TopologyError("a perturbation is already open")
        self._undo = [
            (setattr, (self, "sessions", dict(self.sessions))),
            (setattr, (
                self, "_session_by_endpoints", dict(self._session_by_endpoints)
            )),
        ]
        self._held = dict.fromkeys(self._touched)

    def close_perturbation(self) -> None:
        """Undo every edit, newest first, routing state included.

        Afterwards every ``sessions_out`` / ``sessions_in`` position, the
        order of ``sessions``, ``_session_by_endpoints``, ``originations``
        and each router's ``local_routes`` are what they were at
        :meth:`open_perturbation`, so the next simulation walks sessions
        in the same order a fresh copy would; every prefix that held
        routing state then holds the very tables and Loc-RIB entries it
        held, and no other prefix holds any.
        """
        undo, held = self._undo, self._held
        if undo is None:
            raise TopologyError("no perturbation is open")
        del self._undo, self._held
        for prefix in list(self._touched):
            if prefix not in held:
                self.clear_prefix(prefix)
        while undo:
            inverse, args = undo.pop()
            inverse(*args)

    def set_aside(self, prefix: Prefix) -> Lease | None:
        """Prepare ``prefix``'s routing state to be resumed, before it changes.

        Inside a perturbation, for a prefix held since it opened and not
        cleared since: the :class:`Lease` a resume copies each table
        through the first time it writes it, and keeps each Loc-RIB entry
        through before its first change.  The first call logs putting back
        the prefix's touched set and leaves a copy in its place; a later
        one returns the same lease.  Otherwise None: the state is the
        resume's to change in place.
        """
        held = self._held
        if held is None or prefix not in held:
            return None
        lease = held[prefix]
        if lease is None:
            lease = held[prefix] = Lease(prefix, self._undo)
            touched = self._touched[prefix]
            self._touched[prefix] = set(touched)
            self._undo.append((self._touched.__setitem__, (prefix, touched)))
        return lease

    # ------------------------------------------------------------------
    # Quasi-router support (Section 4.6: duplication)
    # ------------------------------------------------------------------

    def duplicate_router(self, original: Router) -> Router:
        """Clone ``original`` with the same neighbours and session policies.

        The clone receives its own (higher) router index, duplicated eBGP
        sessions to the same neighbour routers, and *copies* of every
        per-session route-map so the clone's policies can diverge from the
        original's.  iBGP sessions are deliberately not cloned: quasi-routers
        are isolated from each other (Section 4.6).
        """
        clone = self.add_router(original.asn)
        for session in list(original.sessions_in):
            if session.is_ibgp:
                continue
            new_session = self.add_session(session.src, clone)
            if session.import_map is not None:
                new_session.import_map = session.import_map.copy()
            if session.export_map is not None:
                new_session.export_map = session.export_map.copy()
        for session in list(original.sessions_out):
            if session.is_ibgp:
                continue
            new_session = self.add_session(clone, session.dst)
            if session.import_map is not None:
                new_session.import_map = session.import_map.copy()
            if session.export_map is not None:
                new_session.export_map = session.export_map.copy()
        for prefix in original.local_routes:
            self.originate(clone, prefix)
        return clone

    # ------------------------------------------------------------------
    # Engine bookkeeping
    # ------------------------------------------------------------------

    def touched_set(self, prefix: Prefix) -> set[int]:
        """The live set of router ids holding state for ``prefix``.

        The engine takes it once per prefix and adds router ids directly
        rather than re-hashing the prefix on every message.
        """
        return self._touched.setdefault(prefix, set())

    def capture_prefix(self, prefix: Prefix) -> PrefixState:
        """Copy out every router's routing state for ``prefix``.

        What a pool worker ships home: the slice its simulation produced.
        """
        state = PrefixState(prefix)
        rows = state.routers
        for router_id in self._touched.get(prefix, ()):
            router = self.routers[router_id]
            rib_in = router.adj_rib_in.get(prefix)
            rib_out = router.adj_rib_out.get(prefix)
            rows[router_id] = (
                None if rib_in is None else dict(rib_in),
                router.loc_rib.get(prefix),
                None if rib_out is None else dict(rib_out),
                router.local_routes.get(prefix),
            )
        return state

    def install_prefix(self, state: PrefixState) -> None:
        """Make ``state`` this network's routing state for its prefix.

        Whatever the prefix held is cleared first, so afterwards the
        network is as if it had converged the prefix itself and a later
        :meth:`clear_prefix` or re-simulation behaves the same.  The
        state's dicts are installed as they are, not copied: a state is
        installed on one network.  A router the state names and this
        network lacks is a ``KeyError`` (states travel between copies of
        one topology).
        """
        prefix = state.prefix
        self.clear_prefix(prefix)
        if not state.routers:  # a quarantined prefix: nothing holds state
            return
        touched = self.touched_set(prefix)
        for router_id, (rib_in, best, rib_out, local) in state.routers.items():
            router = self.routers[router_id]
            if rib_in is not None:
                router.adj_rib_in[prefix] = rib_in
            if best is not None:
                router.loc_rib[prefix] = best
            if rib_out is not None:
                router.adj_rib_out[prefix] = rib_out
            if local is not None:
                router.local_routes[prefix] = local
            touched.add(router_id)

    def holds_state(self, prefix: Prefix) -> bool:
        """Whether any router holds routing state for ``prefix``."""
        return prefix in self._touched

    def clear_prefix(self, prefix: Prefix) -> None:
        """Wipe all routing state for ``prefix`` ahead of a re-simulation.

        Inside a perturbation a prefix held since it opened is not wiped
        but moved: its tables, as they are, go onto the undo log for
        :meth:`install_prefix` to put back on close.
        """
        touched = self._touched.pop(prefix, None)
        if touched is None:
            return
        held = self._held
        if held is not None and prefix in held:
            del held[prefix]
            state = PrefixState(prefix)
            for router_id in touched:
                router = self.routers[router_id]
                state.routers[router_id] = (
                    router.adj_rib_in.pop(prefix, None),
                    router.loc_rib.pop(prefix, None),
                    router.adj_rib_out.pop(prefix, None),
                    router.local_routes.get(prefix),
                )
            self._undo.append((self.install_prefix, (state,)))
            return
        for router_id in touched:
            router = self.routers.get(router_id)
            if router is not None:
                router.clear_prefix(prefix)

    def clear_routing(self) -> None:
        """Wipe all routing state for every prefix."""
        for prefix in list(self._touched):
            self.clear_prefix(prefix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def as_routers(self, asn: int) -> list[Router]:
        """The routers of AS ``asn`` (empty if the AS is unknown)."""
        node = self.ases.get(asn)
        return list(node.routers) if node else []

    def ebgp_sessions(self) -> Iterator[Session]:
        """Iterate over all eBGP sessions."""
        return (s for s in self.sessions.values() if s.is_ebgp)

    def as_adjacencies(self) -> set[tuple[int, int]]:
        """Undirected AS-level edges realised by at least one eBGP session."""
        edges: set[tuple[int, int]] = set()
        for session in self.ebgp_sessions():
            a, b = session.src.asn, session.dst.asn
            edges.add((min(a, b), max(a, b)))
        return edges

    def as_neighbours(self, asn: int) -> set[int]:
        """The ASes AS ``asn`` has an eBGP session to: its AS-graph neighbours."""
        return {session.dst.asn for router in self.as_routers(asn)
                for session in router.sessions_out if session.is_ebgp}

    def stats(self) -> dict[str, int]:
        """Size summary used by reports and the scaling benchmark."""
        return {
            "ases": len(self.ases),
            "routers": len(self.routers),
            "sessions": len(self.sessions),
            "ebgp_sessions": sum(1 for _ in self.ebgp_sessions()),
            "prefixes": len(self.originations),
        }

    def validate(self) -> None:
        """Check internal consistency; raises :class:`TopologyError`."""
        for session in self.sessions.values():
            if session.src.router_id not in self.routers:
                raise TopologyError(f"{session!r} has unknown source")
            if session.dst.router_id not in self.routers:
                raise TopologyError(f"{session!r} has unknown destination")
        for prefix, origins in self.originations.items():
            for router_id in origins:
                if router_id not in self.routers:
                    raise TopologyError(
                        f"prefix {prefix} originated at unknown router {router_id:#x}"
                    )
        for node in self.ases.values():
            for router in node.routers:
                if router.asn != node.asn:
                    raise TopologyError(
                        f"router {router.name} filed under AS {node.asn}"
                    )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"Network({self.name}: {stats['ases']} ASes, {stats['routers']} routers, "
            f"{stats['sessions']} sessions, {stats['prefixes']} prefixes)"
        )
