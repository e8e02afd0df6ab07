"""Route-maps: the policy mechanism applied on session import and export.

A :class:`RouteMap` is an ordered list of :class:`Clause` objects.  Each
clause has a :class:`Match` (which route announcements it applies to) and
an :class:`Action` (deny, or permit with attribute modifications).  The
first matching clause wins; routes matching no clause are permitted
unmodified.

The paper's refinement heuristic installs exactly two kinds of clause
(Section 4.6):

* a *filter*: ``deny`` routes for one prefix whose AS-path is shorter than
  the observed path (``Match(prefix=p, path_len_lt=n)``), and
* a *ranking*: set a low MED on routes for one prefix learned from the
  preferred neighbour (``Match(prefix=p) -> set_med``), relying on
  always-compare MED.

The ground-truth substrate and the Table 2 baseline additionally use
local-pref settings, neighbour matches and community-driven filtering.

Route-maps keep an index of clauses whose match names an exact prefix, so
that models carrying hundreds of thousands of per-prefix clauses evaluate
each route against only the handful of clauses for its own prefix.
"""

from __future__ import annotations

import enum
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.bgp.route import Route
from repro.bgp.router import router_id_asn
from repro.net.prefix import Prefix

class RouteMapStats:
    """Process-wide route-map evaluation counters.

    The engine snapshots these around each per-prefix simulation to
    attribute clause work to prefixes (see ``simulate_prefix``), and the
    profiler surfaces them as ``engine.clauses_*`` metrics.  Plain
    integer adds on a module singleton keep the always-on cost of the
    accounting to a few instructions per evaluated clause; route-map
    evaluation is single-threaded like the engine that drives it.
    """

    __slots__ = ("applications", "clauses_evaluated", "clauses_matched")

    def __init__(self) -> None:
        self.applications = 0
        self.clauses_evaluated = 0
        self.clauses_matched = 0

    def snapshot(self) -> tuple[int, int, int]:
        """The three counters as one tuple (for cheap delta arithmetic)."""
        return (self.applications, self.clauses_evaluated, self.clauses_matched)


MAP_STATS = RouteMapStats()
"""The process-wide counter singleton every :meth:`RouteMap.apply` feeds."""


_REGEX_CACHE: "OrderedDict[str, re.Pattern[str]]" = OrderedDict()

_REGEX_CACHE_LIMIT = 1024
"""Upper bound on cached compiled patterns.  Long refinement runs that
sweep many distinct AS-path patterns must not grow the cache without
limit, so the cache evicts in LRU order once full."""


def _compiled(pattern: str) -> "re.Pattern[str]":
    """Compile-and-cache an AS-path regular expression (bounded LRU)."""
    compiled = _REGEX_CACHE.get(pattern)
    if compiled is None:
        compiled = re.compile(pattern)
        _REGEX_CACHE[pattern] = compiled
        if len(_REGEX_CACHE) > _REGEX_CACHE_LIMIT:
            _REGEX_CACHE.popitem(last=False)
    else:
        _REGEX_CACHE.move_to_end(pattern)
    return compiled


class Action(enum.Enum):
    """What a matching clause does with the route."""

    PERMIT = "permit"
    DENY = "deny"


@dataclass(frozen=True)
class Match:
    """Predicate over a route announcement.

    All given conditions must hold (logical AND).  An empty match matches
    every route.
    """

    prefix: Prefix | None = None
    path_len_lt: int | None = None
    path_len_gt: int | None = None
    from_asn: int | None = None
    from_router: int | None = None
    path_contains: int | None = None
    path_regex: str | None = None
    """Regular expression over the space-separated AS-path string, in the
    style of C-BGP / Cisco as-path access-lists (e.g. ``"^3356 .* 701$"``).
    Anchors match the path head (most recent AS) and the origin."""
    community: int | None = None

    def matches(self, route: Route) -> bool:
        """True if ``route`` satisfies every condition of this match."""
        prefix = self.prefix
        # Per-prefix clauses almost always see the very object they name:
        # the identity test spares the Python-level Prefix.__eq__.
        if prefix is not None and route.prefix is not prefix and route.prefix != prefix:
            return False
        if self.path_len_lt is not None and not len(route.as_path) < self.path_len_lt:
            return False
        if self.path_len_gt is not None and not len(route.as_path) > self.path_len_gt:
            return False
        if self.from_asn is not None and route.peer_asn != self.from_asn:
            return False
        if self.from_router is not None and route.peer_router != self.from_router:
            return False
        if self.path_contains is not None and self.path_contains not in route.as_path:
            return False
        if self.path_regex is not None and not _compiled(self.path_regex).search(
            route.path_str()
        ):
            return False
        if self.community is not None and self.community not in route.communities:
            return False
        return True

    def is_satisfiable(self) -> bool:
        """False if no route can ever satisfy this match.

        The only contradiction expressible within one match is between the
        two path-length bounds: ``len < lt`` and ``len > gt`` admit no
        length when ``gt + 1 >= lt`` (and ``lt == 0`` admits nothing at
        all, lengths being non-negative).
        """
        if self.path_len_lt is not None and self.path_len_lt <= 0:
            return False
        if self.path_len_lt is not None and self.path_len_gt is not None:
            return self.path_len_gt + 1 < self.path_len_lt
        return True

    def subsumes(self, other: "Match") -> bool:
        """True if every route matched by ``other`` is matched by ``self``.

        This is the foundation of the static shadowing analysis: with
        first-match-wins route-maps, a clause whose match is subsumed by an
        earlier clause's match can never be evaluated.  The check is
        conservative (sound, not complete): a ``True`` answer guarantees
        subsumption, a ``False`` answer makes no claim — regexes, for
        instance, are only recognised as subsuming when textually equal.
        """
        if not other.is_satisfiable():
            return True
        if self.prefix is not None and self.prefix != other.prefix:
            return False
        if self.path_len_lt is not None and (
            other.path_len_lt is None or other.path_len_lt > self.path_len_lt
        ):
            return False
        if self.path_len_gt is not None and (
            other.path_len_gt is None or other.path_len_gt < self.path_len_gt
        ):
            return False
        if self.from_asn is not None:
            # A match pinned to one neighbour router implies its AS, which
            # the router id encodes (Section 4.5).
            other_asn = other.from_asn
            if other_asn is None and other.from_router is not None:
                other_asn = router_id_asn(other.from_router)
            if other_asn != self.from_asn:
                return False
        if self.from_router is not None and other.from_router != self.from_router:
            return False
        if self.path_contains is not None and other.path_contains != self.path_contains:
            return False
        if self.path_regex is not None and other.path_regex != self.path_regex:
            return False
        if self.community is not None and other.community != self.community:
            return False
        return True

    def describe(self) -> str:
        """Human-readable form used in C-BGP config export and __repr__."""
        parts = []
        if self.prefix is not None:
            parts.append(f"prefix is {self.prefix}")
        if self.path_len_lt is not None:
            parts.append(f"path-length < {self.path_len_lt}")
        if self.path_len_gt is not None:
            parts.append(f"path-length > {self.path_len_gt}")
        if self.from_asn is not None:
            parts.append(f"from-as {self.from_asn}")
        if self.from_router is not None:
            parts.append(f"from-router {self.from_router:#010x}")
        if self.path_contains is not None:
            parts.append(f"path contains {self.path_contains}")
        if self.path_regex is not None:
            parts.append(f"path matches {self.path_regex!r}")
        if self.community is not None:
            parts.append(f"community {self.community}")
        return " and ".join(parts) if parts else "any"


@dataclass
class Clause:
    """One route-map entry: a match plus an action and attribute changes."""

    match: Match = field(default_factory=Match)
    action: Action = Action.PERMIT
    set_local_pref: int | None = None
    set_med: int | None = None
    prepend: int = 0
    add_communities: frozenset[int] = frozenset()
    strip_communities: bool = False
    tag: str | None = None
    """Free-form label; the refiner tags its clauses so they can be deleted."""
    iteration: int | None = None
    """Refinement iteration that installed this clause, when known.

    Decision provenance for ``repro explain``: a clause consulted during
    a replay can name the Figure 6 cycle that created it.  Not part of
    clause identity — the refiner's duplicate-install check deliberately
    ignores it — and round-trips through the C-BGP dialect (``iter N``)
    so checkpoints and saved models keep the attribution."""

    def apply(self, route: Route) -> Route | None:
        """Apply this clause to ``route``; None means denied.

        Must only be called when ``self.match.matches(route)`` is True.
        """
        if self.action is Action.DENY:
            return None
        local_pref = route.local_pref
        med = route.med
        as_path = route.as_path
        communities = route.communities
        unchanged = True
        if self.set_local_pref is not None:
            local_pref = self.set_local_pref
            unchanged = False
        if self.set_med is not None:
            med = self.set_med
            unchanged = False
        if self.prepend and as_path:
            as_path = (as_path[0],) * self.prepend + as_path
            unchanged = False
        if self.strip_communities:
            communities = frozenset(self.add_communities)
            unchanged = False
        elif self.add_communities:
            communities = communities | self.add_communities
            unchanged = False
        if unchanged:
            return route
        return Route(
            route.prefix,
            as_path,
            route.next_hop,
            local_pref,
            med,
            route.origin,
            communities,
            route.source,
            route.peer_router,
            route.peer_asn,
            route.originator_id,
            route.cluster_list,
        )


class RouteMap:
    """An ordered sequence of clauses with first-match-wins semantics."""

    __slots__ = ("_clauses", "_by_prefix", "_generic", "default_action")

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        default_action: Action = Action.PERMIT,
    ):
        self._clauses: list[tuple[int, Clause]] = []
        self._by_prefix: dict[Prefix, list[tuple[int, Clause]]] = {}
        self._generic: list[tuple[int, Clause]] = []
        self.default_action = default_action
        for clause in clauses:
            self.append(clause)

    def append(self, clause: Clause) -> None:
        """Add ``clause`` after all existing clauses."""
        position = len(self._clauses)
        entry = (position, clause)
        self._clauses.append(entry)
        if clause.match.prefix is not None:
            self._by_prefix.setdefault(clause.match.prefix, []).append(entry)
        else:
            self._generic.append(entry)

    def prepend(self, clause: Clause) -> None:
        """Add ``clause`` before all existing clauses.

        With first-match-wins semantics this makes the clause shadow any
        later clause matching the same routes (the fault-injection harness
        relies on this to override relationship policies).
        """
        position = (self._clauses[0][0] - 1) if self._clauses else 0
        entry = (position, clause)
        self._clauses.insert(0, entry)
        if clause.match.prefix is not None:
            self._by_prefix.setdefault(clause.match.prefix, []).insert(0, entry)
        else:
            self._generic.insert(0, entry)

    def remove(self, clause: Clause) -> bool:
        """Remove the first occurrence of ``clause`` (by identity); True if found."""
        for entry in self._clauses:
            if entry[1] is clause:
                self._clauses.remove(entry)
                bucket = (
                    self._by_prefix.get(clause.match.prefix)
                    if clause.match.prefix is not None
                    else self._generic
                )
                if bucket is not None and entry in bucket:
                    bucket.remove(entry)
                return True
        return False

    def remove_if(self, predicate) -> int:
        """Remove every clause for which ``predicate(clause)`` is true."""
        doomed = [clause for _, clause in self._clauses if predicate(clause)]
        for clause in doomed:
            self.remove(clause)
        return len(doomed)

    def clauses(self) -> Iterator[Clause]:
        """Iterate over clauses in evaluation order."""
        return (clause for _, clause in self._clauses)

    def copy(self) -> "RouteMap":
        """Return an independently-mutable copy (clause objects are shared)."""
        return RouteMap(self.clauses(), default_action=self.default_action)

    def entries(self) -> list[tuple[int, Clause]]:
        """All (position, clause) pairs in evaluation order.

        Positions are the stable ordering keys the prefix index sorts by;
        the static analyzer uses them to name clauses in findings.
        """
        return list(self._clauses)

    def resolve(self, prefix: Prefix) -> Sequence[tuple[int, Clause]]:
        """The (position, clause) pairs :meth:`apply` walks for ``prefix``.

        The prefix-indexed and the generic clauses merged in evaluation
        order.  The generic clauses (those whose match names no exact
        prefix) are included: a shadowing check that consulted only the
        exact-prefix bucket would miss a broad earlier clause — e.g.
        ``Match()`` — that makes every later per-prefix clause
        unreachable.  When only one kind exists the live bucket itself is
        returned, not a copy: callers must not mutate it, and may hold it
        only while the map is not edited.  Nothing is memoised here, where
        it would be pickled with every network copy.
        """
        indexed = self._by_prefix.get(prefix)
        if not indexed:
            return self._generic
        if not self._generic:
            return indexed
        return sorted(indexed + self._generic, key=lambda entry: entry[0])

    def clauses_for_prefix(self, prefix: Prefix) -> Iterator[Clause]:
        """Iterate, in evaluation order, over clauses that could match ``prefix``."""
        return (clause for _, clause in self.resolve(prefix))

    def apply(self, route: Route) -> Route | None:
        """Evaluate the route-map on ``route``; None means denied."""
        stats = MAP_STATS
        stats.applications += 1
        evaluated = 0
        for _, clause in self.resolve(route.prefix):
            evaluated += 1
            if clause.match.matches(route):
                stats.clauses_evaluated += evaluated
                stats.clauses_matched += 1
                return clause.apply(route)
        stats.clauses_evaluated += evaluated
        if self.default_action is Action.DENY:
            return None
        return route

    def __len__(self) -> int:
        return len(self._clauses)

    def __bool__(self) -> bool:
        # An empty permit-by-default route-map is a no-op, but an empty
        # deny-by-default one is not, so truthiness must account for both.
        return bool(self._clauses) or self.default_action is Action.DENY

    def __repr__(self) -> str:
        lines = [
            f"  {clause.action.value} if {clause.match.describe()}"
            for clause in self.clauses()
        ]
        body = "\n".join(lines)
        return f"RouteMap(default={self.default_action.value}\n{body}\n)"
