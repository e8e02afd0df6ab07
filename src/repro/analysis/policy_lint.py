"""Policy lint: route-map defects detectable without simulation.

Four rules over the installed route-maps:

* ``policy-unsatisfiable-match`` — a clause whose match admits no route
  (contradictory path-length bounds);
* ``policy-shadowed-clause`` — a clause that can never be evaluated
  because an earlier clause's match subsumes its own (first-match-wins);
* ``policy-contradictory-ranking`` — two ranking clauses for the same
  prefix on the same session assign different MED/local-pref values: the
  later one silently loses, which almost always means a stale ranking was
  left behind;
* ``policy-blocking-filter`` — a quasi-router every one of whose inbound
  sessions carries a ``path_len_lt`` export filter denying *every*
  AS-path observed in the training data on that session's AS hop, so the
  quasi-router can never select any observed route for the prefix.  The
  rule is deliberately per-quasi-router, not per-session: the Section 4.6
  refiner legitimately blocks the short path on *one* quasi-router's
  session so that a sibling quasi-router of the same AS carries it;
* ``policy-stale-refine-clause`` — a refinement-tagged clause referencing
  a prefix no dataset origin maps to (left behind by an earlier run over
  different data).

The shadowing helper walks :meth:`RouteMap.resolve`, which merges the
exact-prefix clause index with the *generic* clauses — an earlier
``Match()`` (or any non-exact-prefix match) shadows later per-prefix
clauses even though it never appears in their index bucket.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis.findings import Finding, Severity
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, RouteMap
from repro.bgp.session import Session
from repro.core.refine import FILTER_TAG, RANK_TAG
from repro.net.prefix import Prefix
from repro.topology.dataset import PathDataset

RULE_UNSATISFIABLE = "policy-unsatisfiable-match"
RULE_SHADOWED = "policy-shadowed-clause"
RULE_CONTRADICTORY = "policy-contradictory-ranking"
RULE_BLOCKING_FILTER = "policy-blocking-filter"
RULE_STALE_REFINE = "policy-stale-refine-clause"

REFINE_TAGS = frozenset({FILTER_TAG, RANK_TAG})

_CLAUSES_PER_FINDING = 12
"""At most this many blocking clauses are named per finding."""


def shadower_of(
    route_map: RouteMap, position: int, clause: Clause
) -> tuple[int, Clause] | None:
    """The first earlier clause whose match subsumes ``clause``'s, if any.

    Looks through the clauses that share ``clause``'s evaluation bucket —
    for an exact-prefix clause that is its prefix bucket *plus* the
    generic clauses (a broad earlier ``Match()`` shadows it just as well);
    for a generic clause the whole map in order.
    """
    if clause.match.prefix is not None:
        candidates = route_map.resolve(clause.match.prefix)
    else:
        candidates = route_map.entries()
    for earlier_position, earlier in candidates:
        if earlier_position >= position:
            break
        if earlier.match.subsumes(clause.match):
            return earlier_position, earlier
    return None


def _session_label(session: Session, direction: str) -> str:
    """Human-readable session identifier for findings."""
    return f"AS{session.src.asn}->AS{session.dst.asn} {direction}"


def _ranking(clause: Clause) -> tuple[int | None, int | None]:
    """The (local-pref, MED) values a clause assigns."""
    return (clause.set_local_pref, clause.set_med)


def _session_maps(
    network: Network,
) -> Iterator[tuple[Session, str, RouteMap]]:
    """Yield (session, direction, route_map) for every installed map."""
    for session in network.sessions.values():
        if session.import_map is not None:
            yield session, "import", session.import_map
        if session.export_map is not None:
            yield session, "export", session.export_map


def analyze_policies(
    network: Network,
    dataset: PathDataset | None = None,
    prefix_by_origin: Mapping[int, Prefix] | None = None,
) -> list[Finding]:
    """Run all policy-lint rules.

    The dataset-dependent rules run when ``dataset`` is given, and need
    the model's ``prefix_by_origin`` to map its origins to prefixes.
    """
    findings: list[Finding] = []
    for session, direction, route_map in _session_maps(network):
        findings.extend(lint_map(session, direction, route_map))
    if dataset is not None:
        if prefix_by_origin is None:
            raise ValueError("the dataset rules need the model's prefix_by_origin")
        findings.extend(
            _blocking_filters(network, dataset, prefix_by_origin)
        )
        findings.extend(_stale_refine_clauses(network, dataset, prefix_by_origin))
    return findings


def lint_map(
    session: Session, direction: str, route_map: RouteMap
) -> list[Finding]:
    """Per-map rules: unsatisfiable, shadowed, contradictory clauses.

    Public because the certificate store re-runs it per map during
    incremental re-certification; findings come out in map-position order,
    which is deterministic for a given map state.
    """
    findings: list[Finding] = []
    label = _session_label(session, direction)
    routers = (session.src.router_id, session.dst.router_id)
    asns = tuple(sorted({session.src.asn, session.dst.asn}))
    for position, clause in route_map.entries():
        if not clause.match.is_satisfiable():
            findings.append(
                Finding(
                    rule=RULE_UNSATISFIABLE,
                    severity=Severity.WARNING,
                    message=(
                        f"{label} clause #{position}"
                        f" [{clause.match.describe()}] can never match a route"
                    ),
                    prefix=clause.match.prefix,
                    asns=asns,
                    routers=routers,
                    clauses=(clause.match.describe(),),
                )
            )
            continue
        shadow = shadower_of(route_map, position, clause)
        if shadow is None:
            continue
        earlier_position, earlier = shadow
        contradictory = (
            direction == "import"
            and clause.action is Action.PERMIT
            and earlier.action is Action.PERMIT
            and _ranking(clause) != (None, None)
            and _ranking(earlier) != (None, None)
            and _ranking(clause) != _ranking(earlier)
        )
        rule = RULE_CONTRADICTORY if contradictory else RULE_SHADOWED
        detail = (
            "assigns a different ranking than"
            if contradictory
            else "is unreachable: it is subsumed by"
        )
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.WARNING,
                message=(
                    f"{label} clause #{position} [{clause.match.describe()}] "
                    f"{detail} earlier clause #{earlier_position}"
                    f" [{earlier.match.describe()}]"
                ),
                prefix=clause.match.prefix,
                asns=asns,
                routers=routers,
                clauses=(clause.match.describe(), earlier.match.describe()),
            )
        )
    return findings


def _observed_hop_lengths(
    dataset: PathDataset,
) -> dict[tuple[int, int, int], int]:
    """Max announced-path length per (origin, receiver AS, announcer AS) hop.

    When AS ``a`` announces a route to AS ``r`` along an observed path,
    the announced AS-path is the path's suffix starting at ``a``; its
    length is what a ``path_len_lt`` export filter on the ``a -> r``
    session tests.
    """
    lengths: dict[tuple[int, int, int], int] = {}
    for origin, paths in dataset.unique_paths_by_origin().items():
        for path in paths:
            for hop in range(1, len(path)):
                key = (origin, path[hop - 1], path[hop])
                suffix_len = len(path) - hop
                if lengths.get(key, -1) < suffix_len:
                    lengths[key] = suffix_len
    return lengths


def _is_pure_length_filter(clause: Clause) -> bool:
    """True for a deny clause constraining only prefix + path-length."""
    match = clause.match
    return (
        clause.action is Action.DENY
        and match.prefix is not None
        and match.path_len_lt is not None
        and match.path_len_gt is None
        and match.from_asn is None
        and match.from_router is None
        and match.path_contains is None
        and match.path_regex is None
        and match.community is None
    )


def _blocking_filters(
    network: Network,
    dataset: PathDataset,
    prefix_by_origin: Mapping[int, Prefix],
) -> list[Finding]:
    """Quasi-routers whose filters deny every observed path reaching them.

    For each (quasi-router, prefix), partition the inbound eBGP sessions
    into those an observed training path is announced over (the sessions
    carrying *evidence*) and the rest.  A session's evidence is blocked
    when a reachable pure path-length deny filter's threshold exceeds the
    longest announced path observed on its AS hop.  The finding fires only
    when every evidence-carrying session is blocked: then no observed
    route for the prefix can ever reach the quasi-router, so the filters
    contradict the training data rather than arbitrate between siblings.
    """
    hop_lengths = _observed_hop_lengths(dataset)
    # (receiver AS, announcer AS) -> {prefix: longest announced length}.
    by_hop: dict[tuple[int, int], dict[Prefix, int]] = {}
    for (origin, receiver, announcer), length in hop_lengths.items():
        prefix = prefix_by_origin.get(origin)
        if prefix is not None:
            by_hop.setdefault((receiver, announcer), {})[prefix] = length
    findings: list[Finding] = []
    for router in network.routers.values():
        # Sessions a training path crosses are the ones carrying *evidence*;
        # all others can deliver no observed route whatever the filters say.
        evidence: dict[Prefix, int] = {}
        blocked: dict[Prefix, list[str]] = {}
        blocked_asns: dict[Prefix, set[int]] = {}
        for session in router.sessions_in:
            if not session.is_ebgp:
                continue
            hop_max = by_hop.get((router.asn, session.src.asn))
            if not hop_max:
                continue
            for prefix, observed_max in hop_max.items():
                evidence[prefix] = evidence.get(prefix, 0) + 1
                if session.export_map is None:
                    continue
                for position, clause in session.export_map.entries():
                    if not _is_pure_length_filter(clause):
                        continue
                    if clause.match.prefix != prefix:
                        continue
                    assert clause.match.path_len_lt is not None
                    if clause.match.path_len_lt <= observed_max:
                        continue
                    if shadower_of(session.export_map, position, clause):
                        continue  # an earlier clause decides first
                    blocked.setdefault(prefix, []).append(
                        f"{_session_label(session, 'export')} clause "
                        f"#{position} [{clause.match.describe()}] vs "
                        f"observed length <= {observed_max}"
                    )
                    blocked_asns.setdefault(prefix, set()).add(
                        session.src.asn
                    )
                    break  # one blocking filter per session suffices
        for prefix, clauses in sorted(blocked.items()):
            if len(clauses) < evidence.get(prefix, 0):
                continue  # some evidence-carrying session is unfiltered
            findings.append(
                Finding(
                    rule=RULE_BLOCKING_FILTER,
                    severity=Severity.ERROR,
                    message=(
                        f"every observed training path for {prefix} is "
                        f"denied on its way into quasi-router {router.name}: "
                        f"path-length filters on all {len(clauses)} "
                        "evidence-carrying session(s) exceed the longest "
                        "observed announcement, so the quasi-router can "
                        "never select an observed route"
                    ),
                    prefix=prefix,
                    asns=tuple(
                        sorted(blocked_asns.get(prefix, set()) | {router.asn})
                    ),
                    routers=(router.router_id,),
                    clauses=tuple(clauses[:_CLAUSES_PER_FINDING]),
                    omitted_count=max(0, len(clauses) - _CLAUSES_PER_FINDING),
                )
            )
    return findings


def _stale_refine_clauses(
    network: Network,
    dataset: PathDataset,
    prefix_by_origin: Mapping[int, Prefix],
) -> list[Finding]:
    """Refine-tagged clauses whose prefix no dataset origin maps to."""
    valid = {
        prefix_by_origin[origin]
        for origin in dataset.origin_asns()
        if origin in prefix_by_origin
    }
    findings: list[Finding] = []
    for session, direction, route_map in _session_maps(network):
        for position, clause in route_map.entries():
            if clause.tag not in REFINE_TAGS:
                continue
            prefix = clause.match.prefix
            if prefix is None or prefix in valid:
                continue
            findings.append(
                Finding(
                    rule=RULE_STALE_REFINE,
                    severity=Severity.WARNING,
                    message=(
                        f"{_session_label(session, direction)} clause "
                        f"#{position} carries refinement tag "
                        f"{clause.tag!r} for {prefix}, which no origin in "
                        "the dataset maps to; it is left over from other "
                        "training data"
                    ),
                    prefix=prefix,
                    asns=tuple(sorted({session.src.asn, session.dst.asn})),
                    routers=(session.src.router_id, session.dst.router_id),
                    clauses=(clause.match.describe(),),
                )
            )
    return findings
