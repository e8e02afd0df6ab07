"""Static safety analysis: dispute-digraph construction and wheel detection.

BGP safety (guaranteed convergence) is a property of the per-prefix route
*rankings* the policies realise (Griffin et al.'s dispute-wheel
condition).  This pass extracts, without simulating, the strict
preferences the installed route-maps encode and searches them for cycles:

* a **local-pref edge** ``A -> B`` exists for a prefix when a reachable
  import clause at a quasi-router of AS ``A`` raises local-pref above the
  default for routes announced by AS ``B`` — AS ``A`` then prefers routes
  via ``B`` over any route at default preference, regardless of AS-path
  length;
* a **MED edge** ``r -> r'`` exists when quasi-router ``r``'s per-session
  MED rankings (with always-compare MED, the model's decision config)
  strictly prefer neighbour quasi-router ``r'`` among its sessions.

A cycle of local-pref edges spanning three or more ASes is the classic
"bad gadget" — a potential dispute wheel with no stable solution — and is
reported as an error; it is exactly the structure
:func:`repro.resilience.faults.inject_dispute_wheel` installs.  Two-AS
mutual preference (DISAGREE) and MED-level cycles have stable solutions
under deterministic message ordering, so they are reported as warnings.

The converse direction keeps the analysis sound for the paper's refined
models: Section 4.6 refinement never touches local-pref (only MED and
deny filters keyed to the loop-free observed paths), and Gao-Rexford
relationship policies keep customer routes *at* the default preference,
so neither produces a local-pref edge, let alone a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.policy_lint import shadower_of
from repro.bgp.attributes import DEFAULT_LOCAL_PREF, DEFAULT_MED
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, RouteMap
from repro.bgp.router import Router
from repro.net.prefix import Prefix

RULE_DISPUTE_WHEEL = "safety-dispute-wheel"
RULE_MUTUAL_PREFERENCE = "safety-mutual-preference"
RULE_MED_CYCLE = "safety-med-cycle"

_CLAUSES_PER_FINDING = 12
"""At most this many participating clauses are named per finding."""


@dataclass(frozen=True)
class PreferenceEdge:
    """One strict preference extracted from an import route-map.

    The quasi-router ``router_id`` (of AS ``asn``) prefers, for ``prefix``
    (``None`` = every prefix), routes announced by ``neighbor_router_id``
    (of AS ``neighbor_asn``) because of ``clause``.
    """

    prefix: Prefix | None
    router_id: int
    asn: int
    neighbor_router_id: int
    neighbor_asn: int
    kind: str
    clause: str


def _describe_clause(
    src_asn: int, dst_asn: int, position: int, clause: Clause
) -> str:
    """Name one import clause the way findings report it."""
    effect = []
    if clause.set_local_pref is not None:
        effect.append(f"local-pref {clause.set_local_pref}")
    if clause.set_med is not None:
        effect.append(f"med {clause.set_med}")
    tag = f" (tag {clause.tag!r})" if clause.tag else ""
    return (
        f"AS{src_asn}->AS{dst_asn} import #{position}"
        f" [{clause.match.describe()}] -> {', '.join(effect) or clause.action.value}"
        f"{tag}"
    )


def _is_reachable(route_map: RouteMap, position: int, clause: Clause) -> bool:
    """True unless an earlier clause shadows ``clause`` entirely."""
    return clause.match.is_satisfiable() and (
        shadower_of(route_map, position, clause) is None
    )


def collect_preference_edges(network: Network) -> list[PreferenceEdge]:
    """Extract every strict-preference edge the import policies encode."""
    edges: list[PreferenceEdge] = []
    for router in network.routers.values():
        edges.extend(_local_pref_edges(router))
        edges.extend(_med_edges(router))
    return edges


def _local_pref_edges(router: Router) -> list[PreferenceEdge]:
    """Edges from clauses raising local-pref above the default."""
    edges: list[PreferenceEdge] = []
    for session in router.sessions_in:
        if not session.is_ebgp or session.import_map is None:
            continue
        for position, clause in session.import_map.entries():
            if clause.action is not Action.PERMIT:
                continue
            if clause.set_local_pref is None:
                continue
            if clause.set_local_pref <= DEFAULT_LOCAL_PREF:
                continue
            if not _is_reachable(session.import_map, position, clause):
                continue
            edges.append(
                PreferenceEdge(
                    prefix=clause.match.prefix,
                    router_id=router.router_id,
                    asn=router.asn,
                    neighbor_router_id=session.src.router_id,
                    neighbor_asn=session.src.asn,
                    kind="local-pref",
                    clause=_describe_clause(
                        session.src.asn, router.asn, position, clause
                    ),
                )
            )
    return edges


def _med_edges(router: Router) -> list[PreferenceEdge]:
    """Edges from per-session MED rankings with a unique strict minimum.

    Only exact-prefix MED clauses are considered: that is the shape the
    Section 4.6 refiner installs, and generic MED rewrites carry no
    neighbour preference the digraph could use.  Sessions without a MED
    clause for the prefix compete at the announced default MED.
    """
    # prefix -> session id -> (position, clause) of its first MED clause;
    # only the winning clause is ever described.
    by_prefix: dict[Prefix, dict[int, tuple[int, Clause]]] = {}
    ranked_sessions = []
    for session in router.sessions_in:
        if not session.is_ebgp or session.import_map is None:
            continue
        ranked_sessions.append(session)
        for position, clause in session.import_map.entries():
            if clause.action is not Action.PERMIT or clause.set_med is None:
                continue
            if clause.match.prefix is None:
                continue
            if not _is_reachable(session.import_map, position, clause):
                continue
            per_session = by_prefix.setdefault(clause.match.prefix, {})
            if session.session_id in per_session:
                continue  # first matching clause wins
            per_session[session.session_id] = (position, clause)
    edges: list[PreferenceEdge] = []
    session_by_id = {s.session_id: s for s in ranked_sessions}
    for prefix, per_session in by_prefix.items():
        meds = {
            session_id: (
                per_session[session_id][1].set_med
                if session_id in per_session else DEFAULT_MED
            )
            for session_id in session_by_id
        }
        best = min(meds.values())
        winners = [sid for sid, med in meds.items() if med == best]
        if len(winners) != 1:
            continue
        winner = session_by_id[winners[0]]
        if winners[0] in per_session:
            description = _describe_clause(
                winner.src.asn, router.asn, *per_session[winners[0]]
            )
        else:
            description = (
                f"AS{winner.src.asn}->AS{router.asn} import"
                f" [prefix is {prefix}] -> med {best} (announced default)"
            )
        edges.append(
            PreferenceEdge(
                prefix=prefix,
                router_id=router.router_id,
                asn=router.asn,
                neighbor_router_id=winner.src.router_id,
                neighbor_asn=winner.src.asn,
                kind="med",
                clause=description,
            )
        )
    return edges


def strongly_connected_components(
    graph: dict[int, set[int]]
) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative (policy graphs can be deep)."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work: list[tuple[int, Iterator[int]]] = [
            (root, iter(sorted(graph.get(root, ()))))
        ]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _cyclic_components(graph: dict[int, set[int]]) -> list[list[int]]:
    """SCCs that contain at least one cycle (size >= 2; no self-edges here)."""
    return [
        sorted(component)
        for component in strongly_connected_components(graph)
        if len(component) >= 2
    ]


def edge_sort_key(edge: PreferenceEdge) -> tuple[int, int, str, str, str]:
    """Canonical edge ordering shared by the full and incremental passes.

    Findings name at most ``_CLAUSES_PER_FINDING`` participating clauses,
    so the *order* in which edges are considered is part of the output;
    sorting here makes that order a function of the edge set alone, not of
    router-iteration order — the invariant the certificate store's
    bit-for-bit equality gate relies on.
    """
    return (
        edge.router_id,
        edge.neighbor_router_id,
        str(edge.prefix) if edge.prefix is not None else "",
        edge.kind,
        edge.clause,
    )


def group_safety_edges(
    edges: list[PreferenceEdge],
) -> tuple[
    list[PreferenceEdge],
    dict[Prefix, list[PreferenceEdge]],
    dict[Prefix, list[PreferenceEdge]],
]:
    """Split edges into (global local-pref, per-prefix local-pref, per-prefix MED)."""
    global_lp: list[PreferenceEdge] = []
    lp_by_prefix: dict[Prefix, list[PreferenceEdge]] = {}
    med_by_prefix: dict[Prefix, list[PreferenceEdge]] = {}
    for edge in edges:
        if edge.kind == "local-pref":
            if edge.prefix is None:
                global_lp.append(edge)
            else:
                lp_by_prefix.setdefault(edge.prefix, []).append(edge)
        elif edge.prefix is not None:
            med_by_prefix.setdefault(edge.prefix, []).append(edge)
    return global_lp, lp_by_prefix, med_by_prefix


def local_pref_findings_for_prefix(
    prefix: Prefix, graph_edges: list[PreferenceEdge]
) -> list[Finding]:
    """Cycle findings over one prefix's AS-granularity local-pref digraph.

    ``graph_edges`` must contain the prefix's own local-pref edges *plus*
    every prefix-agnostic (``prefix is None``) local-pref edge, since those
    participate in every prefix's graph.
    """
    graph_edges = sorted(graph_edges, key=edge_sort_key)
    graph: dict[int, set[int]] = {}
    for edge in graph_edges:
        graph.setdefault(edge.asn, set()).add(edge.neighbor_asn)
        graph.setdefault(edge.neighbor_asn, set())
    findings: list[Finding] = []
    for component in _cyclic_components(graph):
        members = set(component)
        involved = [
            e
            for e in graph_edges
            if e.asn in members and e.neighbor_asn in members
        ]
        severity = Severity.ERROR if len(component) >= 3 else Severity.WARNING
        rule = (
            RULE_DISPUTE_WHEEL
            if len(component) >= 3
            else RULE_MUTUAL_PREFERENCE
        )
        noun = (
            "potential dispute wheel"
            if len(component) >= 3
            else "mutual local-pref preference (DISAGREE gadget)"
        )
        findings.append(
            Finding(
                rule=rule,
                severity=severity,
                message=(
                    f"{noun}: local-pref rankings of ASes "
                    f"{' -> '.join(f'AS{a}' for a in component)} form a cycle; "
                    "BGP may not converge for this prefix"
                ),
                prefix=prefix,
                asns=tuple(component),
                routers=tuple(sorted({e.router_id for e in involved})),
                clauses=tuple(
                    e.clause for e in involved[:_CLAUSES_PER_FINDING]
                ),
                omitted_count=max(0, len(involved) - _CLAUSES_PER_FINDING),
            )
        )
    return findings


def med_findings_for_prefix(
    prefix: Prefix, edges: list[PreferenceEdge]
) -> list[Finding]:
    """Cycle findings over one prefix's quasi-router MED digraph."""
    edges = sorted(edges, key=edge_sort_key)
    graph: dict[int, set[int]] = {}
    for edge in edges:
        graph.setdefault(edge.router_id, set()).add(edge.neighbor_router_id)
        graph.setdefault(edge.neighbor_router_id, set())
    findings: list[Finding] = []
    for component in _cyclic_components(graph):
        members = set(component)
        involved = [
            e
            for e in edges
            if e.router_id in members and e.neighbor_router_id in members
        ]
        findings.append(
            Finding(
                rule=RULE_MED_CYCLE,
                severity=Severity.WARNING,
                message=(
                    "MED rankings of "
                    f"{len(component)} quasi-routers form a preference "
                    "cycle; convergence relies on tie-breaking order"
                ),
                prefix=prefix,
                asns=tuple(sorted({e.asn for e in involved})),
                routers=tuple(component),
                clauses=tuple(
                    e.clause for e in involved[:_CLAUSES_PER_FINDING]
                ),
                omitted_count=max(0, len(involved) - _CLAUSES_PER_FINDING),
            )
        )
    return findings


def analyze_safety(
    network: Network, prefixes: list[Prefix] | None = None
) -> list[Finding]:
    """Run the dispute-digraph pass; one finding per preference cycle."""
    edges = collect_preference_edges(network)
    scoped = prefixes if prefixes is not None else network.prefixes()
    global_lp, lp_by_prefix, med_by_prefix = group_safety_edges(edges)
    targets: list[Prefix]
    if global_lp:
        # Prefix-agnostic preferences participate in every prefix's graph.
        targets = sorted(set(scoped) | set(lp_by_prefix))
    else:
        targets = sorted(lp_by_prefix)
    findings: list[Finding] = []
    for prefix in targets:
        findings.extend(
            local_pref_findings_for_prefix(
                prefix, lp_by_prefix.get(prefix, []) + global_lp
            )
        )
    for prefix in sorted(med_by_prefix):
        findings.extend(med_findings_for_prefix(prefix, med_by_prefix[prefix]))
    return findings


def unsafe_prefixes(network: Network) -> list[Prefix]:
    """Prefixes with an error-level safety finding (the lint-gate set)."""
    unsafe: set[Prefix] = set()
    for finding in analyze_safety(network):
        if finding.severity is Severity.ERROR:
            if finding.prefix is not None:
                unsafe.add(finding.prefix)
            else:
                unsafe.update(network.prefixes())
    return sorted(unsafe)
