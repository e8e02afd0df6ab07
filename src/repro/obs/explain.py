"""Decision provenance: why did the model pick this path? (``repro explain``)

:func:`explain_prefix` replays one canonical prefix, then walks the
converged state hop by hop and reports, at each AS on the way from an
observer to the origin:

* the candidate routes the deciding quasi-router chose among (with the
  decision-process step that eliminated each loser: ``deciding_step`` of
  the winner's ``rank`` key against the loser's),
* the step that made the winner unique (the winner's key against the
  runner-up's),
* every policy clause consulted for the prefix on the sessions feeding
  that quasi-router — with the refinement iteration and clause tag that
  installed it, so a MED ranking or egress filter is attributable to the
  Figure 6 cycle that created it.

The walk follows ``Route.peer_router`` links, so it names the *actual*
quasi-router chain the winning announcement travelled, not just the
AS-level path.  Without an observer, every AS holding candidates is
explained flat (no walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.attributes import RouteSource
from repro.bgp.decision import deciding_step, rank, step_name
from repro.bgp.engine import CONVERGED, DIVERGED, bounded_message_budget, simulate
from repro.bgp.router import Router
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.net.prefix import Prefix


@dataclass
class PolicyProvenance:
    """One route-map clause consulted while deciding, with its origin."""

    direction: str
    """``import`` (receiver side) or ``export`` (announcing side)."""
    session: str
    """``src -> dst`` router names of the session carrying the clause."""
    position: int
    action: str
    match: str
    tag: str | None
    iteration: int | None

    def to_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "direction": self.direction,
            "session": self.session,
            "position": self.position,
            "action": self.action,
            "match": self.match,
            "tag": self.tag,
            "iteration": self.iteration,
        }

    def render(self) -> str:
        """One text line for the CLI output."""
        provenance = ""
        if self.tag is not None:
            provenance += f"  tag={self.tag}"
        if self.iteration is not None:
            provenance += f"  iter={self.iteration}"
        return (
            f"[{self.direction} {self.session} #{self.position}] "
            f"{self.action} if {self.match}{provenance}"
        )


@dataclass
class CandidateView:
    """One candidate route as the decision process saw it."""

    as_path: tuple[int, ...]
    peer: str
    local_pref: int
    med: int
    source: str
    eliminated_by: str | None
    """Kebab-case step name, or None for the winner."""

    def to_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "as_path": list(self.as_path),
            "peer": self.peer,
            "local_pref": self.local_pref,
            "med": self.med,
            "source": self.source,
            "eliminated_by": self.eliminated_by,
        }

    def render(self) -> str:
        """One text line for the CLI output."""
        path = " ".join(map(str, self.as_path)) if self.as_path else "(local)"
        verdict = (
            "<- selected"
            if self.eliminated_by is None
            else f"eliminated at {self.eliminated_by}"
        )
        return (
            f"{path:<24} via {self.peer:<12} "
            f"lp={self.local_pref} med={self.med}  {verdict}"
        )


@dataclass
class HopExplanation:
    """The decision at one quasi-router along the winning chain."""

    asn: int
    router: str
    candidates: list[CandidateView] = field(default_factory=list)
    best_path: tuple[int, ...] | None = None
    decisive_step: str = "no-route"
    policies: list[PolicyProvenance] = field(default_factory=list)
    originates: bool = False

    def to_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "asn": self.asn,
            "router": self.router,
            "originates": self.originates,
            "best_path": list(self.best_path) if self.best_path is not None else None,
            "decisive_step": self.decisive_step,
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "policies": [policy.to_dict() for policy in self.policies],
        }


@dataclass
class PrefixExplanation:
    """Full provenance of one prefix replay."""

    prefix: Prefix
    origin: int
    observer: int | None
    status: str
    messages: int
    decisions: int
    hops: list[HopExplanation] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serialisable report (``repro explain --json``)."""
        return {
            "prefix": str(self.prefix),
            "origin": self.origin,
            "observer": self.observer,
            "replay": {
                "status": self.status,
                "messages": self.messages,
                "decisions": self.decisions,
            },
            "hops": [hop.to_dict() for hop in self.hops],
        }

    def render(self) -> str:
        """The text report (``repro explain``)."""
        where = f" observed from AS{self.observer}" if self.observer is not None else ""
        lines = [
            f"explain {self.prefix} (origin AS{self.origin}){where}",
            f"replay: {self.status}, {self.messages} messages,"
            f" {self.decisions} decisions",
        ]
        for number, hop in enumerate(self.hops, start=1):
            lines.append(f"hop {number}: AS{hop.asn} quasi-router {hop.router}")
            if hop.originates:
                lines.append("  originates the prefix locally")
            if not hop.candidates:
                lines.append("  no candidate routes")
            else:
                lines.append("  candidates:")
                for candidate in hop.candidates:
                    marker = "*" if candidate.eliminated_by is None else " "
                    lines.append(f"  {marker} {candidate.render()}")
            lines.append(f"  selected by step: {hop.decisive_step}")
            if hop.policies:
                lines.append("  policies consulted:")
                for policy in hop.policies:
                    lines.append(f"    {policy.render()}")
            else:
                lines.append("  policies consulted: (none)")
        return "\n".join(lines)


def explain_prefix(
    model: ASRoutingModel,
    prefix: Prefix,
    observer_asn: int | None = None,
) -> PrefixExplanation:
    """Replay ``prefix`` and explain its outcome.

    With ``observer_asn`` the explanation walks the winning quasi-router
    chain from the observer towards the origin; without it, every AS
    holding candidate routes is explained (sorted by ASN).  Raises
    :class:`~repro.errors.TopologyError` for a prefix the model does not
    originate.
    """
    origin = model.origin_of(prefix)
    stats = simulate(
        model.network, (prefix,), MODEL_DECISION_CONFIG,
        bounded_message_budget(model.network), on_divergence="quarantine",
    )
    explanation = PrefixExplanation(
        prefix=prefix,
        origin=origin,
        observer=observer_asn,
        status=DIVERGED if stats.quarantined else CONVERGED,
        messages=stats.messages,
        decisions=stats.decisions,
    )
    if observer_asn is not None:
        explanation.hops = _walk_winning_chain(model, prefix, observer_asn)
    else:
        explanation.hops = [
            _explain_router(model, prefix, router)
            for asn in sorted(model.network.ases)
            for router in model.quasi_routers(asn)
            if router.candidates(prefix)
        ]
    return explanation


def _walk_winning_chain(
    model: ASRoutingModel, prefix: Prefix, observer_asn: int
) -> list[HopExplanation]:
    """Follow ``peer_router`` links from the observer to the origin."""
    routers = [
        router
        for router in model.quasi_routers(observer_asn)
        if router.best(prefix) is not None
    ]
    if not routers:
        # Nothing converged at the observer: explain its routers flat so
        # the user still sees the candidates (if any) and the no-route
        # verdict instead of an empty report.
        return [
            _explain_router(model, prefix, router)
            for router in model.quasi_routers(observer_asn)
        ]
    hops: list[HopExplanation] = []
    current: Router | None = min(routers, key=lambda router: router.router_id)
    seen: set[int] = set()
    while current is not None and current.router_id not in seen:
        seen.add(current.router_id)
        hops.append(_explain_router(model, prefix, current))
        best = current.best(prefix)
        if best is None or best.source is RouteSource.LOCAL or not best.peer_router:
            break
        current = model.network.routers.get(best.peer_router)
    return hops


def _explain_router(
    model: ASRoutingModel, prefix: Prefix, router: Router
) -> HopExplanation:
    """Explain the converged decision at one quasi-router, off ``rank`` keys."""
    candidates = router.candidates(prefix)
    ranked = sorted(candidates, key=rank)
    winner = rank(ranked[0]) if ranked else ()
    hop = HopExplanation(
        asn=router.asn,
        router=router.name,
        originates=prefix in router.local_routes,
    )
    if ranked:
        hop.best_path = ranked[0].as_path
        hop.decisive_step = step_name(
            deciding_step(winner, rank(ranked[1])) if len(ranked) > 1 else None
        )
    names = {r.router_id: r.name for r in model.network.routers.values()}
    for route in candidates:
        step = deciding_step(winner, rank(route))
        hop.candidates.append(
            CandidateView(
                as_path=route.as_path,
                peer=names.get(route.peer_router, "(local)"),
                local_pref=route.local_pref,
                med=route.med,
                source=route.source.name.lower(),
                eliminated_by=None if step is None else step_name(step),
            )
        )
    hop.policies = _consulted_policies(prefix, router)
    return hop


def _consulted_policies(prefix: Prefix, router: Router) -> list[PolicyProvenance]:
    """Every clause that could touch ``prefix`` on the way into ``router``.

    For each inbound session: the announcing side's *export* map (where
    the refiner's egress filters live) and the receiving side's *import*
    map (where its MED rankings live), restricted to clauses whose match
    could apply to the prefix.
    """
    policies: list[PolicyProvenance] = []
    for session in router.sessions_in:
        label = f"{session.src.name}->{session.dst.name}"
        for direction, route_map in (
            ("export", session.export_map),
            ("import", session.import_map),
        ):
            if route_map is None:
                continue
            for position, clause in route_map.resolve(prefix):
                policies.append(
                    PolicyProvenance(
                        direction=direction,
                        session=label,
                        position=position,
                        action=_action_text(clause),
                        match=clause.match.describe(),
                        tag=clause.tag,
                        iteration=clause.iteration,
                    )
                )
    return policies


def _action_text(clause) -> str:
    """Compact action description for provenance lines."""
    if clause.action.value == "deny":
        return "deny"
    changes = []
    if clause.set_local_pref is not None:
        changes.append(f"set lp={clause.set_local_pref}")
    if clause.set_med is not None:
        changes.append(f"set med={clause.set_med}")
    if clause.prepend:
        changes.append(f"prepend x{clause.prepend}")
    return "permit" + (" " + ",".join(changes) if changes else "")
