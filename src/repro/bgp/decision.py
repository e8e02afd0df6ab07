"""The BGP decision process (Figure 1 of the paper).

Given the candidate routes for one prefix at one router, the decision
process eliminates candidates step by step until a single best route
remains:

1. highest ``local-pref``
2. shortest AS-path
3. lowest ORIGIN code
4. lowest MED — either compared only among routes from the same neighbour
   AS (standard) or across all neighbours ("always-compare", which the
   paper's refinement heuristic requires, Section 4.6)
5. locally-originated over eBGP-learned over iBGP-learned
6. lowest IGP cost to the NEXT_HOP (hot-potato routing)
7. shortest CLUSTER_LIST (RFC 4456, relevant only with route reflection)
8. lowest neighbour router id — the ORIGINATOR_ID when the route was
   reflected (the final tie-break; Section 4.5 assigns router ids so this
   step is deterministic)

Why a route lost is :func:`deciding_step` of the winner's :func:`rank` key
against its own; the "potential RIB-Out match" metric of Section 4.2 is
exactly "eliminated at :data:`Step.ROUTER_ID`".  :func:`run_decision`
replays the steps one by one, the reference the tests judge both against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bgp.route import Route


class Step(enum.IntEnum):
    """Decision-process steps, in evaluation order."""

    LOCAL_PREF = 1
    PATH_LENGTH = 2
    ORIGIN = 3
    MED = 4
    EBGP_OVER_IBGP = 5
    IGP_COST = 6
    CLUSTER_LIST = 7
    ROUTER_ID = 8


@dataclass(frozen=True)
class DecisionConfig:
    """Tunable behaviour of the decision process.

    ``med_always_compare``
        Compare MED across routes from different neighbour ASes, as the
        paper's model requires ("We require that MED values are always
        compared during the BGP decision process, even for routes learned
        from different neighbor ASes", Section 4.6).
    ``use_igp_cost``
        Enable the hot-potato step; the quasi-router model has no IGP, the
        ground-truth substrate does.
    """

    med_always_compare: bool = False
    use_igp_cost: bool = True

    @property
    def total_order(self) -> bool:
        """True when the whole process is the minimum of :func:`rank`.

        The quasi-router model (Section 4.6) has neither per-neighbour MED
        nor an IGP.  Under any other config :func:`rank` with the deciding
        router's IGP cost is the process only while every candidate
        carries the same MED (the engine counts those that do not).
        """
        return self.med_always_compare and not self.use_igp_cost


@dataclass
class DecisionOutcome:
    """Result of one decision-process run.

    ``best`` is ``None`` only when there were no candidates.  ``eliminated``
    maps every non-best candidate to the :class:`Step` that removed it.
    """

    best: Route | None
    eliminated: dict[int, Step] = field(default_factory=dict)
    candidates: tuple[Route, ...] = ()

    def elimination_step(self, route: Route) -> Step | None:
        """The step that eliminated ``route``, or None if it is the best route."""
        return self.eliminated.get(id(route))

    @property
    def decisive_step(self) -> Step | None:
        """The step at which the winner became unique.

        Eliminations happen in step order, so the decisive step is the
        latest one that removed a candidate.  None when the decision was
        trivial: no candidates, or a single candidate that never had to
        beat anything.
        """
        if not self.eliminated:
            return None
        return max(self.eliminated.values())

    def survivors_until(self, step: Step) -> list[Route]:
        """Candidates that were still alive when ``step`` began."""
        return [
            route
            for route in self.candidates
            if id(route) not in self.eliminated or self.eliminated[id(route)] >= step
        ]


def step_name(step: Step | None) -> str:
    """Human-readable kebab-case name for a step (``"only-candidate"`` for None).

    The None case names the degenerate decision: one candidate, nothing
    to eliminate — what ``repro explain`` prints when a router never had
    a real choice.
    """
    if step is None:
        return "only-candidate"
    return step.name.lower().replace("_", "-")


IgpCostFn = Callable[[Route], float]


def _zero_igp_cost(route: Route) -> float:
    return 0.0


def run_decision(
    candidates: Sequence[Route],
    config: DecisionConfig = DecisionConfig(),
    igp_cost: IgpCostFn = _zero_igp_cost,
) -> DecisionOutcome:
    """Run the decision process over ``candidates`` and return the outcome.

    ``igp_cost`` maps a route to the IGP distance from the deciding router
    to the route's NEXT_HOP (0 for eBGP-learned and local routes).
    """
    outcome = DecisionOutcome(best=None, candidates=tuple(candidates))
    alive: list[Route] = list(candidates)
    if not alive:
        return outcome

    def eliminate(step: Step, keep: list[Route]) -> None:
        kept_ids = {id(route) for route in keep}
        for route in alive:
            if id(route) not in kept_ids:
                outcome.eliminated[id(route)] = step
        alive[:] = keep

    if len(alive) > 1:
        best_lp = max(route.local_pref for route in alive)
        eliminate(
            Step.LOCAL_PREF, [r for r in alive if r.local_pref == best_lp]
        )
    if len(alive) > 1:
        best_len = min(len(route.as_path) for route in alive)
        eliminate(
            Step.PATH_LENGTH, [r for r in alive if len(r.as_path) == best_len]
        )
    if len(alive) > 1:
        best_origin = min(route.origin for route in alive)
        eliminate(Step.ORIGIN, [r for r in alive if r.origin == best_origin])
    if len(alive) > 1:
        eliminate(Step.MED, _med_survivors(alive, config.med_always_compare))
    if len(alive) > 1:
        best_source = min(route.source for route in alive)
        eliminate(
            Step.EBGP_OVER_IBGP, [r for r in alive if r.source == best_source]
        )
    if len(alive) > 1 and config.use_igp_cost:
        costs = {id(route): igp_cost(route) for route in alive}
        best_cost = min(costs.values())
        eliminate(
            Step.IGP_COST, [r for r in alive if costs[id(r)] == best_cost]
        )
    if len(alive) > 1:
        best_cluster = min(len(route.cluster_list) for route in alive)
        eliminate(
            Step.CLUSTER_LIST,
            [r for r in alive if len(r.cluster_list) == best_cluster],
        )
    if len(alive) > 1:
        # Final tie-break: lowest neighbour router id (ORIGINATOR_ID for
        # reflected routes).  Locally-originated routes carry peer_router 0
        # and therefore win, but they can only tie with another local route
        # if a prefix is originated twice at the same router, which the
        # network builder forbids.
        best_key = min(_router_id_key(route) for route in alive)
        eliminate(
            Step.ROUTER_ID,
            [r for r in alive if _router_id_key(r) == best_key],
        )

    outcome.best = alive[0]
    return outcome


def rank(route: Route, igp_cost: float = 0.0) -> tuple:
    """The decision process at one router as one sort key: the best route
    has the least.

    ``igp_cost`` is the deciding router's IGP distance to the route's
    NEXT_HOP (0 for a route that is not iBGP, and under a config without
    the hot-potato step).  The key is the whole process under
    :attr:`DecisionConfig.total_order`, and under any config while every
    candidate carries the same MED: each step then keeps the minimum of
    one attribute, so the cascade is one lexicographic minimum.  It is
    strict among the candidates of one router: each was learned over a
    different session, sessions are unique per router pair, so
    ``peer_router`` differs (0 for the one locally-originated route).
    The engine relies on that to decide a message against the standing
    best alone (see ``_decide_and_export``).
    """
    return (
        -route.local_pref,
        len(route.as_path),
        route.origin,
        route.med,
        route.source,
        igp_cost,
        len(route.cluster_list),
        route.originator_id or route.peer_router,
        route.peer_router,
        route.next_hop,
    )


def deciding_step(winner_key: tuple, other_key: tuple) -> Step | None:
    """The first field where two :func:`rank` keys differ, as a step (fields
    0-6 are steps 1-7, fields 7-9 the router-id tie-break; None if equal).

    Against the runner-up's key it is the step that made the winner unique.
    """
    for field_index, (won, lost) in enumerate(zip(winner_key, other_key)):
        if won != lost:
            return Step(min(field_index + 1, Step.ROUTER_ID))
    return None


def select_best(
    candidates: Sequence[Route],
    config: DecisionConfig = DecisionConfig(),
    igp_cost: IgpCostFn = _zero_igp_cost,
) -> Route | None:
    """Fast path: the winning route only, without elimination bookkeeping.

    Behaviourally identical to ``run_decision(...).best``; the propagation
    engine calls this in its inner loop, while *why* a route lost is read
    off :func:`rank` keys by :func:`deciding_step`.

    Consecutive steps that each keep the minimum of one attribute are one
    lexicographic minimum, so steps 1-3 are a single pass and so are steps
    6-8, after step 5 has settled the source (``igp_cost`` is asked only
    about routes that survive step 5, exactly as in :func:`run_decision`).
    Per-neighbour MED is not a total order — a route is only ever beaten
    by a route from its own neighbour AS — so step 4 stays a filter
    between the two — unless the config makes the process a total order,
    when the winner is simply the minimum of :func:`rank`.  Ties keep the
    earliest candidate, as ``min`` does.
    """
    if len(candidates) < 2:
        return candidates[0] if candidates else None
    if config.total_order:
        return min(candidates, key=rank)
    head = None
    alive: list[Route] = []
    for route in candidates:
        key = (-route.local_pref, len(route.as_path), route.origin)
        if head is None or key < head:
            head = key
            alive = [route]
        elif key == head:
            alive.append(route)
    if len(alive) == 1:
        return alive[0]
    meds = [route.med for route in alive]
    if min(meds) != max(meds):
        alive = _med_survivors(alive, config.med_always_compare)
        if len(alive) == 1:
            return alive[0]
    sources = [route.source for route in alive]
    best_source = min(sources)
    if sources.count(best_source) == 1:
        return alive[sources.index(best_source)]
    use_igp_cost = config.use_igp_cost
    best = tail = None
    for route in alive:
        if route.source != best_source:
            continue
        key = (
            igp_cost(route) if use_igp_cost else 0.0,
            len(route.cluster_list),
            route.originator_id or route.peer_router,
            route.peer_router,
            route.next_hop,
        )
        if tail is None or key < tail:
            best = route
            tail = key
    return best


def _med_survivors(alive: Sequence[Route], always_compare: bool) -> list[Route]:
    """Apply the MED step.

    With ``always_compare`` the MED is a global metric: keep the minimum.
    Otherwise MEDs are only comparable among routes from the same neighbour
    AS: within each neighbour-AS group keep only that group's minimum —
    which is again the global minimum when every route came from one
    neighbour.
    """
    if always_compare or len({route.peer_asn for route in alive}) == 1:
        best_med = min([route.med for route in alive])
        return [route for route in alive if route.med == best_med]
    best_per_asn: dict[int, int] = {}
    for route in alive:
        current = best_per_asn.get(route.peer_asn)
        if current is None or route.med < current:
            best_per_asn[route.peer_asn] = route.med
    return [route for route in alive if route.med == best_per_asn[route.peer_asn]]


def _router_id_key(route: Route) -> tuple[int, int, int]:
    """Tie-break key: ORIGINATOR_ID (if reflected), then peer, then next hop."""
    first = route.originator_id if route.originator_id else route.peer_router
    return (first, route.peer_router, route.next_hop)
