"""Event-driven per-prefix BGP propagation to convergence.

The engine reproduces what C-BGP computes for the paper (Section 2): "the
paths that routers know once the BGP routing has converged", by modelling
the propagation of BGP messages and executing the decision process at each
router.  Routing for different prefixes is independent (Section 4.2:
"Since routing decisions are determined independently for each prefix we
run a separate simulation for each prefix"), so the unit of work is
:func:`simulate_prefix` — or :func:`resume_prefix`, which seeds the same
message loop from the converged state the routers already hold after a
perturbation instead of from nothing.

Message processing is FIFO and single-threaded, so results are fully
deterministic.  A message budget guards against policy configurations
that make BGP diverge (e.g. local-pref dispute wheels, Section 4.6's
motivation for avoiding local-pref in the refined model); exceeding it
raises :class:`~repro.errors.ConvergenceError` (a
:class:`~repro.errors.SimulationError`) carrying the prefix and the
exhausted budget; :func:`simulate` with ``on_divergence="quarantine"`` is
the one place it is caught, and :class:`EngineStats` the one record of
what a simulation did, quarantines included.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.bgp.attributes import DEFAULT_LOCAL_PREF, DEFAULT_MED, RouteSource
from repro.bgp.decision import (
    DecisionConfig,
    IgpCostFn,
    deciding_step,
    rank,
    run_decision,
    select_best,
    step_name,
)
from repro.bgp.network import Lease, Network
from repro.bgp.route import Route
from repro.bgp.router import Router
from repro.bgp.session import Session
from repro.errors import ConvergenceError
from repro.bgp.policy import MAP_STATS, RouteMap
from repro.net.community import NO_ADVERTISE, NO_EXPORT
from repro.net.prefix import Prefix
from repro.obs.metrics import get_registry, labelled
from repro.obs.profile import (
    PHASE_DECISION,
    PHASE_DISPATCH,
    PHASE_EXPORT,
    PHASE_RIB_MERGE,
    PHASE_ROUTE_MAP,
    PhaseProfiler,
    get_profiler,
)
from repro.obs.trace import (
    EVENT_BUDGET_EXHAUSTED,
    EVENT_DECISION,
    EVENT_QUARANTINE,
    Tracer,
    get_tracer,
)

logger = logging.getLogger(__name__)

_EBGP = RouteSource.EBGP
_IBGP = RouteSource.IBGP


CONVERGED = "converged"
DIVERGED, UNSAFE, POISON, TIMEOUT = "diverged", "unsafe", "poison", "timeout"
QUARANTINE_REASONS = (DIVERGED, UNSAFE, POISON, TIMEOUT)
"""Why a prefix carries no routes: it exhausted its message budget, the
static lint gate quarantined it before any simulation, or every
supervised dispatch of it crashed its worker (``poison``) or hit the
per-task watchdog (``timeout``) — see :mod:`repro.parallel`."""


class Quarantine(NamedTuple):
    """One quarantined prefix: why, and what it cost.

    ``messages`` and ``budget`` are the diverged run's (``budget + 1``
    messages); a gated or supervised prefix spent none.  ``resubmits``
    counts the fresh workers the pool gave a ``poison`` / ``timeout``
    prefix after its first dispatch.
    """

    prefix: Prefix
    reason: str
    messages: int = 0
    budget: int = 0
    resubmits: int = 0


@dataclass
class EngineStats:
    """Counters accumulated while simulating, and what was quarantined."""

    prefixes: int = 0
    resumes: int = 0
    """Prefixes brought to convergence by :func:`resume_prefix` — from the
    state they held, not from nothing; not counted in ``prefixes``."""
    messages: int = 0
    decisions: int = 0
    candidates_ranked: int = 0
    """Routes the decision process looked at: every candidate of a full
    scan, or the arrival and the standing best (a withdrawal: the best
    alone) when a message is decided incrementally."""
    clauses_evaluated: int = 0
    """Route-map clauses evaluated (import + export maps)."""
    clauses_matched: int = 0
    """Route-map clauses whose match predicate fired."""
    budget_exhaustions: int = 0
    """Times a per-prefix simulation hit its message budget.

    Non-zero means some output was produced by giving up, not by
    converging: a quarantined prefix (``diverged``).  Health reports and
    ``repro stats`` surface this so a starved run is visibly reported
    rather than silently truncated.
    """
    per_prefix_messages: dict[Prefix, int] = field(default_factory=dict)
    quarantined: list[Quarantine] = field(default_factory=list)
    """Every prefix left without routes, in the order it was quarantined:
    by :func:`simulate` (``diverged``), or by a caller that records the
    lint gate's (``unsafe``) or the pool's (``poison`` / ``timeout``)."""
    supervision: dict | None = None
    """The pool's supervision summary (spawns, crashes, resubmits, ...)
    when the prefixes were fanned out to one; None otherwise."""

    @property
    def diverged(self) -> list[Prefix]:
        """Prefixes quarantined for exhausting their message budget."""
        return [q.prefix for q in self.quarantined if q.reason == DIVERGED]

    def merge(self, other: "EngineStats") -> None:
        """Fold ``other`` into this stats object."""
        self.prefixes += other.prefixes
        self.resumes += other.resumes
        self.messages += other.messages
        self.decisions += other.decisions
        self.candidates_ranked += other.candidates_ranked
        self.clauses_evaluated += other.clauses_evaluated
        self.clauses_matched += other.clauses_matched
        self.budget_exhaustions += other.budget_exhaustions
        self.per_prefix_messages.update(other.per_prefix_messages)
        self.quarantined.extend(other.quarantined)
        if other.supervision is not None:
            self.supervision = other.supervision


def default_message_budget(network: Network) -> int:
    """The per-prefix message budget used when the caller does not set one.

    Scales with the session count so bigger topologies get proportionally
    more room before a simulation is declared divergent.
    """
    return 2000 + 400 * max(1, len(network.sessions))


def bounded_message_budget(network: Network, max_messages: int | None = None) -> int:
    """``max_messages``, or the budget of a run that must survive divergence.

    ``None`` means sixteen times :func:`default_message_budget`, capped at
    two million: room enough that exhausting it means a dispute wheel,
    not a big topology.
    """
    if max_messages is not None:
        return max_messages
    return min(16 * default_message_budget(network), 2_000_000)


def simulate(
    network: Network,
    prefixes: Iterable[Prefix] | None = None,
    config: DecisionConfig = DecisionConfig(),
    max_messages: int | None = None,
    on_divergence: str = "raise",
    dropped: Sequence[Session] = (),
    reoriginated: Sequence[Router] = (),
) -> EngineStats:
    """Simulate every prefix (or the given subset) to convergence.

    ``on_divergence`` controls what happens when one prefix exceeds its
    message budget: ``"raise"`` re-raises the
    :class:`~repro.errors.ConvergenceError` (discarding nothing the caller
    already holds, but ending the run), while ``"quarantine"`` clears the
    prefix's partial routing state, records it in the returned stats'
    ``quarantined`` list (reason ``diverged``), counts it under
    ``retry.quarantined``, sends a ``quarantine`` trace event and keeps
    simulating the remaining prefixes.

    Quarantining is the one bounded front door for everything above the
    engine that must survive divergence: each prefix runs once, at one
    budget (``None``: :func:`default_message_budget`; the callers above
    the engine pass :func:`bounded_message_budget`).  Re-running from
    message 0 with more room would buy nothing: the engine is a
    deterministic FIFO fixed point, so an attempt at budget ``B`` is the
    first ``B`` messages of any bigger one.

    ``dropped`` and ``reoriginated`` name what changed in the network
    since the state its routers hold converged (see :func:`resume_prefix`,
    whose precondition is then the caller's to keep): with either given,
    a prefix that holds state is resumed from it; one that holds none is
    simulated from scratch, as every prefix is when neither is given.
    """
    if on_divergence not in ("raise", "quarantine"):
        raise ValueError(f"on_divergence must be 'raise' or 'quarantine', got {on_divergence!r}")
    stats = EngineStats()
    targets = list(prefixes) if prefixes is not None else network.prefixes()
    perturbed = bool(dropped or reoriginated)
    for prefix in targets:
        try:
            if perturbed and network.holds_state(prefix):
                stats.merge(resume_prefix(
                    network, prefix, config, max_messages, dropped, reoriginated
                ))
            else:
                stats.merge(simulate_prefix(network, prefix, config, max_messages))
        except ConvergenceError as error:
            if on_divergence == "raise":
                raise
            network.clear_prefix(prefix)
            stats.merge(error.stats)
            stats.quarantined.append(
                Quarantine(prefix, DIVERGED, error.messages_used, error.budget)
            )
            logger.warning(
                "quarantined %s after %d messages (budget %d)",
                prefix, error.messages_used, error.budget,
            )
            get_registry().counter("retry.quarantined").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    EVENT_QUARANTINE,
                    prefix=str(prefix),
                    messages=error.messages_used,
                    final_budget=error.budget,
                )
    return stats


class _PrefixRun:
    """The working set of one :func:`simulate_prefix` call.

    Everything a message touches is reached from here by router id (an
    ``int``) instead of through the routers' per-prefix dicts, whose keys
    hash at Python level: ``rib_in`` / ``rib_out`` alias the routers' own
    ``adj_rib_in[prefix]`` / ``adj_rib_out[prefix]`` dicts from first
    touch on, ``loc_rib`` mirrors their ``loc_rib[prefix]`` entries (the
    routers' dicts are written through on every change, so an exception
    leaves the same partial state as ever), ``touched`` is the network's
    own touched set, and ``ranks`` holds the decision key of every
    ``loc_rib`` entry the run decided, written and dropped with it, and
    of a best a resume found standing once a decision first reads it:
    ``rank``, or ``rank_at`` (rank with the router's hot-potato cost)
    under a config with an IGP.  Under per-neighbour MED ``meds`` counts
    each router's Adj-RIB-In routes with a non-default MED.  All of it depends on the
    config alone; ``tracer`` and ``profiler`` only observe.
    :func:`simulate_prefix` starts it empty, :func:`resume_prefix` from
    what the routers hold.  A resume inside a perturbation holds the
    prefix's ``lease`` (:meth:`Network.set_aside`): a table it has not
    made its own yet is still the one the perturbation opened with, and
    is copied before its first change — an Adj-RIB-In before its first
    write, an Adj-RIB-Out when the router first exports or loses a
    session (``rib_out`` only ever holds owned tables then) — and a
    Loc-RIB entry goes on the undo log before its first change.  All of
    it dies with the call: nothing is memoised on ``RouteMap``,
    ``Session`` or ``Router``, which are pickled into every campaign copy.
    """

    __slots__ = (
        "prefix", "config", "queue", "stats", "tracer", "profiler", "ases",
        "touched", "local", "rib_in", "loc_rib", "rib_out", "ranks",
        "rank_at", "meds", "lease", "map_stats_before",
    )

    def __init__(
        self,
        network: Network,
        prefix: Prefix,
        config: DecisionConfig,
        stats: EngineStats,
    ) -> None:
        self.prefix = prefix
        self.config = config
        self.queue: deque[tuple[Session, Route | None]] = deque()
        self.stats = stats
        # One None check per hook point when tracing / profiling is off.
        tracer = get_tracer()
        self.tracer: Tracer | None = tracer if tracer.enabled else None
        profiler = get_profiler()
        self.profiler: PhaseProfiler | None = profiler if profiler.enabled else None
        self.ases = network.ases
        self.touched = network.touched_set(prefix)
        self.local: dict[int, Route] = {}
        self.rib_in: dict[int, dict[int, Route]] = {}
        self.loc_rib: dict[int, Route] = {}
        self.rib_out: dict[int, dict[int, Route]] = {}
        self.ranks: dict[int, tuple] = {}
        self.rank_at: Callable[[_PrefixRun, Router, Route], tuple] | None = (
            _hot_potato_rank if config.use_igp_cost else None
        )
        self.meds: dict[int, int] | None = None if config.med_always_compare else {}
        self.lease: Lease | None = None
        self.map_stats_before = MAP_STATS.snapshot()

    def own_rib_in(self, router: Router) -> dict[int, Route]:
        """``router``'s Adj-RIB-In, copied from the one leased (or made)."""
        lease = self.lease
        rib_in = self.rib_in[router.router_id] = lease.own(
            router.adj_rib_in, lease.rib_in, router.router_id
        )
        return rib_in

    def own_rib_out(self, router: Router) -> dict[int, Route]:
        """``router``'s Adj-RIB-Out, copied from the one leased (or made)."""
        lease = self.lease
        rib_out = self.rib_out[router.router_id] = lease.own(
            router.adj_rib_out, lease.rib_out, router.router_id
        )
        return rib_out

    def apply_map(self, route_map: RouteMap, route: Route) -> Route | None:
        """``route_map.apply(route)`` inside the profiler's route-map phase."""
        profiler = self.profiler
        if profiler is not None:
            profiler.push(PHASE_ROUTE_MAP)
        try:
            return route_map.apply(route)
        finally:
            if profiler is not None:
                profiler.pop()


def simulate_prefix(
    network: Network,
    prefix: Prefix,
    config: DecisionConfig = DecisionConfig(),
    max_messages: int | None = None,
) -> EngineStats:
    """Clear and recompute all routing state for one prefix.

    On return every router's Adj-RIB-In, Loc-RIB and Adj-RIB-Out for
    ``prefix`` hold the converged state.
    """
    if max_messages is None:
        max_messages = default_message_budget(network)
    network.clear_prefix(prefix)
    run = _PrefixRun(network, prefix, config, EngineStats(prefixes=1))

    # Only originators hold a local route: Network.originate/withdraw keep
    # Router.local_routes and Network.originations in step.
    for router_id in sorted(network.originators(prefix)):
        router = network.routers[router_id]
        router.local_routes[prefix] = run.local[router_id] = Route.originate(
            prefix, router_id
        )
        run.touched.add(router_id)
        _decide_and_export(run, router)
    return _drain(run, max_messages)


def stable_state_is_unique(network: Network, config: DecisionConfig) -> bool:
    """Whether every prefix has exactly one stable routing state.

    True when no route-map clause sets local-pref, there is no iBGP
    session and MED is always compared (the paper's Section 4.6 model):
    every router then ranks shorter AS-paths first under a strict total
    order and policies are functions of (route, session), so induction on
    best-path length fixes each router's choice.  With local-pref a
    DISAGREE gadget has two stable states and which one the engine
    reaches depends on message order.  Removing sessions or changing
    originations cannot make it false, so a caller perturbing one network
    many times evaluates it once.
    """
    if not config.med_always_compare:
        return False
    for session in network.sessions.values():
        if session.is_ibgp:
            return False
        for route_map in (session.import_map, session.export_map):
            if route_map is not None and any(
                clause.set_local_pref is not None for clause in route_map.clauses()
            ):
                return False
    return True


def resume_prefix(
    network: Network,
    prefix: Prefix,
    config: DecisionConfig = DecisionConfig(),
    max_messages: int | None = None,
    dropped: Sequence[Session] = (),
    reoriginated: Sequence[Router] = (),
) -> EngineStats:
    """Re-converge one prefix from the state the routers hold for it.

    That state must be the converged one of the network as it was before
    the ``dropped`` sessions were disconnected and the ``reoriginated``
    routers began (or stopped) originating the prefix.  Nothing is
    cleared: both ends' entries of every dropped session are deleted, the
    decision is re-run at each receiver that lost a route and at each
    re-originating router, and the changes propagate through the same
    loop, budget and accounting as :func:`simulate_prefix` — a
    perturbation costs the messages downstream of it, not the prefix's
    whole convergence.

    What it reaches is *a* stable state of the perturbed network.  It is
    the one :func:`simulate_prefix` reaches — same Loc-RIB, same
    Adj-RIB-In entries, same announcements in the Adj-RIB-Outs; dict
    order, object identity, counters and the learned-from fields an
    Adj-RIB-Out entry keeps from the best that first produced it (stale
    by design, rewritten on import) are not part of the claim — only
    where :func:`stable_state_is_unique` holds, which the caller checks.

    Inside a perturbation the state the network held when it opened is
    not written: each table is copied, and each Loc-RIB entry logged, the
    first time this changes it (:meth:`Network.set_aside`), so a router
    the perturbation never reaches keeps its very dicts and the close
    puts back only the originals of the ones it did.
    """
    if max_messages is None:
        max_messages = default_message_budget(network)
    lease = network.set_aside(prefix)
    run = _PrefixRun(network, prefix, config, EngineStats(resumes=1))
    run.lease = lease
    routers = network.routers
    # A router missing from the working set reads as one holding nothing,
    # so all that is held goes in (Adj-RIB-Outs are aliased on first use).
    ribs_in, loc_rib, meds = run.rib_in, run.loc_rib, run.meds
    for router_id in run.touched:
        router = routers[router_id]
        rib_in = router.adj_rib_in.get(prefix)
        if rib_in is not None:
            ribs_in[router_id] = rib_in
            if meds is not None:
                meds[router_id] = sum(r.med != DEFAULT_MED for r in rib_in.values())
        best = router.loc_rib.get(prefix)
        if best is not None:
            loc_rib[router_id] = best
    for router_id in network.originators(prefix):
        run.local[router_id] = routers[router_id].local_routes[prefix]

    # Every stale entry goes before any decision runs, so that no router
    # moves to a route that is itself about to disappear.  A router whose
    # best is gone decides before it is asked about anything else, so
    # that no decision is taken against a best it no longer holds: the
    # re-originating routers first, then each receiver that lost its best,
    # then the losses of routes that were not the best.
    lost_best: list[tuple[Router, Route]] = []
    lost: list[tuple[Router, Route]] = []
    for session in dropped:
        session_id, sender = session.session_id, session.src
        rib_out = sender.adj_rib_out.get(prefix)
        if rib_out is not None and session_id in rib_out:
            if lease is not None and sender.router_id not in lease.rib_out:
                rib_out = run.own_rib_out(sender)
            del rib_out[session_id]
        receiver_id = session.dst.router_id
        rib_in = ribs_in.get(receiver_id)
        if rib_in is not None and session_id in rib_in:
            if lease is not None and receiver_id not in lease.rib_in:
                rib_in = run.own_rib_in(session.dst)
            route = rib_in.pop(session_id)
            (lost_best if route is loc_rib.get(receiver_id) else lost).append(
                (session.dst, route)
            )
            if meds is not None and route.med != DEFAULT_MED:
                meds[receiver_id] -= 1
    for router in reoriginated:
        # Passing the standing best as the replaced route forces the full
        # scan: what changed is the local route, which fills no slot.
        run.touched.add(router.router_id)
        _decide_and_export(run, router, loc_rib.get(router.router_id))
    for receiver, route in lost_best + lost:
        _decide_and_export(run, receiver, route)
    return _drain(run, max_messages)


def _drain(run: _PrefixRun, max_messages: int) -> EngineStats:
    """Process queued messages until none is left, then close the stats.

    The engine's one message loop; its callers differ only in how they
    seed the queue.
    """
    prefix = run.prefix
    stats = run.stats
    prof = run.profiler
    queue = run.queue
    ribs_in = run.rib_in
    meds = run.meds
    owned = None if run.lease is None else run.lease.rib_in
    messages = 0
    while queue:
        messages += 1
        if messages > max_messages:
            stats.budget_exhaustions = 1
            get_registry().counter("engine.budget_exhausted").inc()
            if run.tracer is not None:
                run.tracer.event(
                    EVENT_BUDGET_EXHAUSTED,
                    prefix=str(prefix),
                    messages=messages,
                    budget=max_messages,
                )
            _account(run, messages)
            raise ConvergenceError(prefix, messages, max_messages, stats)
        if prof is not None:
            prof.push(PHASE_DISPATCH)
        try:
            session, announced = queue.popleft()
            receiver = session.dst
            accepted = _import_route(run, session, announced)
            if prof is not None:
                prof.switch(PHASE_RIB_MERGE)
            receiver_id = receiver.router_id
            rib_in = ribs_in.get(receiver_id)
            if rib_in is None:
                rib_in = ribs_in[receiver_id] = (
                    receiver.adj_rib_in.setdefault(prefix, {})
                    if owned is None else run.own_rib_in(receiver)
                )
            session_id = session.session_id
            previous = rib_in.get(session_id)
            if accepted is None:
                if previous is None:
                    continue
            elif (
                previous is not None
                and accepted.attributes_equal(previous)
                and accepted.source == previous.source
                and accepted.peer_router == previous.peer_router
            ):
                continue
            if owned is not None and receiver_id not in owned:
                rib_in = run.own_rib_in(receiver)
            if accepted is None:
                del rib_in[session_id]
            else:
                rib_in[session_id] = accepted
            if meds is not None:
                shift = (accepted is not None and accepted.med != DEFAULT_MED) - (
                    previous is not None and previous.med != DEFAULT_MED
                )
                if shift:
                    meds[receiver_id] = meds.get(receiver_id, 0) + shift
        finally:
            # Also on an import map that raises (a malformed path_regex):
            # a phase left on the stack would mis-attribute all later time.
            if prof is not None:
                prof.pop()
        run.touched.add(receiver_id)
        _decide_and_export(run, receiver, previous, accepted)

    _account(run, messages)
    return stats


def _account(run: _PrefixRun, messages: int) -> None:
    """Close the run's ``EngineStats`` and publish them to the registry.

    Called once per :func:`_drain`, on the converged and on the
    budget-exhausted exit alike: the prefix that burnt its whole budget is
    the one whose work the counters most need to show.
    """
    stats = run.stats
    stats.messages = messages
    stats.per_prefix_messages[run.prefix] = messages
    _, evaluated, matched = MAP_STATS.snapshot()
    stats.clauses_evaluated = evaluated - run.map_stats_before[1]
    stats.clauses_matched = matched - run.map_stats_before[2]
    registry = get_registry()
    registry.counter("engine.resumes" if stats.resumes else "engine.prefixes").inc()
    registry.counter("engine.messages").inc(stats.messages)
    registry.counter("engine.decisions").inc(stats.decisions)
    registry.counter("engine.candidates_ranked").inc(stats.candidates_ranked)
    registry.counter("engine.clauses_evaluated").inc(stats.clauses_evaluated)
    registry.counter("engine.clauses_matched").inc(stats.clauses_matched)
    registry.histogram("engine.messages_per_prefix").observe(stats.messages)
    if run.profiler is not None:
        # Per-prefix hot-path attribution is profiling-only: a labelled
        # instrument per prefix is exactly what `repro --profile` wants and
        # exactly what a long refinement run must not accumulate.
        label = str(run.prefix)
        registry.counter(
            labelled("engine.prefix.messages", prefix=label)
        ).inc(stats.messages)
        registry.counter(
            labelled("engine.prefix.decisions", prefix=label)
        ).inc(stats.decisions)
        registry.counter(
            labelled("engine.prefix.clauses_matched", prefix=label)
        ).inc(stats.clauses_matched)


def _import_route(
    run: _PrefixRun, session: Session, announced: Route | None
) -> Route | None:
    """Apply receive-side processing: loop rejection, defaults, import map."""
    if announced is None:
        return None
    sender = session.src
    receiver = session.dst
    if sender.asn != receiver.asn:
        if receiver.asn in announced.as_path:
            return None
        route = Route(
            announced.prefix,
            announced.as_path,
            announced.next_hop,
            DEFAULT_LOCAL_PREF,
            announced.med,
            announced.origin,
            announced.communities,
            _EBGP,
            sender.router_id,
            sender.asn,
            announced.originator_id,
            announced.cluster_list,
        )
    else:
        # RFC 4456 loop prevention: drop reflected routes that already
        # passed through this router (as originator or as a cluster).
        if announced.originator_id == receiver.router_id:
            return None
        if receiver.router_id in announced.cluster_list:
            return None
        route = Route(
            announced.prefix,
            announced.as_path,
            announced.next_hop,
            announced.local_pref,
            announced.med,
            announced.origin,
            announced.communities,
            _IBGP,
            sender.router_id,
            sender.asn,
            announced.originator_id,
            announced.cluster_list,
        )
    if session.import_map is not None:
        return run.apply_map(session.import_map, route)
    return route


def _decide_and_export(
    run: _PrefixRun,
    router: Router,
    replaced: Route | None = None,
    arrived: Route | None = None,
) -> None:
    """Re-run the decision process at ``router`` and propagate any change.

    ``replaced`` and ``arrived`` are what the Adj-RIB-In slot the
    prompting message wrote held before and holds now (None: nothing;
    both None for an originator's first decision).  When the slot did not
    hold the standing best — by identity: an attribute-equal arrival never
    replaces the object in a slot — and the router held no non-default
    MED before the message and holds none after it (``run.meds``), the
    decision is the minimum of the run's key: the best is still a
    candidate and still beats every other one, so only the arrival can
    displace it and the two are compared alone.  Every other case scans
    all candidates.  A tracer changes none of this: once the Loc-RIB holds
    the outcome it is sent one ``decision`` event (:func:`_trace_decision`).
    """
    stats = run.stats
    stats.decisions += 1
    profiler = run.profiler
    if profiler is not None:
        profiler.push(PHASE_DECISION)
    try:
        router_id = router.router_id
        loc_rib = run.loc_rib
        previous_best = loc_rib.get(router_id)
        ranks = run.ranks
        meds = run.meds
        rank_at = run.rank_at
        best_rank = candidates = None
        if (
            previous_best is not None
            and previous_best is not replaced
            and (
                meds is None
                or not meds.get(router_id)
                and (replaced is None or replaced.med == DEFAULT_MED)
            )
        ):
            best = previous_best
            if arrived is None:
                stats.candidates_ranked += 1
            else:
                stats.candidates_ranked += 2
                best_rank = rank_at(run, router, arrived) if rank_at else rank(arrived)
                held_rank = ranks.get(router_id)
                if held_rank is None:
                    # A best a resume found standing is ranked on first use.
                    held_rank = ranks[router_id] = (
                        rank_at(run, router, best) if rank_at else rank(best)
                    )
                if not held_rank < best_rank:
                    best = arrived
        else:
            rib_in = run.rib_in.get(router_id)
            candidates = list(rib_in.values()) if rib_in else []
            local = run.local.get(router_id)
            if local is not None:
                candidates.insert(0, local)
            stats.candidates_ranked += len(candidates)

            best = candidates[0] if candidates else None
            if len(candidates) > 1:
                if run.config.use_igp_cost:
                    best = select_best(
                        candidates, run.config, _igp_cost(run, router)
                    )
                else:
                    best = select_best(candidates, run.config)

        if profiler is not None:
            profiler.switch(PHASE_RIB_MERGE)
        changed = best is not previous_best
        if changed:
            prefix = run.prefix
            lease = run.lease
            if lease is not None and router_id not in lease.loc_rib:
                lease.keep_best(router, previous_best)
            if best is None:
                del loc_rib[router_id]
                router.loc_rib.pop(prefix, None)
                ranks.pop(router_id, None)
            else:
                loc_rib[router_id] = router.loc_rib[prefix] = best
                ranks[router_id] = best_rank or (
                    rank(best) if rank_at is None else rank_at(run, router, best)
                )
                # Same announcement from the same place: nothing changed
                # for peers; the Loc-RIB now holds the current object.
                changed = not (
                    previous_best is not None
                    and best.attributes_equal(previous_best)
                    and best.peer_router == previous_best.peer_router
                    and best.source == previous_best.source
                )
        if run.tracer is not None:
            if candidates is None:
                candidates = [previous_best, arrived] if arrived else [previous_best]
            _trace_decision(run, router, best, candidates)
        if not changed:
            return
        run.touched.add(router_id)

        if profiler is not None:
            profiler.switch(PHASE_EXPORT)
        _export(run, router, best)
    finally:
        if profiler is not None:
            profiler.pop()


def _trace_decision(
    run: _PrefixRun, router: Router, best: Route | None, ranked: list[Route]
) -> None:
    """Send the tracer the ``decision`` event of the decision just taken.

    ``ranked`` is what the decision compared: a scan's candidates, or the
    standing best alone (a withdrawal) or with the arrival.  Wherever
    ``rank`` is the decision the step is ``deciding_step`` of the two
    least keys, the winner's and the runner-up's.  Under per-neighbour
    MED at a router holding a non-default MED it is not, and
    ``run_decision`` replays the steps.
    """
    step = None
    meds = run.meds
    if len(ranked) > 1 and meds is not None and meds.get(router.router_id):
        step = run_decision(ranked, run.config, _igp_cost(run, router)).decisive_step
    elif len(ranked) > 1:
        rank_at = run.rank_at
        step = deciding_step(*sorted(
            rank_at(run, router, route) if rank_at else rank(route) for route in ranked
        )[:2])
    run.tracer.event(
        EVENT_DECISION,
        router=router.name,
        prefix=str(run.prefix),
        candidates=len(ranked),
        best=None if best is None else list(best.as_path),
        step=None if step is None else step_name(step),
    )


def _hot_potato_rank(run: _PrefixRun, router: Router, route: Route) -> tuple:
    """:func:`~repro.bgp.decision.rank` at ``router``, hot-potato cost included."""
    if route.source is not _IBGP:
        return rank(route)
    return rank(
        route, run.ases[router.asn].igp.cost(router.router_id, route.next_hop)
    )


def _igp_cost(run: _PrefixRun, router: Router) -> IgpCostFn:
    """The hot-potato metric as seen from ``router``."""
    cost = run.ases[router.asn].igp.cost
    router_id = router.router_id

    def igp_cost(route: Route) -> float:
        if route.source is not _IBGP:
            return 0.0
        return cost(router_id, route.next_hop)

    return igp_cost


def _export(run: _PrefixRun, router: Router, best: Route | None) -> None:
    """Send ``router``'s new best route (or its withdrawal) to every peer.

    Send-side processing — export rules, prepending, export map — then
    one queued message per session whose Adj-RIB-Out entry changes.  What
    is announced before the export map depends only on the best route and
    on whether the session is eBGP or iBGP, so those fields are worked
    out once; each session still gets a ``Route`` object of its own (see
    DESIGN.md, "Engine": sharing one moves the collector's schedule).
    """
    router_id = router.router_id
    rib_out = run.rib_out.get(router_id)
    if rib_out is None:
        lease = run.lease
        if lease is None or router_id in lease.rib_out:
            rib_out = run.rib_out[router_id] = router.adj_rib_out.setdefault(
                run.prefix, {}
            )
        else:
            rib_out = run.own_rib_out(router)
    queue = run.queue
    if best is None:
        for session in router.sessions_out:
            if rib_out.pop(session.session_id, None) is not None:
                queue.append((session, None))
        return

    asn = router.asn
    prefix = best.prefix
    as_path = best.as_path
    origin = best.origin
    communities = best.communities
    source = best.source
    peer_router = best.peer_router
    peer_asn = best.peer_asn
    ebgp_ok = ibgp_ok = True
    if communities:
        ibgp_ok = NO_ADVERTISE not in communities
        ebgp_ok = ibgp_ok and NO_EXPORT not in communities
    # Plain iBGP speakers never re-advertise internal routes; a route
    # reflector (RFC 4456) reflects client routes to every internal peer
    # and non-client routes to its clients only, stamping ORIGINATOR_ID
    # and prepending itself (its router id doubles as the cluster id) to
    # the CLUSTER_LIST.
    reflecting = source is _IBGP
    rr_clients = router.rr_clients
    from_client = peer_router in rr_clients
    originator_id = best.originator_id or peer_router
    if reflecting and not rr_clients:
        ibgp_ok = False

    for session in router.sessions_out:
        receiver = session.dst
        exported: Route | None = None
        if receiver.asn != asn:
            # The peer would reject a looped route anyway; skip sending.
            if ebgp_ok and receiver.asn not in as_path:
                # ORIGINATOR_ID/CLUSTER_LIST are AS-internal attributes.
                exported = Route(
                    prefix, (asn,) + as_path, router_id,
                    DEFAULT_LOCAL_PREF, DEFAULT_MED, origin, communities,
                    source, peer_router, peer_asn, 0, (),
                )
        elif ibgp_ok:
            if not reflecting:
                # next-hop-self: the receiver's hot-potato step measures the
                # IGP distance to this border router, not the external peer.
                exported = Route(
                    prefix, as_path, router_id, best.local_pref, best.med,
                    origin, communities, source, peer_router, peer_asn,
                    best.originator_id, best.cluster_list,
                )
            elif from_client or receiver.router_id in rr_clients:
                exported = Route(
                    prefix, as_path, best.next_hop, best.local_pref, best.med,
                    origin, communities, source, peer_router, peer_asn,
                    originator_id, (router_id,) + best.cluster_list,
                )
        if exported is not None and session.export_map is not None:
            exported = run.apply_map(session.export_map, exported)

        session_id = session.session_id
        if exported is None:
            if rib_out.pop(session_id, None) is None:
                continue
        else:
            previous = rib_out.get(session_id)
            if previous is not None and exported.attributes_equal(previous):
                continue
            rib_out[session_id] = exported
        queue.append((session, exported))
