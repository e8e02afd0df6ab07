"""One bounded simulation attempt per prefix, and divergence quarantine.

The engine is a deterministic FIFO fixed point (Section 4.2: "a separate
simulation for each prefix"), so an attempt at budget ``B`` is the first
``B`` messages of any attempt at a bigger budget: re-running a prefix
from message 0 with more room can reach no verdict and no RIB that one
attempt at the bigger budget does not reach with fewer messages.  Every
caller above :mod:`repro.bgp.engine` that must survive divergence
therefore simulates through this one front door — one attempt at one
message budget; a prefix that exhausts it is *diverged* and quarantined
(partial routing state cleared) through the engine's own
``on_divergence="quarantine"`` path instead of aborting the run.

The attempt is bounded by its budget, so there is no way to hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import EngineStats, default_message_budget, simulate
from repro.bgp.network import Network
from repro.bgp.router import Router
from repro.bgp.session import Session
from repro.errors import ShutdownRequested
from repro.net.prefix import Prefix
from repro.obs.metrics import get_registry
from repro.obs.trace import EVENT_QUARANTINE, get_tracer

CONVERGED = "converged"
DIVERGED = "diverged"
"""The one attempt exhausted its message budget; quarantined."""

UNSAFE = "unsafe"
"""Quarantined by the static lint gate *before* any simulation attempt."""

POISON = "poison"
"""A supervised worker crashed (or lost its heartbeat) on this prefix on
every dispatch, exhausting ``max_resubmits`` — the input is classified as
poisonous and quarantined so a killed worker degrades one prefix, never
the run (see :mod:`repro.parallel`)."""

TIMEOUT = "timeout"
"""Every supervised dispatch of this prefix exceeded the per-task
wall-clock watchdog; the prefix is quarantined as a hang."""

QUARANTINED_STATUSES = (DIVERGED, UNSAFE, POISON, TIMEOUT)
"""Statuses whose prefixes carry no routes in the final model."""


@dataclass
class PrefixOutcome:
    """Classification of one prefix's bounded simulation."""

    prefix: Prefix
    status: str
    attempts: int
    """0 for a lint-gated prefix, 1 for a simulated one, the dispatch
    count for one the parallel supervisor gave up on."""
    messages: int
    final_budget: int
    elapsed: float
    resubmits: int = 0
    """Times the parallel supervisor re-dispatched the prefix after a
    worker crash or watchdog kill (always 0 on the sequential path)."""

    def to_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "prefix": str(self.prefix),
            "status": self.status,
            "attempts": self.attempts,
            "messages": self.messages,
            "final_budget": self.final_budget,
            "elapsed_seconds": round(self.elapsed, 6),
            "resubmits": self.resubmits,
        }

    @classmethod
    def gated(cls, prefix: Prefix) -> "PrefixOutcome":
        """An outcome for a prefix the lint gate quarantined: zero attempts,
        zero messages — no simulation budget was spent at all."""
        return cls(prefix, UNSAFE, attempts=0, messages=0, final_budget=0, elapsed=0.0)

    @classmethod
    def supervised_failure(
        cls, prefix: Prefix, status: str, resubmits: int, elapsed: float
    ) -> "PrefixOutcome":
        """An outcome for a prefix the parallel supervisor gave up on.

        ``attempts`` counts dispatches (initial + resubmits); no messages
        or budget are attributed because the workers never reported back.
        """
        return cls(
            prefix,
            status,
            attempts=resubmits + 1,
            messages=0,
            final_budget=0,
            elapsed=elapsed,
            resubmits=resubmits,
        )


@dataclass
class ResilienceStats:
    """Engine counters plus per-prefix outcomes."""

    engine: EngineStats = field(default_factory=EngineStats)
    outcomes: list[PrefixOutcome] = field(default_factory=list)
    supervision: dict | None = None
    """Worker-supervision counters (spawns, crashes, timeouts, resubmits)
    attached by :mod:`repro.parallel`; None for sequential runs."""

    def _with_status(self, status: str) -> list[Prefix]:
        """Prefixes with ``status``, in sorted order (report-stable)."""
        return sorted(o.prefix for o in self.outcomes if o.status == status)

    @property
    def diverged(self) -> list[Prefix]:
        """Prefixes quarantined after exhausting the message budget."""
        return self._with_status(DIVERGED)

    @property
    def unsafe(self) -> list[Prefix]:
        """Prefixes the static lint gate quarantined without simulating."""
        return self._with_status(UNSAFE)

    @property
    def poison(self) -> list[Prefix]:
        """Prefixes that repeatedly crashed their supervised worker."""
        return self._with_status(POISON)

    @property
    def timed_out(self) -> list[Prefix]:
        """Prefixes whose every supervised dispatch hit the task watchdog."""
        return self._with_status(TIMEOUT)

    @property
    def quarantined(self) -> list[Prefix]:
        """Every prefix that carries no routes, whatever the reason."""
        return sorted(
            o.prefix for o in self.outcomes if o.status in QUARANTINED_STATUSES
        )

    @property
    def attempts(self) -> int:
        """Total simulation attempts across all prefixes (gated ones cost 0)."""
        return sum(o.attempts for o in self.outcomes)

    @property
    def resubmits(self) -> int:
        """Total supervised re-dispatches across all prefixes."""
        return sum(o.resubmits for o in self.outcomes)

    def to_dict(self) -> dict:
        """JSON-serialisable summary for the RunHealth report.

        Every prefix list (and the per-outcome detail) is sorted by
        prefix, so health reports and checkpoints diff cleanly across
        runs regardless of completion order.
        """
        return {
            "prefixes": len(self.outcomes),
            "messages": self.engine.messages,
            "budget_exhaustions": self.engine.budget_exhaustions,
            "attempts": self.attempts,
            "resubmits": self.resubmits,
            "converged": sum(1 for o in self.outcomes if o.status == CONVERGED),
            "diverged": [str(p) for p in self.diverged],
            "unsafe": [str(p) for p in self.unsafe],
            "poison": [str(p) for p in self.poison],
            "timeout": [str(p) for p in self.timed_out],
            "outcomes": [
                o.to_dict()
                for o in sorted(
                    (o for o in self.outcomes if o.status != CONVERGED),
                    key=lambda o: (o.prefix, o.status),
                )
            ],
            "supervision": self.supervision,
        }


def simulate_prefix_bounded(
    network: Network,
    prefix: Prefix,
    config: DecisionConfig = DecisionConfig(),
    max_messages: int | None = None,
    dropped: Sequence[Session] = (),
    reoriginated: Sequence[Router] = (),
) -> tuple[EngineStats, PrefixOutcome]:
    """Simulate ``prefix`` once, within one message budget.

    ``max_messages`` of ``None`` means sixteen times the engine's
    session-scaled default, capped at two million — room enough that
    exhausting it means a dispute wheel, not a big topology.  Returns the
    engine stats of the attempt plus the outcome classification.  On
    divergence the prefix's partial routing state is cleared (quarantine)
    and the stats record it in ``diverged``.  ``dropped`` /
    ``reoriginated`` are the engine's (:func:`~repro.bgp.engine.simulate`):
    the attempt resumes from the state the prefix holds, if it holds any.
    """
    started = time.monotonic()
    budget = max_messages
    if budget is None:
        budget = min(16 * default_message_budget(network), 2_000_000)
    stats = simulate(
        network, (prefix,), config, budget, on_divergence="quarantine",
        dropped=dropped, reoriginated=reoriginated,
    )
    status = CONVERGED
    if stats.diverged:
        status = DIVERGED
        get_registry().counter("retry.quarantined").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_QUARANTINE,
                prefix=str(prefix),
                messages=stats.messages,
                final_budget=budget,
            )
    return stats, PrefixOutcome(
        prefix, status, 1, stats.messages, budget, time.monotonic() - started
    )


@dataclass(frozen=True)
class _PrefixTask:
    """One prefix's bounded attempt, as a task of the supervised pool.

    What comes home is the attempt's stats and outcome plus the routing
    state it left on the worker's copy, for the caller's network.
    """

    prefix: Prefix

    @property
    def key(self) -> str:
        return str(self.prefix)

    def run(self, network: Network, context, config, max_messages):
        stats, outcome = simulate_prefix_bounded(
            network, self.prefix, config, max_messages
        )
        return stats, outcome, network.capture_prefix(self.prefix)


def simulate_network_bounded(
    network: Network,
    prefixes: Iterable[Prefix] | None = None,
    config: DecisionConfig = DecisionConfig(),
    max_messages: int | None = None,
    parallel=None,
) -> ResilienceStats:
    """Simulate every prefix once, bounded; divergence never aborts the run.

    With ``parallel`` (a :class:`repro.parallel.ParallelConfig` whose
    ``workers`` exceeds 1) each prefix is one task of a supervised worker
    pool (:meth:`~repro.parallel.supervisor.SupervisedPool.run_tasks`), submitted
    and folded in prefix order: a completed prefix's routing state is
    installed on ``network`` (:meth:`~repro.bgp.network.Network.install_prefix`)
    and its stats, outcome and metrics merged exactly as the sequential
    loop would have; one the pool gave up on (crash, hang, poison input)
    is cleared and reported as a ``poison`` / ``timeout`` outcome instead
    of failing the run; and a SIGINT/SIGTERM drains gracefully, raising
    :class:`~repro.errors.ShutdownRequested` with the partial
    :class:`ResilienceStats` and the unfinished prefixes, sorted.
    ``parallel=None`` or ``workers=1`` is the sequential loop.
    """
    result = ResilienceStats()
    targets = list(prefixes) if prefixes is not None else network.prefixes()
    if parallel is None or not parallel.enabled:
        for prefix in targets:
            stats, outcome = simulate_prefix_bounded(
                network, prefix, config, max_messages
            )
            result.engine.merge(stats)
            result.outcomes.append(outcome)
        return result

    # Imported lazily: repro.parallel builds on this module.
    from repro.parallel.supervisor import SupervisedPool

    targets.sort()
    drained = None
    with SupervisedPool(network, config, max_messages, parallel) as pool:
        try:
            run = pool.run_tasks([_PrefixTask(prefix) for prefix in targets])
        except ShutdownRequested as shutdown:
            drained, run = shutdown, shutdown.stats
    result.supervision = run.supervision
    unfinished = []
    for prefix in targets:
        key = str(prefix)
        if key in run.results:
            stats, outcome, state = run.results[key]
            network.install_prefix(state)
            result.engine.merge(stats)
            result.outcomes.append(outcome)
        elif key in run.failed:
            failure = run.failed[key]
            # Quarantine: a poison/timeout prefix carries no routes.
            network.clear_prefix(prefix)
            result.outcomes.append(PrefixOutcome.supervised_failure(
                prefix, failure.status, failure.resubmits, failure.elapsed
            ))
        else:
            unfinished.append(prefix)
    if drained is not None:
        raise ShutdownRequested(drained.signum, result, unfinished)
    return result
