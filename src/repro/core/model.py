"""The AS-routing model object (Section 4.1).

An :class:`ASRoutingModel` wraps a quasi-router :class:`~repro.bgp.Network`,
whose eBGP sessions are the AS graph, together with the canonical
one-prefix-per-AS origination table: :meth:`~ASRoutingModel.add_origin`
alone encodes a prefix, :meth:`~ASRoutingModel.from_network` alone reads
a table back.  The model's decision process always compares MED across
neighbours and has no IGP (quasi-routers are isolated), per Section 4.6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.decision import DecisionConfig
from repro.bgp.engine import (
    EngineStats,
    Quarantine,
    bounded_message_budget,
    simulate,
    simulate_prefix,
)
from repro.bgp.network import Network
from repro.bgp.router import Router
from repro.errors import ShutdownRequested, TopologyError
from repro.net.prefix import Prefix, prefix_for_asn

MODEL_DECISION_CONFIG = DecisionConfig(med_always_compare=True, use_igp_cost=False)
"""Decision process used by the model: always-compare MED, no IGP step."""


@dataclass
class ASRoutingModel:
    """A quasi-router topology plus per-prefix policies."""

    network: Network
    prefix_by_origin: dict[int, Prefix] = field(default_factory=dict)
    origin_by_prefix: dict[Prefix, int] = field(default_factory=dict)

    @classmethod
    def from_network(cls, network: Network) -> "ASRoutingModel":
        """Rebuild a model from a bare quasi-router network.

        Used when loading a persisted model from a C-BGP-style config:
        each originated prefix is the canonical prefix of the one AS whose
        routers originate it, whatever its bits say.
        """
        model = cls(network=network)
        for prefix in network.prefixes():
            origins = sorted({network.routers[router_id].asn
                              for router_id in network.originators(prefix)})
            if len(origins) != 1 or origins[0] in model.prefix_by_origin:
                raise TopologyError(
                    f"prefix {prefix} is originated by AS {origins}: a model has "
                    "one origin AS per prefix and one prefix per AS"
                )
            model.prefix_by_origin[origins[0]] = prefix
            model.origin_by_prefix[prefix] = origins[0]
        return model

    def canonical_prefix(self, origin_asn: int) -> Prefix:
        """The model prefix standing in for all prefixes of ``origin_asn``."""
        try:
            return self.prefix_by_origin[origin_asn]
        except KeyError:
            raise TopologyError(f"AS {origin_asn} originates nothing in the model") from None

    def origin_of(self, prefix: Prefix) -> int:
        """The AS originating the canonical ``prefix``."""
        try:
            return self.origin_by_prefix[prefix]
        except KeyError:
            raise TopologyError(f"{prefix} is not a model prefix") from None

    def add_origin(self, asn: int) -> Prefix:
        """Originate the canonical prefix for ``asn`` at all its quasi-routers.

        A 16-bit ASN gets :func:`~repro.net.prefix.prefix_for_asn`'s
        ``a.b.0.0/24``.  A wider one gets the first free ``0.0.c.0/24``
        from ``c = asn & 0xFF`` on: no 16-bit encoding starts with two
        zero octets, and the scan skips what another origin holds.
        """
        if asn in self.prefix_by_origin:
            return self.prefix_by_origin[asn]
        if asn <= 0xFFFF:
            prefix = prefix_for_asn(asn)
        else:
            free = (Prefix(((asn + step) & 0xFF) << 8, 24) for step in range(256))
            prefix = next((p for p in free if p not in self.origin_by_prefix), None)
            if prefix is None:
                raise TopologyError(f"no free canonical prefix left for AS {asn}")
        self.prefix_by_origin[asn] = prefix
        self.origin_by_prefix[prefix] = asn
        for router in self.network.as_routers(asn):
            self.network.originate(router, prefix)
        return prefix

    def quasi_routers(self, asn: int) -> list[Router]:
        """The quasi-routers of AS ``asn``."""
        return self.network.as_routers(asn)

    def quasi_router_counts(self) -> dict[int, int]:
        """Number of quasi-routers per AS (the Section 5 model-size view)."""
        return {asn: len(node.routers) for asn, node in self.network.ases.items()}

    def policy_clause_count(self) -> int:
        """Total number of route-map clauses installed in the model."""
        total = 0
        for session in self.network.sessions.values():
            if session.import_map is not None:
                total += len(session.import_map)
            if session.export_map is not None:
                total += len(session.export_map)
        return total

    def simulate_all(self, tolerate_divergence: bool = False) -> EngineStats:
        """Simulate every canonical prefix to convergence.

        With ``tolerate_divergence`` a prefix whose simulation exceeds the
        message budget (a policy dispute wheel, possible for inferred
        relationship policies) has its state cleared and is recorded in
        the returned stats' ``diverged`` list instead of raising — the
        engine's ``on_divergence="quarantine"`` mode, at the engine's
        default budget.
        """
        on_divergence = "quarantine" if tolerate_divergence else "raise"
        return simulate(
            self.network, config=MODEL_DECISION_CONFIG, on_divergence=on_divergence
        )

    def simulate_origin(self, origin_asn: int) -> EngineStats:
        """(Re-)simulate the canonical prefix of one origin AS."""
        prefix = self.canonical_prefix(origin_asn)
        return simulate_prefix(self.network, prefix, MODEL_DECISION_CONFIG)

    def stats(self) -> dict[str, int]:
        """Model size summary."""
        base = self.network.stats()
        base["policy_clauses"] = self.policy_clause_count()
        base["max_quasi_routers"] = max(self.quasi_router_counts().values(), default=0)
        return base

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ASRoutingModel(ases={stats['ases']}, quasi_routers={stats['routers']}, "
            f"sessions={stats['sessions']}, clauses={stats['policy_clauses']})"
        )


@dataclass(frozen=True)
class _PrefixTask:
    """One prefix's quarantining simulation, as a task of the supervised
    pool: its stats come home with the routing state it left on the
    worker's copy, for the caller's network."""

    prefix: Prefix

    @property
    def key(self) -> str:
        return str(self.prefix)

    def run(self, network: Network, context, config, max_messages):
        stats = simulate(
            network, (self.prefix,), config, max_messages, on_divergence="quarantine"
        )
        return stats, network.capture_prefix(self.prefix)


def simulate_pooled(
    network: Network,
    prefixes: Iterable[Prefix] | None = None,
    config: DecisionConfig = MODEL_DECISION_CONFIG,
    max_messages: int | None = None,
    parallel=None,
) -> EngineStats:
    """Simulate every prefix once, quarantining; divergence never aborts.

    The engine's own ``simulate(on_divergence="quarantine")``, at
    :func:`~repro.bgp.engine.bounded_message_budget` — unless
    ``parallel`` (a :class:`repro.parallel.ParallelConfig`) is enabled:
    then each prefix is one task of a supervised worker pool
    (:meth:`~repro.parallel.supervisor.SupervisedPool.run_tasks`), submitted
    and folded in prefix order.  A completed prefix's routing state is
    installed on ``network`` (:meth:`~repro.bgp.network.Network.install_prefix`)
    and its stats merged exactly as the sequential loop would have; one
    the pool gave up on (crash, hang, poison input) is cleared and
    recorded as a ``poison`` / ``timeout`` quarantine instead of failing
    the run; and a SIGINT/SIGTERM drains gracefully, raising
    :class:`~repro.errors.ShutdownRequested` with the partial stats and
    the unfinished prefixes, sorted.
    """
    max_messages = bounded_message_budget(network, max_messages)
    if parallel is None or not parallel.enabled:
        # One run per prefix, all folded after the last, as the pool's are.
        # Holding each run's stats until the fold also keeps what a pass
        # allocates per prefix, and with it where the collector's passes
        # fall in the pipeline benchmark (DESIGN §5n, constraint 3).
        runs = [
            simulate(network, (prefix,), config, max_messages, on_divergence="quarantine")
            for prefix in (prefixes if prefixes is not None else network.prefixes())
        ]
        stats = EngineStats()
        for run in runs:
            stats.merge(run)
        return stats
    from repro.parallel.supervisor import SupervisedPool

    targets = sorted(prefixes if prefixes is not None else network.prefixes())
    drained = None
    with SupervisedPool(network, config, max_messages, parallel) as pool:
        try:
            run = pool.run_tasks([_PrefixTask(prefix) for prefix in targets])
        except ShutdownRequested as shutdown:
            drained, run = shutdown, shutdown.stats
    stats = EngineStats(supervision=run.supervision)
    unfinished = []
    for prefix in targets:
        key = str(prefix)
        if key in run.results:
            prefix_stats, state = run.results[key]
            network.install_prefix(state)
            stats.merge(prefix_stats)
        elif key in run.failed:
            failure = run.failed[key]
            network.clear_prefix(prefix)
            stats.quarantined.append(Quarantine(
                prefix, failure.status, resubmits=failure.resubmits
            ))
        else:
            unfinished.append(prefix)
    if drained is not None:
        raise ShutdownRequested(drained.signum, stats, unfinished)
    return stats
