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
from repro.bgp.engine import EngineStats, simulate, simulate_prefix
from repro.bgp.network import Network
from repro.bgp.router import Router
from repro.errors import TopologyError
from repro.net.prefix import Prefix, prefix_for_asn
from repro.resilience.retry import ResilienceStats, simulate_network_bounded

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

    def simulate_all(
        self,
        max_messages: int | None = None,
        tolerate_divergence: bool = False,
        prefixes: Iterable[Prefix] | None = None,
    ) -> EngineStats:
        """Simulate every canonical prefix (or the given subset) to convergence.

        With ``tolerate_divergence`` a prefix whose simulation exceeds the
        message budget (a policy dispute wheel, possible for inferred
        relationship policies) has its state cleared and is recorded in
        the returned stats' ``diverged`` list instead of raising — the
        engine's ``on_divergence="quarantine"`` mode.  ``prefixes``
        restricts the run (the lint gate uses this to skip statically
        unsafe prefixes entirely).
        """
        on_divergence = "quarantine" if tolerate_divergence else "raise"
        return simulate(self.network, prefixes=prefixes,
                        config=MODEL_DECISION_CONFIG,
                        max_messages=max_messages, on_divergence=on_divergence)

    def simulate_all_resilient(
        self,
        max_messages: int | None = None,
        prefixes: Iterable[Prefix] | None = None,
        parallel=None,
    ) -> ResilienceStats:
        """Simulate every canonical prefix (or a subset) once, quarantining.

        A prefix that exhausts ``max_messages`` (default: see
        :func:`~repro.resilience.retry.simulate_prefix_bounded`) is
        quarantined (state cleared, listed in the outcomes) rather than
        aborting the run.  ``parallel`` (a
        :class:`repro.parallel.ParallelConfig` with ``workers`` > 1) fans
        the prefixes out to the supervised worker pool instead of looping
        in-process.
        """
        return simulate_network_bounded(
            self.network, prefixes=prefixes, config=MODEL_DECISION_CONFIG,
            max_messages=max_messages, parallel=parallel
        )

    def simulate_origin(self, origin_asn: int,
                        max_messages: int | None = None) -> EngineStats:
        """(Re-)simulate the canonical prefix of one origin AS."""
        prefix = self.canonical_prefix(origin_asn)
        return simulate_prefix(self.network, prefix, MODEL_DECISION_CONFIG,
                               max_messages)

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
