"""Campaign scenario types and scenario-space generators.

A scenario is a small frozen dataclass naming one perturbation of the
baseline model.  Scenarios are picklable and self-contained: the engine
fans them out as generic tasks of the PR-4 supervised pool or runs them
in-process, and each ``run(network, context, config, max_messages)``
borrows the baseline network — a pool worker's unpickled copy, or the
model's own in a sequential campaign — with a perturbation open
(``Network.perturbation``): it may edit topology and originations only
through ``Network.disconnect`` / ``originate`` / ``withdraw``, which the
lender undoes exactly, routing state included, whether ``run`` returns or
raises.  The prefixes ``CampaignContext.converged_ahead`` names
hold, on entry, what the lender converged on the unperturbed topology of
a model whose stable state is unique: ``run`` resumes those from there
with its own edits named, and simulates any other from scratch whatever
it may hold — no scenario sees state another one left.  It returns a
plain JSON-ready dict — identical whether the scenario ran in-process or
inside a crash-isolated worker, first or last, resumed or from scratch.
A scenario that re-converges origins of the model also has
``perturbed_origins(context)`` naming them, which is how the engine
knows what is worth converging ahead.  No scenario rebuilds a model: it
reads the origin table from the context, the adjacency from the network.

Four scenario spaces (ROADMAP item 5, the paper's Section 1 what-if
motivation):

* ``depeer`` — remove every session between one AS pair, for every
  AS-level adjacency (or a filtered subset).  ``repro whatif`` is one
  scenario of this space (:func:`repro.campaign.engine.whatif`), and
  every depeer checks and removes its adjacency through
  :func:`validate_session_endpoints` and :func:`remove_adjacency`.
* ``link-failure`` — the same removal, but only for adjacencies incident
  to top-degree (or explicitly seeded) ASes: the tier-1 failure sweep.
* ``hijack`` — re-originate a victim's canonical prefix from a candidate
  attacker AS and report which observers are captured.
* ``catchment`` — originate one anycast prefix from k sites and report
  per-observer site attraction, plus one leave-one-site-out scenario per
  site ("Inferring Catchment in Internet Routing").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.bgp.engine import CONVERGED, DIVERGED, bounded_message_budget, simulate
from repro.bgp.network import Network
from repro.bgp.session import Session
from repro.campaign.diffing import Pair, diff_path_maps
from repro.core.model import ASRoutingModel
from repro.core.predict import collect_path_map, selected_paths
from repro.errors import TopologyError
from repro.net.prefix import Prefix

KIND_DEPEER = "depeer"
KIND_LINK_FAILURE = "link-failure"
KIND_HIJACK = "hijack"
KIND_CATCHMENT = "catchment"
CAMPAIGN_KINDS = (KIND_DEPEER, KIND_LINK_FAILURE, KIND_HIJACK, KIND_CATCHMENT)

ANYCAST_BASE = 0xF0000000
"""First candidate network (240.0.0.0/24) for the synthetic anycast
prefix — class E space no canonical origin encoding can produce for
real-world ASNs, scanned upward until free."""


@dataclass(frozen=True)
class CampaignContext:
    """Read-only baseline shared by every scenario of one campaign.

    Pickled once and shipped to each pool worker at spawn.  ``origins``
    is the model's origin -> canonical prefix table, as the baseline
    recorded it; the plan swaps in the model's own (equal) prefix
    objects.  ``excluded`` origins were quarantined
    when the baseline artifact was compiled;
    scenarios ignore their pairs instead of reporting spurious diffs.
    The last three fields are the campaign's plan, which ``run_campaign``
    works out from the model and the pending scenarios; no caller sets
    them, and without a plan a depeer re-converges every origin, a
    catchment scenario simulates its own base and everything is
    simulated from scratch.
    """

    baseline_paths: dict[Pair, tuple[tuple[int, ...], ...]]
    observers: tuple[int, ...]
    origins: dict[int, Prefix]
    excluded: frozenset[int] = frozenset()
    baseline_checksum: str = ""
    unique_state: bool = False
    """:func:`~repro.bgp.engine.stable_state_is_unique` of the baseline
    model, evaluated once for every lender of it."""
    converged_ahead: tuple[Prefix, ...] = ()
    """Prefixes whoever lends the network converges on it first, on the
    unperturbed topology: the scenarios resume these from their RIBs
    (see :func:`~repro.parallel.worker.converge_ahead`)."""
    catchments: dict[tuple[int, ...], tuple[str, dict[int, list[int]]]] = field(
        default_factory=dict
    )
    """Sites -> the status and attraction of the anycast prefix originated
    at every one of them: each base catchment the campaign's scenarios
    compare with, simulated once by the campaign's plan."""


def _require_known(network: Network, asns: Iterable[int]) -> None:
    """Raise :class:`~repro.errors.TopologyError` naming the first of
    ``asns`` (in the order given) that is not an AS of ``network``."""
    for asn in asns:
        if asn not in network.ases:
            raise TopologyError(f"unknown AS {asn}: not in the model")


def validate_session_endpoints(
    network: Network, as_edges: Iterable[tuple[int, int]]
) -> None:
    """Check every edge's endpoints and adjacency *before* simulating.

    Raises :class:`~repro.errors.TopologyError` naming the first unknown
    ASN (the same up-front contract ``query``/``predict_paths`` honour),
    or the first pair with no adjacency.  Callers get the error before
    any simulation work is spent.
    """
    for asn_a, asn_b in as_edges:
        _require_known(network, (asn_a, asn_b))
        if asn_b not in network.as_neighbours(asn_a):
            raise TopologyError(
                f"no adjacency between AS {asn_a} and AS {asn_b}"
            )


def remove_adjacency(
    network: Network, asn_a: int, asn_b: int
) -> list[list[Session]]:
    """Tear down every session between two ASes.

    The sessions are the adjacency, so under a perturbation this edit is
    undone exactly.  Returns the peerings removed, each as its directed
    sessions — what :func:`~repro.bgp.engine.resume_prefix` needs to
    re-converge from the state the routers hold.
    """
    removed = []
    for router_a in network.as_routers(asn_a):
        for session in list(router_a.sessions_out):
            if session.dst.asn == asn_b:
                removed.append(network.disconnect(router_a, session.dst))
    return removed


def crossing_origins(
    context: CampaignContext, asn_a: int, asn_b: int
) -> set[int]:
    """Origins whose routing can change when the a–b adjacency is removed.

    A route crosses the adjacency exactly when a router of one end
    selects a path whose next AS is the other end, which the baseline
    shows as a path ``(a, b, …)`` at observer ``a`` or ``(b, a, …)`` at
    observer ``b``.  Where the stable state is unique, removing sessions
    that carry no router's best route leaves that state stable, hence
    unchanged: only the crossing origins (and those the baseline has no
    trustworthy answer for) need re-simulating.  Where it is not
    (``context.unique_state``), or the baseline does not observe both
    ends, every origin crosses.
    """
    origins = set(context.origins)
    if not (context.unique_state and {asn_a, asn_b} <= set(context.observers)):
        return origins
    crossing = origins & context.excluded
    for origin in origins:
        for observer, neighbour in ((asn_a, asn_b), (asn_b, asn_a)):
            for path in context.baseline_paths.get((origin, observer), ()):
                if path[1:2] == (neighbour,):
                    crossing.add(origin)
    return crossing


@dataclass(frozen=True)
class EdgeFailureScenario:
    """Remove every session of one AS-level adjacency and re-simulate.

    Backs both the ``depeer`` sweep (every adjacency) and the
    ``link-failure`` sweep (adjacencies incident to tier-1/top-degree
    ASes); the mechanics are identical, only the generator differs.
    Only the :func:`crossing_origins` are re-converged — resumed with the
    removed sessions dropped where the lender holds them converged, else
    simulated; the others keep their baseline answers.
    """

    asn_a: int
    asn_b: int
    kind: str = KIND_DEPEER

    @property
    def key(self) -> str:
        return f"{self.kind}:AS{self.asn_a}-AS{self.asn_b}"

    def perturbed_origins(self, context: CampaignContext) -> set[int]:
        return crossing_origins(context, self.asn_a, self.asn_b)

    def run(self, network, context: CampaignContext, config, max_messages) -> dict:
        validate_session_endpoints(network, [(self.asn_a, self.asn_b)])
        crossing = self.perturbed_origins(context)
        settled = context.origins.keys() - crossing
        removed = remove_adjacency(network, self.asn_a, self.asn_b)
        dropped = [session for peering in removed for session in peering]
        warm = set(context.converged_ahead)

        degraded_origins = set()
        for origin in sorted(crossing, key=context.origins.__getitem__):
            prefix = context.origins[origin]
            budget = bounded_message_budget(network, max_messages)
            stats = simulate(
                network, (prefix,), config, budget, on_divergence="quarantine",
                dropped=dropped if prefix in warm else (),
            )
            if stats.quarantined:
                degraded_origins.add(origin)
        degraded = sorted(str(context.origins[origin]) for origin in degraded_origins)
        # A settled origin answers as the baseline does: its pairs are
        # counted unchanged, and only the crossing ones are collected and
        # diffed.
        baseline, settled_pairs = {}, 0
        for pair, paths in context.baseline_paths.items():
            if pair[0] in settled:
                settled_pairs += 1
            else:
                baseline[pair] = paths
        current = collect_path_map(
            network, context.origins, context.observers,
            skip_origins=degraded_origins | settled,
        )
        diff = diff_path_maps(
            baseline, current, exclude_origins=context.excluded | degraded_origins
        )
        diff = replace(diff, unchanged_pairs=diff.unchanged_pairs + settled_pairs)
        return {
            "kind": self.kind,
            "key": self.key,
            "params": {"asn_a": self.asn_a, "asn_b": self.asn_b},
            "removed_sessions": len(removed),
            "degraded": degraded,
            "diff": diff.to_dict(),
            "blast_radius": diff.blast_radius,
        }


@dataclass(frozen=True)
class HijackScenario:
    """Re-originate the victim's canonical prefix from an attacker AS.

    The victim keeps originating (a MOAS conflict, exactly what a prefix
    hijack looks like); after re-convergence each observer outside the
    conflict is classified by where its selected paths terminate:
    *captured* (every path ends at the attacker), *partial* (mixed), or
    *retained* (still reaches the victim); observers that lose the
    prefix entirely are *blackholed*.
    """

    victim: int
    attacker: int

    @property
    def key(self) -> str:
        return f"hijack:AS{self.attacker}->AS{self.victim}"

    def perturbed_origins(self, context: CampaignContext) -> set[int]:
        return {self.victim}

    def run(self, network, context: CampaignContext, config, max_messages) -> dict:
        prefix = context.origins.get(self.victim)
        if prefix is None:
            raise TopologyError(f"AS {self.victim} originates nothing in the model")
        _require_known(network, [self.attacker])
        attacker_routers = network.as_routers(self.attacker)
        if self.attacker == self.victim:
            raise TopologyError(
                f"attacker AS {self.attacker} is the victim itself"
            )
        for router in attacker_routers:
            network.originate(router, prefix)
        budget = bounded_message_budget(network, max_messages)
        stats = simulate(
            network, (prefix,), config, budget, on_divergence="quarantine",
            reoriginated=attacker_routers if prefix in context.converged_ahead else (),
        )
        result = {
            "kind": KIND_HIJACK,
            "key": self.key,
            "params": {"victim": self.victim, "attacker": self.attacker},
            "status": DIVERGED if stats.quarantined else CONVERGED,
        }
        if stats.quarantined:
            # The perturbed simulation itself was quarantined: no capture
            # claims can be made, the scenario reports itself degraded.
            result.update(
                captured=[], partial=[], blackholed=[],
                observers_examined=0, capture_fraction=0.0, blast_radius=0,
                degraded=[str(prefix)],
            )
            return result

        captured: list[int] = []
        partial: list[int] = []
        blackholed: list[int] = []
        examined = 0
        for observer in context.observers:
            if observer in (self.victim, self.attacker):
                continue
            paths = selected_paths(network, prefix, observer)
            if not paths:
                if (self.victim, observer) in context.baseline_paths:
                    blackholed.append(observer)
                    examined += 1
                continue
            examined += 1
            terminal = {path[-1] for path in paths}
            if terminal == {self.attacker}:
                captured.append(observer)
            elif self.attacker in terminal:
                partial.append(observer)
        capture_fraction = (
            (len(captured) + 0.5 * len(partial)) / examined if examined else 0.0
        )
        result.update(
            captured=captured,
            partial=partial,
            blackholed=blackholed,
            observers_examined=examined,
            capture_fraction=round(capture_fraction, 6),
            blast_radius=len(captured) + len(partial) + len(blackholed),
            degraded=[],
        )
        return result


@dataclass(frozen=True)
class CatchmentScenario:
    """Originate an anycast prefix from k sites; report site attraction.

    With ``failed_site=None`` the scenario reports the base catchment:
    which site(s) each observer's selected paths terminate at.  With a
    failed site, the prefix is originated at the surviving sites alone
    and simulated; the blast radius is the number of observers whose
    attraction shifted from the base.  The base is the campaign's plan
    (``context.catchments``, simulated once for every scenario of the
    sites); without one the scenario simulates it first itself.  The
    failure is simulated from scratch on purpose: resuming the base after
    a site is withdrawn makes the routers it attracted hunt through ever
    longer paths (BGP's withdrawal path exploration), which for a site
    that attracted most of the model measured four times the simulation.
    """

    sites: tuple[int, ...]
    failed_site: int | None = None

    @property
    def key(self) -> str:
        if self.failed_site is None:
            return "catchment:base"
        return f"catchment:fail-AS{self.failed_site}"

    def run(self, network, context: CampaignContext, config, max_messages) -> dict:
        _require_known(network, self.sites)
        prefix = free_anycast_prefix(network)
        base = context.catchments.get(self.sites)
        if base is None:
            base = simulate_catchment(
                network, prefix, self.sites, context.observers, config, max_messages
            )
            for site in self.sites:
                for router in network.as_routers(site):
                    network.withdraw(router, prefix)
            network.clear_prefix(prefix)
        status, before = base
        result = {
            "kind": KIND_CATCHMENT,
            "key": self.key,
            "params": {
                "sites": list(self.sites),
                "failed_site": self.failed_site,
                "prefix": str(prefix),
            },
            "status": status,
        }
        if status == CONVERGED and self.failed_site is not None:
            status, after = simulate_catchment(
                network, prefix, self.sites, context.observers, config,
                max_messages, failed_site=self.failed_site,
            )
            result["status"] = status
        else:
            after = before
        if status != CONVERGED:
            result.update(
                attraction={}, shifted=[], blast_radius=0,
                degraded=[str(prefix)],
            )
            return result
        shifted = sorted(
            observer
            for observer in set(before) | set(after)
            if before.get(observer) != after.get(observer)
        )
        result.update(
            attraction={str(obs): sites for obs, sites in after.items()},
            shifted=shifted,
            blast_radius=len(shifted),
            degraded=[],
        )
        return result


def simulate_catchment(
    network: Network,
    prefix: Prefix,
    sites: tuple[int, ...],
    observers: Iterable[int],
    config,
    max_messages: int | None,
    failed_site: int | None = None,
) -> tuple[str, dict[int, list[int]]]:
    """Originate ``prefix`` at every router of ``sites`` but ``failed_site``'s
    and simulate it from scratch.

    Returns the outcome's status and, when it converged, which site(s) the
    selected paths of each observer that is not a site terminate at (an
    observer that selects nothing is left out).  The originations stay:
    the caller's perturbation undoes them.
    """
    for site in sites:
        if site != failed_site:
            for router in network.as_routers(site):
                network.originate(router, prefix)
    budget = bounded_message_budget(network, max_messages)
    stats = simulate(network, (prefix,), config, budget, on_divergence="quarantine")
    attraction: dict[int, list[int]] = {}
    if stats.quarantined:
        return DIVERGED, attraction
    for observer in observers:
        if observer in sites:
            continue
        reached = sorted({path[-1] for path in selected_paths(network, prefix, observer)})
        if reached:
            attraction[observer] = reached
    return CONVERGED, attraction


def free_anycast_prefix(network) -> Prefix:
    """A deterministic /24 no router currently originates."""
    taken = set(network.originations)
    for index in range(4096):
        candidate = Prefix(ANYCAST_BASE + (index << 8), 24)
        if candidate not in taken:
            return candidate
    raise TopologyError("no free anycast prefix in the scan window")


# ----------------------------------------------------------------------
# Scenario-space generators
# ----------------------------------------------------------------------


def generate_depeer(
    model: ASRoutingModel, ases: Iterable[int] | None = None
) -> list[EdgeFailureScenario]:
    """One depeer scenario per AS-level adjacency (optionally filtered).

    ``ases`` restricts the sweep to adjacencies incident to at least one
    of the named ASes; unknown ASNs raise up front, same contract as
    ``whatif``.
    """
    wanted = None
    if ases is not None:
        wanted = set(ases)
        _require_known(model.network, sorted(wanted))
    scenarios = []
    for asn_a, asn_b in sorted(model.network.as_adjacencies()):
        if wanted is not None and asn_a not in wanted and asn_b not in wanted:
            continue
        scenarios.append(EdgeFailureScenario(asn_a, asn_b, KIND_DEPEER))
    return scenarios


def generate_link_failure(
    model: ASRoutingModel,
    top_degree: int = 3,
    seeds: Iterable[int] | None = None,
) -> list[EdgeFailureScenario]:
    """Adjacency failures incident to tier-1-like ASes.

    ``seeds`` names the target ASes explicitly; otherwise the
    ``top_degree`` highest-degree ASes of the model are used (ties broken
    by lower ASN, so the sweep is deterministic).
    """
    network = model.network
    if seeds is not None:
        targets = set(seeds)
        _require_known(network, sorted(targets))
    else:
        ranked = sorted(
            network.ases, key=lambda asn: (-len(network.as_neighbours(asn)), asn)
        )
        targets = set(ranked[: max(0, top_degree)])
    scenarios = []
    for asn_a, asn_b in sorted(network.as_adjacencies()):
        if asn_a in targets or asn_b in targets:
            scenarios.append(
                EdgeFailureScenario(asn_a, asn_b, KIND_LINK_FAILURE)
            )
    return scenarios


def generate_hijack(
    model: ASRoutingModel,
    victim: int,
    attackers: Iterable[int] | None = None,
) -> list[HijackScenario]:
    """One hijack scenario per candidate attacker AS.

    The victim must originate a canonical prefix; attackers default to
    every other AS in the model.
    """
    model.canonical_prefix(victim)  # raises TopologyError for unknown victims
    if attackers is not None:
        candidates = sorted(set(attackers))
        _require_known(model.network, candidates)
        if victim in candidates:
            raise TopologyError(
                f"attacker AS {victim} is the victim itself"
            )
    else:
        candidates = sorted(asn for asn in model.network.ases if asn != victim)
    return [HijackScenario(victim, attacker) for attacker in candidates]


def generate_catchment(
    model: ASRoutingModel, sites: Iterable[int]
) -> list[CatchmentScenario]:
    """The base catchment scenario plus one site-failure scenario per site."""
    site_tuple = tuple(sorted(set(sites)))
    if len(site_tuple) < 2:
        raise TopologyError(
            "catchment needs at least 2 distinct anycast sites"
        )
    _require_known(model.network, site_tuple)
    scenarios: list[CatchmentScenario] = [CatchmentScenario(site_tuple, None)]
    scenarios.extend(CatchmentScenario(site_tuple, site) for site in site_tuple)
    return scenarios


__all__ = [
    "ANYCAST_BASE",
    "CAMPAIGN_KINDS",
    "CampaignContext",
    "CatchmentScenario",
    "EdgeFailureScenario",
    "HijackScenario",
    "KIND_CATCHMENT",
    "KIND_DEPEER",
    "KIND_HIJACK",
    "KIND_LINK_FAILURE",
    "generate_catchment",
    "generate_depeer",
    "generate_hijack",
    "generate_link_failure",
    "simulate_catchment",
]
