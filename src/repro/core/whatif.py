"""What-if analysis (the motivating application of Section 1).

"What if a certain peering link was removed, or what-if we change
policies thus?" — given a refined model, :func:`depeer` removes every
session between two ASes, re-simulates, and reports which predicted paths
change at which observation ASes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.engine import simulate, stable_state_is_unique
from repro.bgp.session import Session
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.predict import collect_path_map
from repro.errors import TopologyError


@dataclass
class PathChange:
    """One (observer, origin) pair whose predicted path set changed."""

    observer_asn: int
    origin_asn: int
    before: frozenset[tuple[int, ...]]
    after: frozenset[tuple[int, ...]]

    @property
    def lost_reachability(self) -> bool:
        """True if the observer can no longer reach the origin at all."""
        return bool(self.before) and not self.after


@dataclass
class WhatIfReport:
    """Outcome of a what-if experiment."""

    description: str
    changes: list[PathChange] = field(default_factory=list)
    origins_examined: int = 0
    observers_examined: int = 0

    @property
    def affected_pairs(self) -> int:
        """Number of (observer, origin) pairs whose paths changed."""
        return len(self.changes)

    @property
    def unreachable_pairs(self) -> int:
        """Pairs that lost reachability entirely."""
        return sum(1 for change in self.changes if change.lost_reachability)


def _snapshot(
    model: ASRoutingModel, origins: list[int], observers: list[int]
) -> dict[tuple[int, int], set[tuple[int, ...]]]:
    """Best-path sets per (origin, observer); no key = nothing selected."""
    unexamined = model.prefix_by_origin.keys() - set(origins)
    return collect_path_map(model, observers, skip_origins=unexamined)


def depeer(
    model: ASRoutingModel,
    asn_a: int,
    asn_b: int,
    origins: Iterable[int] | None = None,
    observers: Iterable[int] | None = None,
) -> WhatIfReport:
    """Remove the peering between ``asn_a`` and ``asn_b`` and re-predict.

    The model is modified in place (all sessions between the two ASes are
    torn down, and the AS edge leaves the graph).  ``origins`` and
    ``observers`` default to every AS originating a canonical prefix and
    every AS, respectively — restrict them for large models.
    """
    return simulate_link_failure(model, [(asn_a, asn_b)], origins, observers)


def validate_session_endpoints(
    model: ASRoutingModel, as_edges: Iterable[tuple[int, int]]
) -> None:
    """Check every edge's endpoints and adjacency *before* simulating.

    Raises :class:`~repro.errors.TopologyError` naming the first unknown
    ASN (the same up-front contract ``query``/``predict_paths`` honour),
    or the first pair with no adjacency.  Callers get the error before
    any simulation work is spent.
    """
    known = model.network.ases
    for asn_a, asn_b in as_edges:
        for asn in (asn_a, asn_b):
            if asn not in known:
                raise TopologyError(f"unknown AS {asn}: not in the model")
        if not model.graph.has_edge(asn_a, asn_b):
            raise TopologyError(
                f"no adjacency between AS {asn_a} and AS {asn_b}"
            )


def remove_adjacency(
    model: ASRoutingModel, asn_a: int, asn_b: int
) -> list[list[Session]]:
    """Tear down every session between two ASes and drop the graph edge.

    Returns the peerings removed, each as its directed sessions — what
    :func:`~repro.bgp.engine.resume_prefix` needs to re-converge from
    the state the routers hold.
    """
    removed = []
    for router_a in list(model.quasi_routers(asn_a)):
        for session in list(router_a.sessions_out):
            if session.dst.asn == asn_b:
                removed.append(model.network.disconnect(router_a, session.dst))
    model.graph.remove_edge(asn_a, asn_b)
    return removed


def simulate_link_failure(
    model: ASRoutingModel,
    as_edges: list[tuple[int, int]],
    origins: Iterable[int] | None = None,
    observers: Iterable[int] | None = None,
) -> WhatIfReport:
    """Remove several AS-level adjacencies at once and report path changes.

    Endpoints are validated up front (:func:`validate_session_endpoints`):
    an unknown ASN or missing adjacency raises before any simulation
    instead of failing mid-run.  Every origin is converged before the
    edges go, so where the model's stable state is unique the "after"
    pass resumes from those RIBs with the removed sessions dropped
    instead of simulating each origin a second time.
    """
    validate_session_endpoints(model, as_edges)
    origin_list = sorted(origins) if origins is not None else sorted(
        model.prefix_by_origin
    )
    observer_list = sorted(observers) if observers is not None else sorted(
        model.network.ases
    )
    for origin in origin_list:
        model.simulate_origin(origin)
    before = _snapshot(model, origin_list, observer_list)

    peerings = [
        peering
        for asn_a, asn_b in as_edges
        for peering in remove_adjacency(model, asn_a, asn_b)
    ]
    removed_sessions = len(peerings)

    dropped = [session for peering in peerings for session in peering]
    if not stable_state_is_unique(model.network, MODEL_DECISION_CONFIG):
        dropped = []  # several stable states: the engine's answer is from scratch
    simulate(
        model.network,
        [model.canonical_prefix(origin) for origin in origin_list],
        MODEL_DECISION_CONFIG,
        dropped=dropped,
    )
    after = _snapshot(model, origin_list, observer_list)

    description = ", ".join(f"AS{a}-AS{b}" for a, b in as_edges)
    report = WhatIfReport(
        description=f"removed {description} ({removed_sessions} sessions)",
        origins_examined=len(origin_list),
        observers_examined=len(observer_list),
    )
    for observer in observer_list:
        for origin in origin_list:
            was = frozenset(before.get((origin, observer), ()))
            now = frozenset(after.get((origin, observer), ()))
            if was != now:
                report.changes.append(PathChange(observer, origin, was, now))
    return report
