"""Match metrics (Section 4.2) and baseline agreement categories (Table 2).

The unit of evaluation is one *unique observed AS-path*: the pair
(observation AS, AS-path including the observation AS).  For each the
model is graded:

* **RIB-Out match** — at least one quasi-router in the observation AS
  selected a route with the observed path as its best route;
* **potential RIB-Out match** — a RIB-In match where the observed route
  was eliminated only in the final tie-break (lowest neighbour router id);
* **RIB-In match** — some quasi-router learned the observed route but it
  lost earlier in the decision process;
* **no match** — the observed route never reached the observation AS.

Table 2 uses a different, single-router notion of *agreement* (the unique
best route equals the observed path) with a disagreement breakdown.

Both grade a route that lost by the step its ``rank`` key parts from the
least (:func:`~repro.bgp.decision.deciding_step`).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.bgp.decision import Step, deciding_step, rank
from repro.bgp.route import Route
from repro.core.model import ASRoutingModel
from repro.topology.dataset import PathDataset


class MatchKind(enum.Enum):
    """Grade of one observed path against the simulated model (Section 4.2)."""

    RIB_OUT = "rib-out"
    POTENTIAL_RIB_OUT = "potential-rib-out"
    RIB_IN = "rib-in"
    NONE = "none"


class AgreementCategory(enum.Enum):
    """Table 2 categories for the single-router baselines."""

    AGREE = "agree"
    NOT_AVAILABLE = "as-path not available"
    SHORTER_EXISTS = "shorter as-path exists"
    TIE_BREAK = "lowest neighbor id"
    OTHER = "other decision step"


def classify_route_match(
    model: ASRoutingModel, observer_asn: int, path: tuple[int, ...]
) -> MatchKind:
    """Grade one observed path (must start with ``observer_asn``).

    Assumes the canonical prefix of the path's origin has been simulated.
    """
    if not path or path[0] != observer_asn:
        raise ValueError(f"path {path} does not start at observer AS {observer_asn}")
    prefix = model.canonical_prefix(path[-1])
    target = path[1:]

    best_match = MatchKind.NONE
    for router in model.quasi_routers(observer_asn):
        best = router.best(prefix)
        if best is not None and best.as_path == target:
            return MatchKind.RIB_OUT
        steps = _losing_steps(router.candidates(prefix), target)
        if not steps:
            continue
        if Step.ROUTER_ID in steps:
            best_match = MatchKind.POTENTIAL_RIB_OUT
        elif best_match is not MatchKind.POTENTIAL_RIB_OUT:
            best_match = MatchKind.RIB_IN
    return best_match


def classify_agreement(
    model: ASRoutingModel, observer_asn: int, path: tuple[int, ...]
) -> AgreementCategory:
    """Table 2 agreement category for a single-router model.

    With multiple quasi-routers the first (lowest-id) one is graded, which
    on the initial model is the only one.
    """
    if not path or path[0] != observer_asn:
        raise ValueError(f"path {path} does not start at observer AS {observer_asn}")
    prefix = model.canonical_prefix(path[-1])
    target = path[1:]
    routers = model.quasi_routers(observer_asn)
    if not routers:
        return AgreementCategory.NOT_AVAILABLE
    router = routers[0]
    best = router.best(prefix)
    if best is not None and best.as_path == target:
        return AgreementCategory.AGREE
    steps = _losing_steps(router.candidates(prefix), target)
    if not steps:
        return AgreementCategory.NOT_AVAILABLE
    if Step.ROUTER_ID in steps:
        return AgreementCategory.TIE_BREAK
    if Step.PATH_LENGTH in steps:
        return AgreementCategory.SHORTER_EXISTS
    return AgreementCategory.OTHER


def _losing_steps(candidates: list[Route], target: tuple[int, ...]) -> set[Step | None]:
    """Where each candidate with AS-path ``target`` loses to the least key
    (None: it is the least, which a divergent run's Loc-RIB need not be)."""
    targets = [route for route in candidates if route.as_path == target]
    if not targets:
        return set()
    winner = min(map(rank, candidates))
    return {deciding_step(winner, rank(route)) for route in targets}


@dataclass
class MatchReport:
    """Aggregated Section 4.2 metrics over a dataset."""

    counts: dict[MatchKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MatchKind}
    )
    coverage_by_origin: dict[int, tuple[int, int]] = field(default_factory=dict)
    """origin ASN -> (#unique paths RIB-Out matched, #unique paths)."""

    @property
    def total(self) -> int:
        """Number of unique observed paths graded."""
        return sum(self.counts.values())

    def rate(self, kind: MatchKind) -> float:
        """Fraction of cases with exactly this grade."""
        return self.counts[kind] / self.total if self.total else 0.0

    @property
    def rib_out_rate(self) -> float:
        """Fraction with a full RIB-Out match."""
        return self.rate(MatchKind.RIB_OUT)

    @property
    def tie_break_or_better_rate(self) -> float:
        """Fraction matched "down to the final BGP tie break" (the >80% claim)."""
        return self.rate(MatchKind.RIB_OUT) + self.rate(MatchKind.POTENTIAL_RIB_OUT)

    @property
    def rib_in_or_better_rate(self) -> float:
        """Fraction where the observed route at least reached the AS."""
        return 1.0 - self.rate(MatchKind.NONE) if self.total else 0.0

    def prefixes_with_coverage(self, threshold: float) -> int:
        """Origins whose unique paths are RIB-Out matched at >= ``threshold``."""
        return sum(
            1
            for matched, total in self.coverage_by_origin.values()
            if total > 0 and matched / total >= threshold
        )

    @property
    def origin_count(self) -> int:
        """Number of origin ASes with at least one graded path."""
        return len(self.coverage_by_origin)


def unique_cases(dataset: PathDataset) -> list[tuple[int, tuple[int, ...]]]:
    """Deduplicated, deterministically-ordered (observer, path) cases."""
    cases = {(route.observer_asn, route.path.asns) for route in dataset}
    return sorted(cases)


def evaluate_dataset(model: ASRoutingModel, dataset: PathDataset) -> MatchReport:
    """Grade every unique observed path of ``dataset`` against ``model``.

    The model must already be simulated for every canonical prefix whose
    origin appears in the dataset.
    """
    report = MatchReport()
    matched: dict[int, int] = defaultdict(int)
    totals: dict[int, int] = defaultdict(int)
    for observer_asn, path in unique_cases(dataset):
        kind = classify_route_match(model, observer_asn, path)
        report.counts[kind] += 1
        origin = path[-1]
        totals[origin] += 1
        if kind is MatchKind.RIB_OUT:
            matched[origin] += 1
    for origin, total in totals.items():
        report.coverage_by_origin[origin] = (matched[origin], total)
    return report


def evaluate_agreement(
    model: ASRoutingModel, dataset: PathDataset
) -> dict[AgreementCategory, int]:
    """Table 2: agreement counts for a single-router model."""
    counts = {category: 0 for category in AgreementCategory}
    for observer_asn, path in unique_cases(dataset):
        counts[classify_agreement(model, observer_asn, path)] += 1
    return counts
