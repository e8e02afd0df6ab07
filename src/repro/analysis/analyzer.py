"""Analyzer orchestration: run the static passes over a model or config.

The analyzer operates on an in-memory :class:`~repro.bgp.Network` (or an
:class:`~repro.core.model.ASRoutingModel` wrapping one, or a C-BGP-style
config file parsed into one) and requires no simulation.  Passes:

* ``safety`` — dispute-digraph cycle detection (:mod:`.safety`);
* ``policy`` — route-map lint (:mod:`.policy_lint`); the
  dataset-dependent rules (blocking filters, stale refinement clauses)
  only run over a model, whose origin table they read, when a training
  dataset is supplied;
* ``topology`` — structural lint (:mod:`.topology_lint`); observation-
  point reachability only runs when observer ASes are known (defaulting
  to the dataset's observers);
* ``gao`` — Gao-Rexford valley-free export compliance plus
  provider-customer hierarchy-cycle detection (:mod:`.gaorexford`);
  only runs when a :class:`~repro.relationships.types.RelationshipMap`
  (from ingested CAIDA as-rel data) is supplied.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.findings import AnalysisReport
from repro.analysis.gaorexford import analyze_gao_rexford
from repro.analysis.policy_lint import analyze_policies
from repro.analysis.safety import analyze_safety
from repro.analysis.topology_lint import analyze_topology
from repro.bgp.network import Network
from repro.relationships.types import RelationshipMap
from repro.topology.dataset import PathDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.model import ASRoutingModel

ALL_PASSES = ("safety", "policy", "topology", "gao")


def analyze_network(
    network: Network,
    observer_asns: set[int] | None = None,
    passes: Iterable[str] = ALL_PASSES,
    relationships: RelationshipMap | None = None,
) -> AnalysisReport:
    """Run the selected static passes over ``network``.

    Without a model there is no origin table, so the policy pass runs its
    per-map rules only; :func:`analyze_model` adds the dataset rules.
    """
    return _analyze(network, None, None, observer_asns, passes, relationships)


def analyze_model(
    model: "ASRoutingModel",
    dataset: PathDataset | None = None,
    observer_asns: set[int] | None = None,
    passes: Iterable[str] = ALL_PASSES,
    relationships: RelationshipMap | None = None,
) -> AnalysisReport:
    """Run the analyzer over a model, using its origin -> prefix mapping.

    ``dataset`` adds the dataset-dependent policy rules and, unless
    ``observer_asns`` is given, names the observers.
    """
    if observer_asns is None and dataset is not None:
        observer_asns = dataset.observer_asns()
    return _analyze(model.network, dataset, model.prefix_by_origin,
                    observer_asns, passes, relationships)


def _analyze(network, dataset, prefix_by_origin, observer_asns, passes,
             relationships) -> AnalysisReport:
    selected = list(passes)
    unknown = sorted(set(selected) - set(ALL_PASSES))
    if unknown:
        raise ValueError(f"unknown analysis passes: {unknown}")
    report = AnalysisReport()
    if "safety" in selected:
        report.extend(analyze_safety(network), "safety")
    if "policy" in selected:
        report.extend(
            analyze_policies(network, dataset, prefix_by_origin), "policy"
        )
    if "topology" in selected:
        report.extend(analyze_topology(network, observer_asns), "topology")
    if "gao" in selected and relationships is not None:
        report.extend(analyze_gao_rexford(network, relationships), "gao")
    return report
