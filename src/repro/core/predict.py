"""Prediction with a refined model (Sections 4.2 and 4.7).

:func:`evaluate_model` re-simulates every canonical prefix an evaluation
dataset needs (duplicated quasi-routers change propagation for *all*
prefixes, so state from before the last topology change would be stale)
and grades the dataset with the Section 4.2 metrics.

:func:`predict_paths` answers the paper's headline what-if question
directly: which AS-paths would AS ``observer`` use to reach a prefix of
AS ``origin``?

:func:`selected_paths` is the shared simulate-then-collect kernel: it
reads the path set an already-simulated network selects for one
(prefix, observer) pair, and :func:`collect_path_map` sweeps it over an
origin table.  The live prediction API, campaign scenarios (``repro
whatif`` included) and the :mod:`repro.serve` artifact compiler all
answer through this one code path, so a compiled artifact is equal to
the live model by construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.bgp.network import Network
from repro.core.metrics import MatchReport, evaluate_dataset
from repro.core.model import ASRoutingModel
from repro.errors import ModelError, TopologyError
from repro.net.prefix import Prefix
from repro.topology.dataset import PathDataset


def simulate_for_dataset(model: ASRoutingModel, dataset: PathDataset) -> int:
    """Simulate the canonical prefix of every origin in ``dataset``.

    Returns the number of prefixes simulated.  Origins missing from the
    model (possible only if the dataset was not part of graph extraction)
    are skipped; their paths will grade as no-match.
    """
    simulated = 0
    for origin in sorted(dataset.origin_asns()):
        if origin in model.prefix_by_origin:
            model.simulate_origin(origin)
            simulated += 1
    return simulated


def evaluate_model(
    model: ASRoutingModel,
    dataset: PathDataset,
    resimulate: bool = True,
) -> MatchReport:
    """Grade ``dataset`` against ``model`` (fresh simulation by default)."""
    if resimulate:
        simulate_for_dataset(model, dataset)
    valid = dataset.filter_routes(
        lambda route: route.origin_asn in model.prefix_by_origin
    )
    return evaluate_dataset(model, valid)


def origin_is_simulated(model: ASRoutingModel, origin_asn: int) -> bool:
    """True when ``origin_asn``'s canonical prefix has live routing state.

    After a converged simulation every originating quasi-router promotes
    its local route into its Loc-RIB; before any simulation (or after a
    quarantine cleared the prefix) none has.  That asymmetry is the cold
    marker: an origin whose own routers cannot reach its prefix has no
    trustworthy answers for anyone else either.
    """
    prefix = model.canonical_prefix(origin_asn)
    originators = model.network.originators(prefix)
    if not originators:
        return False
    return any(
        model.network.routers[router_id].best(prefix) is not None
        for router_id in originators
        if router_id in model.network.routers
    )


def selected_paths(
    network: Network, prefix: Prefix, observer_asn: int
) -> set[tuple[int, ...]]:
    """The path set ``observer_asn``'s routers currently select for ``prefix``.

    Pure collection — no simulation, no cold-state checking; callers
    (:func:`predict_paths`, the campaign scenarios, the artifact compiler)
    decide how the network got warm.  Returns the set of full paths
    (observer first, origin last).
    """
    paths: set[tuple[int, ...]] = set()
    node = network.ases.get(observer_asn)
    if node is None:
        return paths
    for router in node.routers:
        best = router.best(prefix)
        if best is not None:
            paths.add((observer_asn,) + best.as_path)
    return paths


def collect_path_map(
    network: Network,
    origins: Mapping[int, Prefix],
    observers: Iterable[int],
    skip_origins: Iterable[int] = (),
) -> dict[tuple[int, int], set[tuple[int, ...]]]:
    """Every non-empty ``(origin, observer)`` answer of a warm network.

    ``origins`` is a model's origin -> canonical prefix table.  Origins in
    ascending order, ``observers`` in the order given; a pair that selects
    nothing has no key.  ``skip_origins`` (quarantined or out-of-scope
    origins) are left out entirely.
    """
    skip = set(skip_origins)
    paths: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for origin, prefix in sorted(origins.items()):
        if origin in skip:
            continue
        for observer in observers:
            selected = selected_paths(network, prefix, observer)
            if selected:
                paths[(origin, observer)] = selected
    return paths


def predict_paths(
    model: ASRoutingModel, origin_asn: int, observer_asn: int
) -> set[tuple[int, ...]]:
    """Predicted AS-paths from ``observer_asn`` towards ``origin_asn``.

    Returns the set of full paths (observer first, origin last) selected
    by the observer's quasi-routers — the route diversity the model
    predicts the AS would use and propagate.

    The origin's prefix must already carry routing state: a cold prefix
    (never simulated, or quarantined) raises
    :class:`~repro.errors.ModelError` naming the origin, so an empty set
    is always a real answer — the observer cannot reach the origin —
    never an artifact of stale state.
    """
    validate_pair(model, origin_asn, observer_asn)
    if not origin_is_simulated(model, origin_asn):
        raise ModelError(
            f"the canonical prefix of AS {origin_asn} has no routing "
            "state (never simulated, or quarantined); simulate it "
            "instead of trusting an empty answer"
        )
    return selected_paths(
        model.network, model.canonical_prefix(origin_asn), observer_asn
    )


def extend_model_for_origins(
    model: ASRoutingModel,
    observations: PathDataset,
    origins: Iterable[int],
    config=None,
):
    """Section 4.7: refine an existing model for new origins' prefixes.

    ``observations`` are routes seen at the *existing* vantage points for
    the new prefixes (e.g. a previously-unconsidered prefix appearing in
    the feeds).  Only those origins' canonical prefixes are refined; the
    rest of the model is untouched.  Returns the refinement result.
    """
    from repro.core.refine import RefinementConfig, Refiner

    wanted = set(origins)
    subset = observations.restrict_origins(wanted)
    refiner = Refiner(model, subset, config or RefinementConfig())
    return refiner.run_incremental()


def validate_pair(
    model: ASRoutingModel, origin_asn: int, observer_asn: int
) -> None:
    """Reject unknown origin/observer ASNs with an error naming them.

    Shared precondition of every prediction entry point (library, CLI and
    the serving subsystem): raises :class:`~repro.errors.ModelError` for
    an observer the model does not contain and
    :class:`~repro.errors.TopologyError` for an origin that originates
    nothing.
    """
    if origin_asn not in model.prefix_by_origin:
        raise TopologyError(
            f"AS {origin_asn} originates nothing in the model"
        )
    if observer_asn not in model.network.ases:
        raise ModelError(f"observer AS {observer_asn} is not in the model")
