"""The campaign engine: generate → fan out → diff → rank.

``run_campaign`` executes a scenario list against a baseline model.  With
``workers > 1`` every scenario becomes one generic task of the PR-4
:class:`~repro.parallel.supervisor.SupervisedPool` — crash-isolated,
watchdogged, resubmitted to fresh workers on failure and finally
quarantined as poison/timeout instead of killing the campaign — and runs
on the worker's unpickled copy of the network.  Sequentially, the same
``scenario.run`` executes in-process on the model's own network: nothing
is copied.  Either way a scenario borrows the network inside
:meth:`~repro.bgp.network.Network.perturbation`, whose edits — topology
and routing state — are undone exactly on the way out, whether the
scenario returned or raised, so scenario order and placement cannot
matter and the two paths produce bit-identical ranked reports.

Converge once, perturb from there: before anything runs, ``run_campaign``
asks every pending scenario which origins it will re-converge
(``perturbed_origins``) and has each lender hold converged, on the
unperturbed topology, those that enough scenarios name — two for every
lender there will be, the model's network sequentially and one copy per
pool worker (:func:`plan_campaign`); the plan travels in the
:class:`CampaignContext`.  A scenario resumes such an origin from its RIBs
(:func:`repro.bgp.engine.resume_prefix`) instead of simulating it from
nothing.  Only where the model's stable state is unique, where resumed
and from-scratch answers are the same answer; an origin named once would
cost one simulation either way and is left cold.  The plan also holds the
base catchment of every site set the catchment scenarios share, simulated
once: leave-one-site-out scenarios compare with it instead of each
simulating it again.

A :mod:`repro.runstate` scenario checkpoint (fingerprinted over the
campaign kind, scenario keys and baseline checksum) records every
finished outcome: the sequential path persists it after each scenario
and however the campaign ends — completed, drained after a SIGTERM, or
stopped by an error — it is written once more, so ``resume`` skips the
completed scenarios on the next run.

:func:`whatif` is the one-scenario case, ``repro whatif``: a depeer run
on the model's own network against the baseline a campaign without
``--baseline`` compiles, printed with its before/after paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.bgp.engine import POISON, stable_state_is_unique
from repro.campaign.report import STATUS_OK, CampaignReport, ScenarioOutcome
from repro.campaign.scenarios import (
    CampaignContext,
    CatchmentScenario,
    EdgeFailureScenario,
    free_anycast_prefix,
    simulate_catchment,
    validate_session_endpoints,
)
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.predict import selected_paths
from repro.errors import (
    ArtifactError,
    CheckpointError,
    ConvergenceError,
    ReproError,
    ShutdownRequested,
    SimulationError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import EVENT_SCENARIO, get_tracer
from repro.parallel.worker import converge_ahead
from repro.runstate import drain_signals, read_state, write_state
from repro.serve.artifact import PredictionArtifact
from repro.serve.compile import compile_artifact

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "repro/campaign-checkpoint/v1"


def context_from_artifact(artifact: PredictionArtifact) -> CampaignContext:
    """The read-only baseline every scenario diffs against.

    Without a plan: ``run_campaign`` adds it (:func:`plan_campaign`).
    """
    return CampaignContext(
        baseline_paths=dict(artifact.paths),
        observers=tuple(artifact.observers),
        origins=dict(artifact.origins),
        excluded=frozenset(artifact.quarantined_origins()),
        baseline_checksum=artifact.checksum,
    )


def validate_baseline(
    model: ASRoutingModel, artifact: PredictionArtifact
) -> None:
    """Reject a baseline artifact compiled from a different model.

    Origin tables must be equal (so the one :func:`context_from_artifact`
    copies is the model's), every artifact observer must be a model AS,
    and the model's size summary must equal the one the
    artifact recorded at compile time (when it recorded one) — an
    artifact from an earlier refinement of the same ASes has the same
    origins and observers but other paths.  A mismatched artifact would
    make every scenario diff garbage and the crossing-origin set wrong,
    so this raises :class:`~repro.errors.ArtifactError` naming the first
    discrepancy before any simulation is spent.
    """
    for origin in sorted(artifact.origins.keys() | model.prefix_by_origin.keys()):
        recorded = artifact.origins.get(origin)
        actual = model.prefix_by_origin.get(origin)
        if recorded != actual:
            raise ArtifactError(
                f"baseline artifact gives AS {origin} the prefix {recorded}, "
                f"the model {actual}; the artifact was compiled from a "
                "different model"
            )
    for observer in artifact.observers:
        if observer not in model.network.ases:
            raise ArtifactError(
                f"baseline artifact observer AS {observer} is not in the "
                "model; the artifact was compiled from a different model"
            )
    for field, actual in model.stats().items():
        recorded = artifact.model_stats.get(field, actual)
        if recorded != actual:
            raise ArtifactError(
                f"baseline artifact was compiled from a model with "
                f"{field}={recorded}, this model has {field}={actual}; "
                "recompile the baseline from this model"
            )


def campaign_fingerprint(
    kind: str, keys: Iterable[str], baseline_checksum: str
) -> str:
    """Identity of one campaign: kind, scenario space and baseline."""
    digest = hashlib.sha256()
    digest.update(kind.encode("ascii"))
    digest.update(b"\0")
    digest.update(baseline_checksum.encode("ascii"))
    for key in sorted(keys):
        digest.update(b"\0")
        digest.update(key.encode("utf-8"))
    return digest.hexdigest()


def write_checkpoint(
    path: str | Path,
    fingerprint: str,
    outcomes: dict[str, ScenarioOutcome],
) -> None:
    """Atomically persist the finished scenario outcomes."""
    write_state(path, CHECKPOINT_FORMAT, {
        "fingerprint": fingerprint,
        "completed": {
            key: outcomes[key].to_dict() for key in sorted(outcomes)
        },
    })


def load_checkpoint(
    path: str | Path, fingerprint: str
) -> dict[str, ScenarioOutcome]:
    """Read a checkpoint back; raises :class:`CheckpointError` loudly.

    A checkpoint whose fingerprint does not match (different scenario
    space, different baseline) is a hard error, never silently ignored —
    resuming the wrong campaign would merge incomparable outcomes.
    """
    document = read_state(path, CHECKPOINT_FORMAT, CheckpointError, fingerprint)
    try:
        return {
            key: ScenarioOutcome.from_dict(value)
            for key, value in (document.get("completed") or {}).items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"campaign checkpoint {path} has a malformed outcome: {error!r}"
        ) from error


def run_campaign(
    model: ASRoutingModel,
    kind: str,
    scenarios: Sequence[object],
    context: CampaignContext,
    max_messages: int | None = None,
    parallel=None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> CampaignReport:
    """Execute every scenario and rank the outcomes by blast radius.

    Sequentially the scenarios perturb ``model.network`` itself, each
    undone exactly before the next, and it comes back holding **no
    routing state**: what it held on entry is not trusted as converged
    and is cleared, not preserved.  Nothing else of ``model`` changes.

    Raises :class:`~repro.errors.ShutdownRequested` after a graceful
    SIGINT/SIGTERM drain; the checkpoint (when configured) then holds
    every finished outcome and the exception's ``pending`` lists the
    unfinished scenario keys.  An undo that cannot be replayed stops the
    campaign with its error, checkpoint written.
    """
    started = time.perf_counter()
    ordered = sorted(scenarios, key=lambda s: s.key)  # type: ignore[attr-defined]
    fingerprint = campaign_fingerprint(
        kind, (s.key for s in ordered), context.baseline_checksum
    )
    completed: dict[str, ScenarioOutcome] = {}
    if resume and checkpoint is not None and Path(checkpoint).exists():
        completed = load_checkpoint(checkpoint, fingerprint)
        logger.info(
            "resuming campaign: %d of %d scenario(s) already complete",
            len(completed), len(ordered),
        )
    todo = [s for s in ordered if s.key not in completed]
    pooled = parallel is not None and parallel.enabled
    if todo:
        context = plan_campaign(
            model, todo, context,
            copies=parallel.workers if pooled else 1, max_messages=max_messages,
        )

    progress = None
    if checkpoint is not None:
        def progress() -> None:
            write_checkpoint(checkpoint, fingerprint, completed)

    supervision: dict = {}
    try:
        if pooled and todo:
            supervision = _run_parallel(
                model, todo, context, max_messages, parallel, completed
            )
        elif todo:
            _run_sequential(
                model, todo, context, max_messages, completed, progress
            )
    finally:
        if progress is not None:
            progress()

    _emit_observability(completed)
    report = CampaignReport(
        kind=kind,
        baseline_checksum=context.baseline_checksum,
        outcomes=[completed[key] for key in sorted(completed)],
    )
    counts = report.counts()
    report.meta = {
        "elapsed_seconds": round(time.perf_counter() - started, 6),
        "fingerprint": fingerprint,
        "resumed": len(ordered) - len(todo),
        "origins_converged_ahead": len(context.converged_ahead),
        "supervision": supervision,
        **{f"scenarios_{k}": v for k, v in counts.items() if k != "scenarios"},
    }
    return report


def plan_campaign(
    model: ASRoutingModel,
    scenarios: Iterable[object],
    context: CampaignContext,
    copies: int = 1,
    max_messages: int | None = None,
) -> CampaignContext:
    """``context`` with the campaign's plan filled in.

    The base catchment of each distinct site set of the catchment
    scenarios is simulated once, here, on the model's network under a
    perturbation (``catchments``): a failed-site scenario then costs one
    simulation and the base scenario none.  Catchment scenarios read no
    other part of the plan, so a campaign of nothing else is spared the
    walk over every route-map clause the rest begins with.

    ``copies`` is how many networks will run the scenarios — the model's
    own sequentially, one copy per pool worker — each of which converges
    the whole ``converged_ahead`` set for itself.  An
    origin goes into it when at least ``2 × copies`` scenarios name it
    among their ``perturbed_origins``: a convergence costs about one
    from-scratch simulation and a resume saves about 0.9 of one, so the
    campaign as a whole breaks even near 1.15 names per copy, and two per
    copy leaves room for a pool that deals the scenarios unevenly or
    respawns a worker; an origin named once would be simulated once either
    way.  Origins the baseline quarantined would only diverge once more.
    Nothing is converged ahead when the stable state is not unique: a
    resumed answer could then be another stable state than the engine's
    own from scratch.

    ``origins`` becomes the model's own prefix objects wherever they equal
    the baseline's: the scenarios key the network's tables with them, and
    a lookup that finds the very key it was given never calls
    ``Prefix.__eq__``.
    """
    own = model.prefix_by_origin
    context = dataclasses.replace(context, origins={
        origin: own[origin] if own.get(origin) == prefix else prefix
        for origin, prefix in context.origins.items()
    })
    scenarios = list(scenarios)
    catchments = [s for s in scenarios if isinstance(s, CatchmentScenario)]
    if catchments:
        network, bases = model.network, {}
        for sites in sorted({scenario.sites for scenario in catchments}):
            with network.perturbation():  # at the prefix the scenarios pick
                bases[sites] = simulate_catchment(
                    network, free_anycast_prefix(network), sites,
                    context.observers, MODEL_DECISION_CONFIG, max_messages,
                )
        context = dataclasses.replace(context, catchments=bases)
        if len(catchments) == len(scenarios):
            return context
    unique = stable_state_is_unique(model.network, MODEL_DECISION_CONFIG)
    context = dataclasses.replace(context, unique_state=unique)
    if not unique:
        return context
    named: Counter[int] = Counter()
    for scenario in scenarios:
        name = getattr(scenario, "perturbed_origins", None)
        if name is not None:
            named.update(name(context))
    return dataclasses.replace(context, converged_ahead=tuple(
        prefix
        for origin, prefix in sorted(context.origins.items())
        if named[origin] >= 2 * copies and origin not in context.excluded
    ))


@dataclasses.dataclass(frozen=True)
class WhatIf:
    """One adjacency removed from a model: ``repro whatif``'s answer.

    ``outcome`` is the :class:`EdgeFailureScenario`'s own result, the one
    ``repro campaign depeer`` ranks; ``changes`` holds the
    ``(observer, origin, before, after)`` path sets of every pair its diff
    names, in (observer, origin) order.
    """

    outcome: dict
    origins: int
    observers: int
    changes: tuple[tuple[int, int, frozenset, frozenset], ...]

    def render(self, limit: int | None = None) -> str:
        """The text report, listing the first ``limit`` changed pairs."""
        params, diff = self.outcome["params"], self.outcome["diff"]
        lines = [
            f"what-if: removed AS{params['asn_a']}-AS{params['asn_b']} "
            f"({self.outcome['removed_sessions']} sessions)",
            f"  examined {self.origins} origins x {self.observers} observers",
            f"  changed pairs:      {self.outcome['blast_radius']}",
            f"  lost reachability:  {len(diff['lost'])}",
        ]
        for observer, origin, before, after in self.changes[:limit]:
            lines.append(f"  AS{observer} -> AS{origin}:")
            lines.extend(f"    before: {' '.join(map(str, p))}" for p in sorted(before))
            lines.extend(f"    after:  {' '.join(map(str, p))}" for p in sorted(after))
            if not after:
                lines.append("    after:  (unreachable)")
        return "\n".join(lines)


def whatif(model: ASRoutingModel, asn_a: int, asn_b: int) -> WhatIf:
    """Remove the ``asn_a``–``asn_b`` adjacency and report what changes.

    One depeer scenario, run the way a campaign runs it: both endpoints
    are checked before anything is simulated (``TopologyError``), the
    baseline is the one ``repro campaign`` compiles without
    ``--baseline``, and a baseline with a quarantined prefix is refused
    (:class:`~repro.errors.ConvergenceError`) — a diff around a prefix
    that has no answer is not an answer.  Where the stable state is
    unique the scenario resumes its crossing origins from the RIBs the
    compile left.  The model comes back as the compile left it.
    """
    from repro.obs.logs import held_records

    validate_session_endpoints(model.network, [(asn_a, asn_b)])
    with held_records():  # moot once the baseline is refused
        artifact, compiled = compile_artifact(model)
        if compiled.stats.quarantined:
            first = min(compiled.stats.quarantined)
            raise ConvergenceError(
                first.prefix, first.messages, first.budget, compiled.stats
            )
    context = plan_campaign(model, [], context_from_artifact(artifact))
    if context.unique_state:
        context = dataclasses.replace(
            context, converged_ahead=tuple(model.prefix_by_origin.values())
        )
    with model.network.perturbation():
        outcome = EdgeFailureScenario(asn_a, asn_b).run(
            model.network, context, MODEL_DECISION_CONFIG, None
        )
        if outcome["degraded"]:
            raise SimulationError(
                f"BGP did not converge for {outcome['degraded'][0]} "
                f"without the AS{asn_a}-AS{asn_b} adjacency"
            )
        diff = outcome["diff"]
        changes = tuple(
            (
                observer,
                origin,
                frozenset(context.baseline_paths.get((origin, observer), ())),
                frozenset(selected_paths(
                    model.network, model.canonical_prefix(origin), observer
                )),
            )
            for observer, origin in sorted(
                (observer, origin)
                for origin, observer in diff["changed"] + diff["lost"] + diff["gained"]
            )
        )
    return WhatIf(outcome, len(artifact.origins), len(artifact.observers), changes)


def _run_parallel(
    model: ASRoutingModel,
    todo: list,
    context: CampaignContext,
    max_messages: int | None,
    parallel,
    completed: dict[str, ScenarioOutcome],
) -> dict:
    """Fan scenarios out as generic tasks of the supervised pool."""
    from repro.parallel.supervisor import SupervisedPool

    by_key = {scenario.key: scenario for scenario in todo}
    pool = SupervisedPool(
        model.network,
        MODEL_DECISION_CONFIG,
        max_messages,
        parallel,
        context=context,
    )
    try:
        with pool:
            stats = pool.run_tasks(todo)
    except ShutdownRequested as shutdown:
        partial = shutdown.stats
        if partial is not None:
            _fold_generic(partial, by_key, completed)
        raise
    _fold_generic(stats, by_key, completed)
    return stats.supervision


def _fold_generic(stats, by_key: dict, completed: dict[str, ScenarioOutcome]) -> None:
    """Convert the pool's generic results/failures into outcomes."""
    for key in sorted(stats.results):
        completed[key] = _ok_outcome(by_key[key], stats.results[key])
    for key in sorted(stats.failed):
        failure = stats.failed[key]
        completed[key] = _quarantined_outcome(
            by_key[key], failure.status, failure.failures
        )


def _run_sequential(
    model: ASRoutingModel,
    todo: list,
    context: CampaignContext,
    max_messages: int | None,
    completed: dict[str, ScenarioOutcome],
    progress=None,
) -> None:
    """Run scenarios in-process, on ``model``'s own network.

    The network is lent to one scenario at a time with a perturbation
    open — what a pool worker does with its copy, so the two paths
    compute identical outcomes — and holds the converged-ahead prefixes
    in between.  A scenario's :class:`ReproError` is caught *inside* the
    perturbation, so by the time it is filed as poison the network is
    back; an error out of the undo itself is not caught here at all.
    Honors SIGINT/SIGTERM between scenarios via the same drain contract.
    ``progress`` (when set) persists the checkpoint after every finished
    scenario, so even a SIGKILL'd campaign resumes from the last one.
    """
    network = model.network
    with drain_signals() as drain:
        try:
            converge_ahead(
                network, context.converged_ahead, MODEL_DECISION_CONFIG, max_messages
            )
            for index, scenario in enumerate(todo):
                if drain.signum is not None:
                    pending = [s.key for s in todo[index:]]
                    raise ShutdownRequested(drain.signum, None, pending)
                with network.perturbation():
                    try:
                        outcome = _ok_outcome(scenario, scenario.run(
                            network, context, MODEL_DECISION_CONFIG, max_messages
                        ))
                    except ReproError as error:
                        # The in-process analogue of a poison task: the
                        # scenario is quarantined with the error recorded,
                        # not fatal.
                        outcome = _quarantined_outcome(
                            scenario, POISON, [repr(error)]
                        )
                completed[scenario.key] = outcome
                if progress is not None:
                    progress()
        finally:
            # No converged RIBs outlive the call: the caller's network comes
            # back cold, and its routes are not left for a full collection.
            network.clear_routing()


def _quarantined_outcome(scenario, status: str, failures) -> ScenarioOutcome:
    return ScenarioOutcome(
        key=scenario.key,
        kind=getattr(scenario, "kind", scenario.key.split(":", 1)[0]),
        status=status,
        blast_radius=0.0,
        failures=tuple(failures),
    )


def _ok_outcome(scenario, value: dict) -> ScenarioOutcome:
    return ScenarioOutcome(
        key=scenario.key,
        kind=value.get("kind", getattr(scenario, "kind", "scenario")),
        status=STATUS_OK,
        blast_radius=float(value.get("blast_radius", 0)),
        detail=value,
    )


def _emit_observability(completed: dict[str, ScenarioOutcome]) -> None:
    """Campaign metrics and trace events, in key-sorted order."""
    registry = get_registry()
    tracer = get_tracer()
    for key in sorted(completed):
        outcome = completed[key]
        if outcome.quarantined:
            registry.counter("campaign.scenarios_quarantined").inc()
        else:
            registry.counter("campaign.scenarios_completed").inc()
            registry.histogram("campaign.blast_radius").observe(
                outcome.blast_radius
            )
        if tracer.enabled:
            tracer.event(
                EVENT_SCENARIO,
                key=outcome.key,
                scenario_kind=outcome.kind,
                status=outcome.status,
                blast_radius=outcome.blast_radius,
            )
