"""The iterative refinement heuristic (Sections 4.3–4.6, Figure 6).

Each iteration compares, per canonical prefix, the AS-paths the current
model selects with the observed (training) AS-paths, and repairs the AS
*closest to the origin* where they diverge:

* **RIB-Out match** — a quasi-router already selects the observed suffix:
  reserve it for this path and walk on towards the observer.
* **RIB-In match, no RIB-Out** — an unreserved quasi-router learned the
  suffix but did not select it: install per-prefix policies at that
  quasi-router (export filters at the announcing neighbours that deny
  shorter AS-paths, plus an import MED ranking that prefers the neighbour
  the observed path arrives from).  If every learning quasi-router is
  reserved for a different suffix, duplicate one and install the policies
  on the clone.
* **no RIB-In match** — the suffix has not propagated this far yet.  If
  the announcing neighbour already selects its suffix, delete any
  previously-installed egress filter that blocks the propagation
  (Figure 7); otherwise wait for a later iteration.

All changes of one iteration are computed against the pre-iteration
simulation state, then the affected prefixes are re-simulated — exactly
the "apply heuristic, compute changes / restart simulations" cycle of
Figure 6.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.certify import CertificateStore
    from repro.parallel.protocol import ParallelConfig

from repro.bgp.policy import Action, Clause, Match
from repro.bgp.router import Router
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.errors import CheckpointError, RefinementError, ShutdownRequested
from repro.net.prefix import Prefix
from repro.obs.metrics import get_registry
from repro.obs.profile import get_profiler
from repro.obs.trace import (
    EVENT_LINT_QUARANTINE,
    EVENT_POLICY_DELETE,
    EVENT_POLICY_INSTALL,
    EVENT_ROUTER_DUPLICATE,
    get_tracer,
)
from repro.resilience.retry import PrefixOutcome, simulate_prefix_bounded
from repro.topology.dataset import PathDataset

FILTER_TAG = "refine-filter"
RANK_TAG = "refine-rank"
MED_PREFERRED = 0
MED_OTHER = 50

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RefinementConfig:
    """Tunable behaviour of the refiner.

    The ablation switches turn off individual mechanisms: without
    ``allow_duplication`` the model stays single-router-per-AS (policies
    only); without ``allow_policies`` only quasi-router duplication is
    used; without ``filter_deletion`` stale egress filters are never
    removed.

    Every (re-)simulation is one bounded attempt through
    :mod:`repro.resilience.retry`: a prefix that exhausts ``max_messages``
    (``None``: that module's default) is quarantined instead of aborting
    the run.  ``checkpoint_every``
    sets how many iterations pass between snapshots when
    :meth:`Refiner.run` is given a checkpoint path.

    ``lint_gate`` certifies the model with a
    :class:`~repro.analysis.certify.CertificateStore` before the first
    simulation and quarantines statically-unsafe prefixes *without
    spending any simulation attempts on them* — each gets a
    zero-attempt ``unsafe`` outcome instead of burning the full message
    budget the way a divergence quarantine would.

    ``parallel`` (a :class:`repro.parallel.ParallelConfig` with
    ``workers`` > 1) fans the initial full-network simulation out to the
    supervised worker pool; per-iteration re-simulation stays sequential
    (each iteration touches few prefixes and mutates policies the workers'
    network copies would not see).  Prefixes the supervisor classifies as
    poison or timeout are quarantined like diverged ones.  A SIGINT or
    SIGTERM during the parallel phase drains gracefully: the refiner
    writes a final checkpoint (when given a checkpoint path) and re-raises
    :class:`~repro.errors.ShutdownRequested`.
    """

    max_iterations: int = 60
    patience: int = 5
    allow_duplication: bool = True
    allow_policies: bool = True
    filter_deletion: bool = True
    install_filters: bool = True
    install_ranking: bool = True
    max_messages: int | None = None
    checkpoint_every: int = 5
    lint_gate: bool = False
    parallel: "ParallelConfig | None" = None


@dataclass
class IterationStats:
    """Bookkeeping for one refinement iteration."""

    iteration: int
    paths_total: int = 0
    paths_matched: int = 0
    policies_installed: int = 0
    routers_added: int = 0
    filters_deleted: int = 0
    prefixes_resimulated: int = 0

    @property
    def match_rate(self) -> float:
        """Fraction of training paths with a RIB-Out match this iteration."""
        return self.paths_matched / self.paths_total if self.paths_total else 1.0

    @property
    def changed(self) -> bool:
        """True if this iteration modified the model."""
        return bool(
            self.policies_installed or self.routers_added or self.filters_deleted
        )


@dataclass
class RefinementResult:
    """Outcome of a refinement run."""

    model: ASRoutingModel
    converged: bool
    iterations: list[IterationStats] = field(default_factory=list)

    @property
    def final_match_rate(self) -> float:
        """Training match rate after the last iteration."""
        return self.iterations[-1].match_rate if self.iterations else 0.0

    @property
    def iteration_count(self) -> int:
        """Number of iterations executed."""
        return len(self.iterations)


class Refiner:
    """Drives iterative refinement of a model against a training dataset."""

    def __init__(
        self,
        model: ASRoutingModel,
        training: PathDataset,
        config: RefinementConfig = RefinementConfig(),
    ):
        self.model = model
        self.config = config
        self.outcomes: list[PrefixOutcome] = []
        self.supervision: dict | None = None
        self.gated_prefixes: list[Prefix] = []
        self._gate_applied = False
        # With the lint gate on, safety is tracked through an incremental
        # certificate store: policy installs/deletes invalidate only the
        # touched prefixes' certificates, so per-iteration re-certification
        # costs a few fingerprints instead of a full static pass.
        self.certificates: "CertificateStore | None" = None
        if config.lint_gate:
            from repro.analysis.certify import CertificateStore

            self.certificates = CertificateStore()
        self.targets: dict[int, list[tuple[int, ...]]] = {}
        for origin, paths in training.unique_paths_by_origin().items():
            if origin not in model.prefix_by_origin:
                raise RefinementError(
                    f"training path origin AS {origin} is not in the model"
                )
            # Shorter paths first: the natural (shortest) route keeps the
            # lowest-id quasi-router and longer alternatives fork off it.
            self.targets[origin] = sorted(paths, key=lambda p: (len(p), p))

    def run(
        self,
        simulate_first: bool = True,
        checkpoint: str | Path | None = None,
    ) -> RefinementResult:
        """Iterate until every training path has a RIB-Out match.

        Stops early (``converged=False``) when ``max_iterations`` is
        exhausted or the match count has not improved for ``patience``
        iterations.

        With ``checkpoint`` set, the model plus loop state is atomically
        snapshotted to that path every ``config.checkpoint_every``
        iterations (and when the loop stops).  If the file already exists
        the run *resumes* from it: the checkpointed model replaces
        ``self.model``, completed iterations are replayed into the result,
        and — simulation being deterministic — the run lands on the same
        final model an uninterrupted run would have produced.
        """
        self._apply_lint_gate()
        checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        start_iteration = 0
        best_matched = -1
        stale_iterations = 0
        restored: list[IterationStats] = []
        if checkpoint_path is not None and checkpoint_path.exists():
            start_iteration, best_matched, stale_iterations, restored = (
                self._restore_checkpoint(checkpoint_path)
            )
            simulate_first = True
        if simulate_first:
            try:
                self._simulate_all()
            except ShutdownRequested:
                # Graceful drain mid-simulation: persist what completed so
                # a rerun with the same checkpoint resumes instead of
                # restarting, then let the caller finish shutting down.
                if checkpoint_path is not None:
                    self._save_checkpoint(
                        checkpoint_path, start_iteration, best_matched,
                        stale_iterations, restored,
                    )
                raise
        result = RefinementResult(model=self.model, converged=False)
        result.iterations.extend(restored)
        if restored and restored[-1].paths_matched == restored[-1].paths_total:
            result.converged = True
            return result
        for iteration in range(start_iteration + 1, self.config.max_iterations + 1):
            stats = self.run_iteration(iteration)
            result.iterations.append(stats)
            converged = stats.paths_matched == stats.paths_total
            if stats.paths_matched > best_matched:
                best_matched = stats.paths_matched
                stale_iterations = 0
            else:
                stale_iterations += 1
            stopping = (
                converged
                or not stats.changed
                or stale_iterations >= self.config.patience
                or iteration == self.config.max_iterations
            )
            if checkpoint_path is not None and (
                stopping or iteration % self.config.checkpoint_every == 0
            ):
                self._save_checkpoint(
                    checkpoint_path, iteration, best_matched, stale_iterations,
                    result.iterations,
                )
            if converged:
                result.converged = True
                break
            if not stats.changed or stale_iterations >= self.config.patience:
                break
        logger.info(
            "refinement %s after %d iteration(s), final match rate %.1f%%",
            "converged" if result.converged else "stalled",
            result.iteration_count,
            100.0 * result.final_match_rate,
        )
        return result

    def _restore_checkpoint(
        self, path: Path
    ) -> tuple[int, int, int, list[IterationStats]]:
        """Swap in a checkpointed model and return the saved loop state."""
        from repro.resilience.checkpoint import load_checkpoint, training_fingerprint

        saved = load_checkpoint(path, training_fingerprint(self.targets))
        model = saved.restore_model()
        missing = [o for o in self.targets if o not in model.prefix_by_origin]
        if missing:
            raise CheckpointError(
                f"checkpoint {path} lacks training origins {missing[:5]}; "
                "it was written for a different dataset"
            )
        try:
            iterations = [IterationStats(**fields) for fields in saved.iterations]
        except TypeError as error:
            raise CheckpointError(
                f"checkpoint {path} has a malformed iteration record: {error}"
            ) from error
        self.model = model
        self._restore_certificates(path)
        return saved.iteration, saved.best_matched, saved.stale_iterations, iterations

    def _save_checkpoint(
        self,
        path: Path,
        iteration: int,
        best_matched: int,
        stale_iterations: int,
        iterations: list[IterationStats],
    ) -> None:
        """Snapshot the model and loop state, the certificate store beside it."""
        from repro.resilience.checkpoint import (
            certificate_store_path,
            save_checkpoint,
            training_fingerprint,
        )

        save_checkpoint(
            path,
            self.model.network,
            iteration,
            best_matched,
            stale_iterations,
            [asdict(s) for s in iterations],
            fingerprint=training_fingerprint(self.targets),
        )
        if self.certificates is not None:
            self.certificates.save(certificate_store_path(path))

    def _restore_certificates(self, checkpoint_path: Path) -> None:
        """Reload the persisted certificate store alongside a checkpoint.

        The lint gate may already have certified the pre-restore model, so
        a missing or unreadable store must not be silently trusted: either
        the saved store (fully dirty, fingerprints arbitrate on the next
        ``certify``) replaces the in-memory one, or everything is
        invalidated and the next certification starts from scratch.
        """
        if self.certificates is None:
            return
        from repro.analysis.certify import CertificateStore
        from repro.errors import CertificateError
        from repro.resilience.checkpoint import certificate_store_path

        store_path = certificate_store_path(checkpoint_path)
        if store_path.exists():
            try:
                self.certificates = CertificateStore.load(
                    store_path, relationships=self.certificates.relationships
                )
                logger.info("restored certificate store from %s", store_path)
                return
            except CertificateError as error:
                logger.warning(
                    "ignoring unusable certificate store %s: %s", store_path, error
                )
        self.certificates.invalidate_all()

    def _apply_lint_gate(self) -> None:
        """Statically quarantine unsafe prefixes before any simulation.

        Each gated prefix gets a zero-attempt ``unsafe`` outcome, its
        routing state is cleared, its training origin is dropped from the
        refinement targets and all later simulation passes skip it — so a
        dispute wheel costs no simulation attempts at all, versus the full
        per-prefix message budget under the plain divergence quarantine.
        Idempotent; a no-op unless ``config.lint_gate`` is set.
        """
        if self.certificates is None or self._gate_applied:
            return
        self._gate_applied = True
        self.certificates.certify(self.model.network)
        self._quarantine_unsafe(self.certificates.unsafe_prefixes())

    def _quarantine_unsafe(self, prefixes: list[Prefix]) -> list[int]:
        """Gate statically-unsafe prefixes; returns the dropped origins."""
        tracer = get_tracer()
        dropped: list[int] = []
        for prefix in prefixes:
            if prefix in self.gated_prefixes:
                continue
            self.model.network.clear_prefix(prefix)
            self.gated_prefixes.append(prefix)
            self.outcomes.append(PrefixOutcome.gated(prefix))
            origin = self.model.origin_by_prefix.get(prefix)
            if origin is not None and origin in self.targets:
                self.targets.pop(origin, None)
                dropped.append(origin)
            get_registry().counter("refine.lint_quarantined").inc()
            if tracer.enabled:
                tracer.event(
                    EVENT_LINT_QUARANTINE, prefix=str(prefix), origin=origin
                )
            logger.warning("lint gate quarantined %s (origin AS%s)", prefix, origin)
        return dropped

    def _simulate_all(self) -> None:
        """Simulate every non-gated prefix, through the pool when enabled."""
        prefixes = None
        if self.gated_prefixes:
            gated = set(self.gated_prefixes)
            prefixes = [
                prefix
                for prefix in self.model.network.prefixes()
                if prefix not in gated
            ]
        try:
            stats = self.model.simulate_all_resilient(
                self.config.max_messages,
                prefixes=prefixes,
                parallel=self.config.parallel,
            )
        except ShutdownRequested as shutdown:
            if shutdown.stats is not None:
                self.outcomes.extend(shutdown.stats.outcomes)
                self.supervision = shutdown.stats.supervision
            raise
        self.outcomes.extend(stats.outcomes)
        self.supervision = stats.supervision

    def _simulate_origin(self, origin: int) -> None:
        """(Re-)simulate one origin's prefix, quarantining on divergence."""
        _, outcome = simulate_prefix_bounded(
            self.model.network,
            self.model.canonical_prefix(origin),
            MODEL_DECISION_CONFIG,
            self.config.max_messages,
        )
        self.outcomes.append(outcome)

    def run_incremental(self) -> RefinementResult:
        """Extend an already-refined model for this refiner's origins (§4.7).

        Unlike :meth:`run`, only the target origins' canonical prefixes are
        (re-)simulated up front, so previously-refined prefixes keep their
        converged state and policies.  Because all refinement policies are
        per-prefix and quasi-router duplication only adds capacity, the
        extension cannot invalidate earlier prefixes' training matches —
        except through new quasi-routers, whose announcements lose every
        tie against existing ones (they carry higher router ids).
        """
        self._apply_lint_gate()
        for origin in sorted(self.targets):
            self._simulate_origin(origin)
        return self.run(simulate_first=False)

    def run_iteration(self, iteration: int = 0) -> IterationStats:
        """One Figure 6 cycle: grade paths, apply fixes, re-simulate."""
        stats = IterationStats(iteration=iteration)
        started = time.perf_counter()
        profiler = get_profiler()
        with get_tracer().span("refine-iteration", iteration=iteration):
            dirty: set[int] = set()
            with profiler.phase("refine.grade"):
                for origin in sorted(self.targets):
                    prefix = self.model.canonical_prefix(origin)
                    reserved: dict[int, tuple[int, ...]] = {}
                    origin_changed = False
                    for path in self.targets[origin]:
                        stats.paths_total += 1
                        matched, changed = self._process_path(
                            prefix, path, reserved, stats
                        )
                        stats.paths_matched += matched
                        origin_changed |= changed
                    if origin_changed:
                        dirty.add(origin)
            if self.certificates is not None and dirty:
                # Incremental re-certification: only prefixes whose
                # dependency set intersects this iteration's policy
                # changes are re-fingerprinted.  A prefix the changes made
                # statically unsafe is quarantined before any simulation
                # budget is spent on it.
                with profiler.phase("refine.certify"):
                    self.certificates.certify(self.model.network)
                    dropped = self._quarantine_unsafe(
                        self.certificates.unsafe_prefixes()
                    )
                dirty -= set(dropped)
            with profiler.phase("refine.resimulate"):
                for origin in sorted(dirty):
                    self._simulate_origin(origin)
                    stats.prefixes_resimulated += 1
        registry = get_registry()
        registry.counter("refine.iterations").inc()
        registry.counter("refine.policies_installed").inc(stats.policies_installed)
        registry.counter("refine.routers_added").inc(stats.routers_added)
        registry.counter("refine.filters_deleted").inc(stats.filters_deleted)
        registry.histogram("refine.iteration_seconds").observe(
            time.perf_counter() - started
        )
        registry.gauge("refine.match_rate").set(stats.match_rate)
        logger.debug(
            "iteration %d: %d/%d paths matched, %d policies, %d routers added, "
            "%d filters deleted, %d prefixes re-simulated",
            iteration, stats.paths_matched, stats.paths_total,
            stats.policies_installed, stats.routers_added,
            stats.filters_deleted, stats.prefixes_resimulated,
        )
        return stats

    def unmatched_paths(self) -> list[tuple[int, tuple[int, ...]]]:
        """The (origin, path) pairs still lacking a RIB-Out match.

        A read-only grading pass over the current simulation state — the
        stall diagnostic for health reports: these are the concrete
        observed paths a non-converged run is stuck on.
        """
        unmatched: list[tuple[int, tuple[int, ...]]] = []
        for origin in sorted(self.targets):
            prefix = self.model.canonical_prefix(origin)
            reserved: dict[int, tuple[int, ...]] = {}
            for path in self.targets[origin]:
                if not self._path_selected(prefix, path, reserved):
                    unmatched.append((origin, path))
        return unmatched

    def _path_selected(
        self,
        prefix: Prefix,
        path: tuple[int, ...],
        reserved: dict[int, tuple[int, ...]],
    ) -> bool:
        """RIB-Out walk of :meth:`_process_path`, without applying fixes."""
        for position in range(len(path) - 1, -1, -1):
            asn = path[position]
            target = path[position + 1 :]
            available = [
                router
                for router in self.model.quasi_routers(asn)
                if (best := router.best(prefix)) is not None
                and best.as_path == target
                and reserved.get(router.router_id, target) == target
            ]
            if not available:
                return False
            chosen = min(available, key=lambda router: router.router_id)
            reserved[chosen.router_id] = target
        return True

    # ------------------------------------------------------------------
    # Per-path processing
    # ------------------------------------------------------------------

    def _process_path(
        self,
        prefix: Prefix,
        path: tuple[int, ...],
        reserved: dict[int, tuple[int, ...]],
        stats: IterationStats,
    ) -> tuple[bool, bool]:
        """Walk ``path`` origin-first; fix the first divergent AS.

        Returns (fully-matched, model-changed).  ``reserved`` maps
        quasi-router ids to the route suffix they are responsible for; a
        quasi-router can serve any number of paths that share its suffix.
        """
        for position in range(len(path) - 1, -1, -1):
            asn = path[position]
            target = path[position + 1 :]
            routers = self.model.quasi_routers(asn)

            selecting = [
                router
                for router in routers
                if (best := router.best(prefix)) is not None
                and best.as_path == target
            ]
            available = [
                router
                for router in selecting
                if reserved.get(router.router_id, target) == target
            ]
            if available:
                chosen = min(available, key=lambda router: router.router_id)
                reserved[chosen.router_id] = target
                continue

            learning = [
                router
                for router in routers
                if any(
                    route.as_path == target
                    for route in router.candidates(prefix)
                )
            ]
            free = [
                router
                for router in learning
                if reserved.get(router.router_id, target) == target
            ]
            if free:
                if not self.config.allow_policies:
                    return False, False
                chosen = min(free, key=lambda router: router.router_id)
                changed = self._install_policies(
                    chosen, prefix, target, reserved, stats
                )
                reserved[chosen.router_id] = target
                return False, changed
            if learning:
                if not self.config.allow_duplication:
                    return False, False
                source = min(learning, key=lambda router: router.router_id)
                clone = self.model.network.duplicate_router(source)
                stats.routers_added += 1
                if self.certificates is not None:
                    # The clone's sessions change its neighbours' MED
                    # rankings too; invalidate_router dirties the peers.
                    self.certificates.invalidate_router(clone)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        EVENT_ROUTER_DUPLICATE,
                        asn=asn,
                        source=source.name,
                        clone=clone.name,
                        prefix=str(prefix),
                        target=list(target),
                        iteration=stats.iteration,
                    )
                if self.config.allow_policies:
                    self._install_policies(clone, prefix, target, reserved, stats)
                else:
                    self._clear_refine_clauses(clone, prefix)
                reserved[clone.router_id] = target
                return False, True

            # No RIB-In anywhere in this AS: the suffix has not propagated.
            changed = False
            if self.config.filter_deletion and target:
                changed = self._delete_blocking_filters(asn, prefix, target, stats)
            return False, changed

        return True, False

    # ------------------------------------------------------------------
    # Policy manipulation
    # ------------------------------------------------------------------

    def _install_policies(
        self,
        router: Router,
        prefix: Prefix,
        target: tuple[int, ...],
        reserved: dict[int, tuple[int, ...]],
        stats: IterationStats,
    ) -> bool:
        """Make ``router`` select a route with AS-path ``target`` (§4.6).

        Export filters at every announcing neighbour deny routes for the
        prefix with an AS-path shorter than the target's; an import MED
        ranking prefers routes announced by the target's first-hop AS.
        Stale refinement clauses for this prefix (inherited by clones or
        left from earlier reassignments) are removed first.

        When the announcing neighbour AS has several quasi-routers that
        announce *different* same-length routes, the AS-level MED ranking
        of Section 4.6 cannot separate them, so the ranking is keyed to
        the neighbour quasi-router reserved for the target's tail (a
        per-session rather than per-AS MED — see DESIGN.md).

        Returns False when identical policies were already installed (an
        ineffective repeat that must not mark the prefix dirty, or the
        refiner would re-simulate it forever).
        """
        if not target:
            return False
        length = len(target)
        preferred_asn = target[0]
        preferred_router = None
        tail = target[1:]
        for neighbor_router in self.model.quasi_routers(preferred_asn):
            if reserved.get(neighbor_router.router_id) == tail:
                preferred_router = neighbor_router.router_id
                break
        if self._policies_already_installed(
            router, prefix, length, preferred_asn, preferred_router
        ):
            return False
        self._clear_refine_clauses(router, prefix)
        installed = 0
        for session in router.sessions_in:
            if not session.is_ebgp:
                continue
            if self.config.install_filters:
                session.ensure_export_map().append(
                    Clause(
                        Match(prefix=prefix, path_len_lt=length),
                        Action.DENY,
                        tag=FILTER_TAG,
                        iteration=stats.iteration,
                    )
                )
                installed += 1
            if self.config.install_ranking:
                if preferred_router is not None:
                    is_preferred = session.src.router_id == preferred_router
                else:
                    is_preferred = session.src.asn == preferred_asn
                session.ensure_import_map().append(
                    Clause(
                        Match(prefix=prefix),
                        Action.PERMIT,
                        set_med=MED_PREFERRED if is_preferred else MED_OTHER,
                        tag=RANK_TAG,
                        iteration=stats.iteration,
                    )
                )
                installed += 1
        stats.policies_installed += installed
        if self.certificates is not None:
            self.certificates.invalidate_policy(router.router_id, prefix)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EVENT_POLICY_INSTALL,
                router=router.name,
                prefix=str(prefix),
                target=list(target),
                clauses=installed,
                iteration=stats.iteration,
            )
        return True

    def _policies_already_installed(
        self,
        router: Router,
        prefix: Prefix,
        length: int,
        preferred_asn: int,
        preferred_router: int | None,
    ) -> bool:
        """True if every session already carries exactly the intended clauses."""
        for session in router.sessions_in:
            if not session.is_ebgp:
                continue
            if self.config.install_filters:
                if session.export_map is None:
                    return False
                filters = [
                    clause
                    for clause in session.export_map.clauses_for_prefix(prefix)
                    if clause.tag == FILTER_TAG and clause.match.prefix == prefix
                ]
                if len(filters) != 1 or filters[0].match.path_len_lt != length:
                    return False
            if self.config.install_ranking:
                if session.import_map is None:
                    return False
                ranks = [
                    clause
                    for clause in session.import_map.clauses_for_prefix(prefix)
                    if clause.tag == RANK_TAG and clause.match.prefix == prefix
                ]
                if preferred_router is not None:
                    is_preferred = session.src.router_id == preferred_router
                else:
                    is_preferred = session.src.asn == preferred_asn
                wanted = MED_PREFERRED if is_preferred else MED_OTHER
                if len(ranks) != 1 or ranks[0].set_med != wanted:
                    return False
        return True

    def _clear_refine_clauses(self, router: Router, prefix: Prefix) -> None:
        """Drop refinement clauses for ``prefix`` on all of ``router``'s sessions."""

        def is_stale(clause: Clause) -> bool:
            return (
                clause.tag in (FILTER_TAG, RANK_TAG)
                and clause.match.prefix == prefix
            )

        for session in router.sessions_in:
            if session.export_map is not None:
                session.export_map.remove_if(is_stale)
            if session.import_map is not None:
                session.import_map.remove_if(is_stale)

    def _delete_blocking_filters(
        self,
        asn: int,
        prefix: Prefix,
        target: tuple[int, ...],
        stats: IterationStats,
    ) -> bool:
        """Figure 7: remove egress filters stopping ``target`` from reaching ``asn``.

        Only applies when the announcing neighbour already has a RIB-Out
        match for its own suffix; then any refinement filter on a session
        from that neighbour into this AS that would deny the target path
        (its length threshold exceeds the target's length) is removed.
        """
        neighbor_asn = target[0]
        neighbor_target = target[1:]
        neighbor_selects = any(
            (best := router.best(prefix)) is not None
            and best.as_path == neighbor_target
            for router in self.model.quasi_routers(neighbor_asn)
        )
        if not neighbor_selects:
            return False
        length = len(target)
        removed = 0
        for router in self.model.quasi_routers(asn):
            removed_here = 0
            for session in router.sessions_in:
                if session.src.asn != neighbor_asn or session.export_map is None:
                    continue
                removed_here += session.export_map.remove_if(
                    lambda clause: clause.tag == FILTER_TAG
                    and clause.match.prefix == prefix
                    and clause.match.path_len_lt is not None
                    and clause.match.path_len_lt > length
                )
            if removed_here and self.certificates is not None:
                self.certificates.invalidate_policy(router.router_id, prefix)
            removed += removed_here
        stats.filters_deleted += removed
        if removed:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    EVENT_POLICY_DELETE,
                    asn=asn,
                    prefix=str(prefix),
                    target=list(target),
                    removed=removed,
                    iteration=stats.iteration,
                )
        return removed > 0
