"""Compile a refined model into a prediction artifact.

The expensive half of the serving split: simulate every canonical prefix
of an :class:`~repro.core.model.ASRoutingModel` exactly once (bounded and
quarantining, and through the supervised parallel pool when a
:class:`~repro.parallel.ParallelConfig` is given), then collect the
selected path set of every (origin, observer) pair via the same
:func:`repro.core.predict.collect_path_map` code path the live prediction
API uses.  Equality between artifact answers and live answers is
therefore structural, not coincidental — both read the same Loc-RIBs
through the same collector.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.certify import certify_network
from repro.core.model import ASRoutingModel
from repro.core.predict import collect_path_map
from repro.errors import ModelError
from repro.net.prefix import Prefix
from repro.obs.metrics import get_registry
from repro.obs.profile import get_profiler
from repro.relationships.types import RelationshipMap
from repro.resilience.retry import ResilienceStats
from repro.serve.artifact import PredictionArtifact, build_artifact

logger = logging.getLogger(__name__)


@dataclass
class CompileReport:
    """What one compilation did, for logs and health reporting."""

    prefixes: int = 0
    converged: int = 0
    quarantined: list[str] = field(default_factory=list)
    pairs: int = 0
    simulate_seconds: float = 0.0
    collect_seconds: float = 0.0
    certify_seconds: float = 0.0
    certified_findings: int = 0
    stats: ResilienceStats | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable summary."""
        return {
            "prefixes": self.prefixes,
            "converged": self.converged,
            "quarantined": sorted(self.quarantined),
            "pairs": self.pairs,
            "simulate_seconds": round(self.simulate_seconds, 6),
            "collect_seconds": round(self.collect_seconds, 6),
            "certify_seconds": round(self.certify_seconds, 6),
            "certified_findings": self.certified_findings,
        }


def compile_artifact(
    model: ASRoutingModel,
    observers: Iterable[int] | None = None,
    max_messages: int | None = None,
    parallel=None,
    meta: dict | None = None,
    relationships: RelationshipMap | None = None,
) -> tuple[PredictionArtifact, CompileReport]:
    """Simulate ``model`` once and freeze every answer into an artifact.

    ``observers`` restricts the answer set (default: every AS in the
    model).  ``parallel`` (a :class:`~repro.parallel.ParallelConfig`)
    fans the per-prefix simulation out to the PR-4 supervised pool;
    ``max_messages`` is the per-prefix message budget.
    Prefixes that exhaust it (or get classified poison/timeout by the
    supervisor) are recorded as quarantined: the artifact refuses queries
    for their origins instead of freezing empty answers.

    Raises :class:`~repro.errors.ShutdownRequested` if a SIGINT/SIGTERM
    drains the parallel phase, exactly like ``repro refine --workers``.
    """
    observer_list = (
        sorted(observers) if observers is not None
        else sorted(model.network.ases)
    )
    unknown = [asn for asn in observer_list if asn not in model.network.ases]
    if unknown:
        raise ModelError(
            f"observer AS {unknown[0]} is not in the model; cannot compile "
            "answers for it"
        )
    registry = get_registry()
    profiler = get_profiler()
    report = CompileReport(prefixes=len(model.prefix_by_origin))

    # Certify before simulating: the certificates describe the *static*
    # model, so the findings frozen into the artifact are exactly what a
    # later `repro lint` of the same model would report.
    started = time.perf_counter()
    with profiler.phase("compile.certify"):
        store = certify_network(model.network, relationships=relationships)
        certificates = store.to_dict()
    report.certify_seconds = time.perf_counter() - started
    report.certified_findings = len(store.report().findings)
    registry.counter("serve.compile.certified_findings").inc(
        report.certified_findings
    )

    started = time.perf_counter()
    with profiler.phase("compile.simulate"):
        stats = model.simulate_all_resilient(max_messages, parallel=parallel)
    report.simulate_seconds = time.perf_counter() - started
    report.stats = stats
    quarantined: set[Prefix] = set(stats.quarantined)
    report.quarantined = sorted(str(prefix) for prefix in quarantined)
    report.converged = report.prefixes - len(quarantined)
    registry.counter("serve.compile.prefixes").inc(report.prefixes)
    registry.counter("serve.compile.quarantined").inc(len(quarantined))
    if quarantined:
        logger.warning(
            "compiling around %d quarantined prefix(es): %s",
            len(quarantined), " ".join(report.quarantined),
        )

    started = time.perf_counter()
    with profiler.phase("compile.collect"):
        paths = collect_path_map(
            model.network,
            model.prefix_by_origin,
            observer_list,
            skip_origins=(model.origin_by_prefix[prefix] for prefix in quarantined),
        )
    report.collect_seconds = time.perf_counter() - started
    report.pairs = len(paths)
    registry.counter("serve.compile.pairs").inc(report.pairs)
    registry.histogram("serve.compile.seconds").observe(
        report.simulate_seconds + report.collect_seconds
    )

    if meta is None:
        from repro.obs.meta import run_metadata

        meta = run_metadata()
    artifact = build_artifact(
        origins=dict(model.prefix_by_origin),
        observers=observer_list,
        paths=paths,
        quarantined=quarantined,
        meta=meta,
        model_stats=model.stats(),
        certificates=certificates,
    )
    logger.info(
        "compiled artifact: %d origins x %d observers, %d pairs with paths, "
        "%d quarantined, %d certified finding(s), "
        "%.1fs simulate + %.1fs collect",
        len(artifact.origins), len(artifact.observers), report.pairs,
        len(quarantined), report.certified_findings,
        report.simulate_seconds, report.collect_seconds,
    )
    return artifact, report


def write_artifact(artifact: PredictionArtifact, path) -> int:
    """Persist one artifact under the ``compile.write`` profiler phase.

    The atomic temp + ``os.replace`` write in
    :meth:`~repro.serve.artifact.PredictionArtifact.save` is what makes
    hot reloads safe to trigger from a file watcher — a server can never
    observe a half-written artifact, only the old file or the new one.
    Returns bytes written and counts them (``serve.compile.bytes``).
    """
    with get_profiler().phase("compile.write"):
        size = artifact.save(path)
    get_registry().counter("serve.compile.bytes").inc(size)
    return size
