"""Structured run-health reporting and CLI exit codes.

A :class:`RunHealth` object accumulates, across a pipeline run: wall-clock
per phase, dump parse-skip counters, simulation quarantine outcomes,
refinement stall diagnostics (naming the unmatched origins/paths), the
injected fault workload (for chaos runs) and any recoverable errors.  It
serialises to JSON for ``--health-report`` and maps to a distinct process
exit code so orchestration can tell failure classes apart without parsing
logs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.bgp.engine import DIVERGED, QUARANTINE_REASONS, UNSAFE
from repro.obs.profile import get_profiler

EXIT_OK = 0
"""Everything converged and parsed."""

EXIT_UNCONVERGED = 1
"""Refinement stopped before matching every training path."""

EXIT_USAGE = 2
"""Bad command line (argparse's convention)."""

EXIT_DIVERGED = 3
"""One or more prefixes were quarantined as diverged."""

EXIT_DATA = 4
"""The input data was unusable (corruption above threshold, empty dataset)."""

EXIT_INTERRUPTED = 5
"""A SIGINT/SIGTERM drained the run gracefully before it finished."""

UNMATCHED_LIMIT = 25
"""At most this many unmatched (origin, path) pairs are named in the report."""


@dataclass
class RunHealth:
    """Everything a caller needs to judge how a run went."""

    phases: dict[str, float] = field(default_factory=dict)
    faults: dict | None = None
    parse: dict | None = None
    lint: dict | None = None
    simulation: dict | None = None
    refinement: dict | None = None
    metrics: dict | None = None
    meta: dict | None = None
    errors: list[str] = field(default_factory=list)
    interrupted: bool = False
    """True when a graceful signal-driven drain cut the run short; the
    report then describes a checkpointed partial run, not a finished one."""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a pipeline phase: ``with health.phase("simulate"): ...``.

        The phase is also one of the installed profiler's (``repro
        --profile``), so a command names each stage once for both reports.
        """
        started = time.perf_counter()
        try:
            with get_profiler().phase(name):
                yield
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def record_error(self, error: BaseException | str) -> None:
        """Note a recoverable error (shows up in the report and exit code)."""
        self.errors.append(str(error))

    def record_parse(self, parsed) -> None:
        """Fold a :class:`~repro.data.dumps.DumpReadResult`'s counters in."""
        self.parse = {
            "lines": parsed.lines,
            "skipped_as_set": parsed.skipped_as_set,
            "skipped_malformed": parsed.skipped_malformed,
        }

    def record_simulation(self, stats) -> None:
        """Fold an :class:`~repro.bgp.engine.EngineStats` in.

        ``prefixes``, ``attempts`` and ``converged`` count simulations (a
        refinement simulates a prefix again each time it changes it);
        ``converged`` leaves the diverged ones out, and ``prefixes`` adds
        each gated or pool-quarantined prefix once: a gated one costs no
        attempt, a pool-quarantined one a dispatch per worker it was
        given.  Every prefix list and the per-quarantine detail are
        sorted by prefix, so reports diff cleanly across runs.
        """
        simulations = stats.prefixes + stats.resumes
        quarantined = sorted(stats.quarantined)
        supervised = [q for q in quarantined if q.reason not in (DIVERGED, UNSAFE)]
        self.simulation = {
            "prefixes": simulations + sum(q.reason != DIVERGED for q in quarantined),
            "messages": stats.messages,
            "budget_exhaustions": stats.budget_exhaustions,
            "attempts": simulations + sum(q.resubmits + 1 for q in supervised),
            "resubmits": sum(q.resubmits for q in supervised),
            "converged": simulations - len(stats.diverged),
            **{
                reason: [
                    str(q.prefix) for q in quarantined if q.reason == reason
                ]
                for reason in QUARANTINE_REASONS
            },
            "outcomes": [
                {
                    "prefix": str(q.prefix),
                    "status": q.reason,
                    "attempts": 0 if q.reason == UNSAFE else q.resubmits + 1,
                    "messages": q.messages,
                    "final_budget": q.budget,
                    "resubmits": q.resubmits,
                }
                for q in quarantined
            ],
            "supervision": stats.supervision,
        }

    def record_lint(self, report) -> None:
        """Fold an :class:`~repro.analysis.findings.AnalysisReport` in.

        Stores the rule/severity counts plus the statically-unsafe
        prefixes, so a health report shows what the lint gate quarantined
        (or what a chaos run should expect to diverge).
        """
        self.lint = {
            "passes": list(report.passes),
            "counts": report.counts(),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "unsafe_prefixes": [str(p) for p in report.unsafe_prefixes()],
        }

    def record_refinement(
        self, result, unmatched: list[tuple[int, tuple[int, ...]]] | None = None
    ) -> None:
        """Fold a refinement result plus stall diagnostics in.

        ``unmatched`` names the (origin, observed AS-path) pairs the final
        model still fails to select — the concrete paths a stalled run is
        stuck on.
        """
        self.refinement = {
            "iterations": result.iteration_count,
            "converged": result.converged,
            "stalled": not result.converged,
            "final_match_rate": round(result.final_match_rate, 6),
        }
        if unmatched is not None:
            self.refinement["unmatched_total"] = len(unmatched)
            self.refinement["unmatched"] = [
                {"origin": origin, "path": list(path)}
                for origin, path in unmatched[:UNMATCHED_LIMIT]
            ]

    def record_metrics(self, registry=None) -> None:
        """Snapshot a :class:`~repro.obs.metrics.MetricsRegistry` in.

        Defaults to the process-global registry; ``repro stats`` renders
        this section of the report.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        self.metrics = registry.snapshot()

    def record_meta(self, meta: dict | None = None) -> None:
        """Stamp run metadata (git sha, versions, argv, seed) in.

        Defaults to :func:`repro.obs.meta.run_metadata`, so every health
        report says exactly which code and invocation produced it.
        """
        if meta is None:
            from repro.obs.meta import run_metadata

            meta = run_metadata()
        self.meta = meta

    @property
    def diverged_prefixes(self) -> list[str]:
        """Quarantined prefixes, if a simulation phase was recorded.

        Includes prefixes the lint gate quarantined statically (status
        ``unsafe``) and prefixes the parallel supervisor classified as
        ``poison`` or ``timeout``: in every case the model carries no
        routes for them, so all four classes map to :data:`EXIT_DIVERGED`.
        """
        if self.simulation is None:
            return []
        prefixes: list[str] = []
        for status in QUARANTINE_REASONS:
            prefixes.extend(self.simulation.get(status) or [])
        return sorted(prefixes)

    @property
    def exit_code(self) -> int:
        """The process exit code this run's health maps to.

        Precedence: unusable data > interrupted > quarantined divergence
        > refinement stall > clean.
        """
        if self.errors:
            return EXIT_DATA
        if self.interrupted:
            return EXIT_INTERRUPTED
        if self.diverged_prefixes:
            return EXIT_DIVERGED
        if self.refinement is not None and not self.refinement["converged"]:
            return EXIT_UNCONVERGED
        return EXIT_OK

    def to_dict(self) -> dict:
        """JSON-serialisable report."""
        return {
            "phases_seconds": {k: round(v, 6) for k, v in self.phases.items()},
            "faults": self.faults,
            "parse": self.parse,
            "lint": self.lint,
            "simulation": self.simulation,
            "refinement": self.refinement,
            "metrics": self.metrics,
            "meta": self.meta,
            "errors": list(self.errors),
            "interrupted": self.interrupted,
            "exit_code": self.exit_code,
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str | Path) -> None:
        """Write the JSON report to ``path``."""
        Path(path).write_text(self.to_json() + "\n", encoding="ascii")
