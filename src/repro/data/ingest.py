"""Fault-tolerant, resumable ingestion of real-world feeds.

This is the gate raw CAIDA/RouteViews data passes before any model is
built from it.  The pipeline composes the layers below it:

1. the hardened streaming parser (:mod:`repro.data.dumps`) turns raw
   bytes into per-record results with typed rejection reasons;
2. the sanitization passes (:mod:`repro.data.sanitize`) quarantine
   loops, bogon ASNs and martian prefixes, and collapse prepends;
3. accepted records stream into an in-memory
   :class:`~repro.topology.dataset.PathDataset` *and* (optionally) a
   normalised clean dump file, written incrementally;
4. progress checkpoints (source byte offset at a line boundary, clean
   output length, report counters) are written atomically every
   ``checkpoint_every`` lines via :mod:`repro.resilience.checkpoint`,
   so a multi-GB ingest survives interruption and ``resume=True``
   continues from the last offset with *identical* final results;
5. a malformed-burst circuit breaker aborts early with a clear
   :class:`~repro.errors.IngestError` when a feed turns to garbage
   mid-file, and a whole-file malformed-fraction gate rejects feeds
   that were garbage all along.

Every record line is accounted for as exactly one of accepted or
quarantined-with-reason in the resulting
:class:`~repro.data.quality.IngestReport`, whose counters also land in
the :mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.data.dumps import (
    format_dump_line,
    iter_table_dump,
    read_table_dump,
)
from repro.data.quality import EXPECTED_REASONS, IngestReport
from repro.data.sanitize import PREPEND_COLLAPSE, SanitizeConfig, sanitize_route
from repro.errors import CheckpointError, IngestError, ShutdownRequested
from repro.obs.metrics import Counter, get_registry, labelled
from repro.resilience.checkpoint import (
    IngestCheckpoint,
    ingest_fingerprint,
    load_ingest_checkpoint,
    save_ingest_checkpoint,
)
from repro.topology.dataset import PathDataset

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs for one ingestion run."""

    sanitize: SanitizeConfig = field(default_factory=SanitizeConfig)
    strict: bool = False
    max_malformed_fraction: float | None = 0.5
    """Whole-file gate: abort when this fraction of record lines is
    damaged (AS_SET skips excluded).  ``None`` disables it."""
    burst_window: int = 500
    """Record lines in the circuit breaker's sliding window (<= 0
    disables the breaker)."""
    burst_threshold: float = 0.95
    """Damaged fraction of the window that trips the breaker (a feed
    that *turns* to garbage mid-file fails fast, not at EOF)."""
    checkpoint_every: int = 20000
    """Source lines between checkpoint snapshots."""


@dataclass
class IngestResult:
    """The outcome of an ingestion run."""

    dataset: PathDataset
    report: IngestReport
    resumed_from_line: int = 0
    """Physical source line the run resumed after (0 = fresh run)."""


def _restore(
    checkpoint_path: Path, source: Path, out_path: Path | None
) -> IngestCheckpoint:
    """Validate a checkpoint against the feed it claims to describe."""
    checkpoint = load_ingest_checkpoint(
        checkpoint_path, ingest_fingerprint(source)
    )
    if out_path is None:
        raise CheckpointError(
            f"checkpoint {checkpoint_path} needs the clean output file to "
            "rebuild the already-accepted records; pass out_path"
        )
    if not out_path.exists() or out_path.stat().st_size < checkpoint.out_offset:
        raise CheckpointError(
            f"clean output {out_path} is missing or shorter than the "
            f"checkpointed {checkpoint.out_offset} bytes; cannot resume"
        )
    return checkpoint


def _truncate_output(out_path: Path, length: int) -> None:
    """Cut the clean output back to the checkpointed consistent length."""
    with open(out_path, "rb+") as handle:
        handle.truncate(length)


def _reload_dataset(out_path: Path) -> PathDataset:
    """Rebuild the accepted-so-far dataset from the clean output file."""
    return read_table_dump(out_path, max_malformed_fraction=None).dataset


class _Breaker:
    """Sliding-window malformed-burst circuit breaker."""

    def __init__(self, window: int, threshold: float) -> None:
        self._flags: deque[int] = deque(maxlen=max(1, window))
        self._threshold = threshold
        self._damaged = 0

    def observe(self, damaged: bool) -> bool:
        """Record one record line; True when the breaker trips."""
        flags = self._flags
        if len(flags) == flags.maxlen:
            self._damaged -= flags[0]
        flags.append(1 if damaged else 0)
        self._damaged += flags[-1]
        return (
            len(flags) == flags.maxlen
            and self._damaged >= self._threshold * flags.maxlen
        )

    @property
    def window_damaged(self) -> int:
        """Damaged lines currently in the window."""
        return self._damaged

    @property
    def window_size(self) -> int:
        """Lines currently in the window."""
        return len(self._flags)


def ingest_table_dump(
    source: str | Path,
    out_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    config: IngestConfig | None = None,
    should_stop: Callable[[], int | None] | None = None,
) -> IngestResult:
    """Ingest a ``bgpdump -m`` feed into a clean dataset + exact report.

    ``out_path`` receives the normalised clean dump, written
    incrementally (required when checkpointing).  ``checkpoint_path``
    enables periodic atomic progress snapshots; with ``resume=True`` an
    existing checkpoint continues the run from its last offset, and the
    final dataset/report are identical to an uninterrupted run.  A
    completed checkpoint makes the whole call idempotent: rerunning it
    returns the finished results without re-reading the feed.

    ``should_stop`` is polled once per source line; returning a signal
    number writes a final checkpoint and raises
    :class:`~repro.errors.ShutdownRequested` — the graceful-drain hook
    the CLI wires to SIGINT/SIGTERM.
    """
    source = Path(source)
    out_path = Path(out_path) if out_path is not None else None
    checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
    if checkpoint_path is not None and out_path is None:
        raise ValueError("checkpointing requires out_path for the clean dump")
    config = config or IngestConfig()

    report = IngestReport(source=str(source), format="bgpdump")
    dataset = PathDataset()
    start_offset = 0
    start_line = 0
    resumed_from_line = 0

    if resume and checkpoint_path is not None and checkpoint_path.exists():
        checkpoint = _restore(checkpoint_path, source, out_path)
        assert out_path is not None
        _truncate_output(out_path, checkpoint.out_offset)
        report = IngestReport.from_dict(checkpoint.report)
        report.source = str(source)
        dataset = _reload_dataset(out_path)
        start_offset = checkpoint.byte_offset
        start_line = checkpoint.line_number
        resumed_from_line = checkpoint.line_number
        if checkpoint.complete:
            logger.info("ingest of %s already complete; nothing to do", source)
            return IngestResult(dataset, report, resumed_from_line)
        logger.info(
            "resuming ingest of %s from line %d (byte %d)",
            source, start_line, start_offset,
        )

    registry = get_registry()
    lines_counter = registry.counter("ingest.lines")
    accepted_counter = registry.counter("ingest.accepted")
    reason_counters: dict[str, Counter] = {}

    fingerprint = (
        ingest_fingerprint(source) if checkpoint_path is not None else ""
    )
    breaker = (
        _Breaker(config.burst_window, config.burst_threshold)
        if config.burst_window > 0
        else None
    )
    line_number = start_line
    lines_since_checkpoint = 0

    out_handle = None
    source_handle = open(source, "rb")
    try:
        if out_path is not None:
            if resumed_from_line:
                # Not "ab": append mode reports tell() == 0 until the
                # first write, which would checkpoint a zero out_offset.
                out_handle = open(out_path, "rb+")
                out_handle.seek(0, os.SEEK_END)
            else:
                out_handle = open(out_path, "wb")
        source_handle.seek(start_offset)

        def snapshot(complete: bool = False) -> None:
            """Flush the clean output and atomically checkpoint progress."""
            if checkpoint_path is None:
                return
            if out_handle is not None:
                out_handle.flush()
                os.fsync(out_handle.fileno())
            save_ingest_checkpoint(
                checkpoint_path,
                IngestCheckpoint(
                    source=str(source),
                    fingerprint=fingerprint,
                    byte_offset=source_handle.tell(),
                    line_number=line_number,
                    out_offset=out_handle.tell() if out_handle else 0,
                    complete=complete,
                    report=report.to_dict(),
                ),
            )

        for raw in source_handle:
            line_number += 1
            lines_since_checkpoint += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith(b"#"):
                for record in iter_table_dump(
                    [raw], strict=config.strict, start_line=line_number - 1
                ):
                    rejection = record.rejection
                    if record.route is not None:
                        outcome = sanitize_route(
                            record.route, record.line_number, config.sanitize
                        )
                        if outcome.prepends_collapsed:
                            report.record_modified(
                                PREPEND_COLLAPSE, outcome.prepends_collapsed
                            )
                        if outcome.route is not None:
                            report.record_accept()
                            accepted_counter.inc()
                            dataset.add(outcome.route)
                            if out_handle is not None:
                                out_handle.write(
                                    (
                                        format_dump_line(
                                            outcome.route, record.peer_ip
                                        )
                                        + "\n"
                                    ).encode("utf-8")
                                )
                            rejection = None
                        else:
                            rejection = outcome.rejection
                    if rejection is not None:
                        report.record_reject(rejection)
                        counter = reason_counters.get(rejection.reason)
                        if counter is None:
                            counter = registry.counter(
                                labelled(
                                    "ingest.quarantined",
                                    reason=rejection.reason,
                                )
                            )
                            reason_counters[rejection.reason] = counter
                        counter.inc()
                    lines_counter.inc()
                    damaged = (
                        rejection is not None
                        and rejection.reason not in EXPECTED_REASONS
                    )
                    if breaker is not None and breaker.observe(damaged):
                        raise IngestError(
                            f"feed turned to garbage at line {line_number}: "
                            f"{breaker.window_damaged} of the last "
                            f"{breaker.window_size} record lines were "
                            f"damaged (>= {config.burst_threshold:.0%}); "
                            "aborting ingest",
                            report=report,
                        )
            # Line-boundary bookkeeping only below this point: the line
            # is fully processed, so source_handle.tell() names a resume
            # position that neither loses nor double-counts it.
            if should_stop is not None:
                signum = should_stop()
                if signum:
                    snapshot()
                    raise ShutdownRequested(signum)
            if (
                checkpoint_path is not None
                and lines_since_checkpoint >= config.checkpoint_every
            ):
                snapshot()
                lines_since_checkpoint = 0

        if (
            config.max_malformed_fraction is not None
            and report.lines
            and report.damaged_fraction > config.max_malformed_fraction
        ):
            raise IngestError(
                f"feed is mostly garbage: {report.damaged} of "
                f"{report.lines} record lines damaged "
                f"(+{report.quarantined.get('as-set', 0)} AS_SET skips) "
                f"exceeds the {config.max_malformed_fraction:.0%} threshold",
                report=report,
            )
        snapshot(complete=True)
    finally:
        source_handle.close()
        if out_handle is not None:
            out_handle.close()

    registry.gauge("ingest.accepted_fraction").set(
        report.accepted / report.lines if report.lines else 0.0
    )
    logger.info(
        "ingested %s: %d lines, %d accepted, %d quarantined",
        source, report.lines, report.accepted, report.total_quarantined,
    )
    return IngestResult(dataset, report, resumed_from_line)
