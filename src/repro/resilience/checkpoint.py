"""Atomic checkpoint/resume for long refinement runs.

A checkpoint is one JSON document holding the refiner's loop state
(iteration counter, best match count, staleness counter, per-iteration
stats) plus the full model network serialised through the existing
C-BGP-style config persistence (:mod:`repro.cbgp`) — installed per-prefix
policies and duplicated quasi-routers round-trip through it already.
Routing state (RIBs) is deliberately *not* stored: simulation is
deterministic, so resume re-simulates and lands in the same state.

Writing and the "is this a checkpoint at all" checks are
:mod:`repro.runstate`'s; this module builds the bodies and validates the
fields.
"""

from __future__ import annotations

import hashlib
import io
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cbgp.export import export_network
from repro.cbgp.parse import parse_script
from repro.errors import CheckpointError
from repro.runstate import read_state, write_state

CHECKPOINT_FORMAT = "repro/refiner-checkpoint/v1"
INGEST_CHECKPOINT_FORMAT = "repro/ingest-checkpoint/v1"

logger = logging.getLogger(__name__)


def training_fingerprint(targets: dict[int, list[tuple[int, ...]]]) -> str:
    """A stable digest of the refiner's training targets.

    Stored in the checkpoint and compared on resume, so a checkpoint
    written against one training set cannot silently steer a run over a
    different one (same-origin datasets pass the origin check but would
    converge to the wrong model).
    """
    digest = hashlib.sha256()
    for origin in sorted(targets):
        digest.update(str(origin).encode("ascii"))
        for path in targets[origin]:
            digest.update(("|" + " ".join(map(str, path))).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def certificate_store_path(checkpoint_path: str | Path) -> Path:
    """The sibling file holding a checkpoint's safety-certificate store.

    Kept separate from the checkpoint document so the store stays
    optional: old checkpoints (and runs without ``--lint-gate``) resume
    unchanged, and a missing or corrupt store only costs one full
    re-certification, never the refinement state itself.
    """
    path = Path(checkpoint_path)
    return path.with_name(path.name + ".certs")


@dataclass
class RefinerCheckpoint:
    """The persisted state of an in-progress refinement run."""

    network_config: str
    network_name: str = "parsed"
    fingerprint: str = ""
    iteration: int = 0
    best_matched: int = -1
    stale_iterations: int = 0
    iterations: list[dict] = field(default_factory=list)

    def restore_model(self):
        """Rebuild the checkpointed :class:`~repro.core.model.ASRoutingModel`."""
        # Imported here, not at module level: core.model imports the
        # resilience package for its quarantine API, so a top-level import
        # would be circular.
        from repro.core.model import ASRoutingModel

        try:
            network = parse_script(io.StringIO(self.network_config))
        except (ValueError, IndexError) as error:
            # ParseError is a ValueError; the config parser also lets bare
            # unpacking/indexing errors out on lines it half-recognises.
            raise CheckpointError(
                f"checkpointed network is corrupt: {error}"
            ) from error
        network.name = self.network_name
        return ASRoutingModel.from_network(network)


def save_checkpoint(
    path: str | Path,
    network,
    iteration: int,
    best_matched: int,
    stale_iterations: int,
    iterations: list[dict],
    fingerprint: str = "",
) -> None:
    """Atomically write a checkpoint for ``network`` + refiner loop state."""
    buffer = io.StringIO()
    export_network(network, buffer)
    write_state(path, CHECKPOINT_FORMAT, {
        "network_name": network.name,
        "fingerprint": fingerprint,
        "iteration": iteration,
        "best_matched": best_matched,
        "stale_iterations": stale_iterations,
        "iterations": iterations,
        "network_config": buffer.getvalue(),
    })
    logger.debug("checkpointed iteration %d to %s", iteration, path)


def load_checkpoint(
    path: str | Path, fingerprint: str | None = None
) -> RefinerCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    With ``fingerprint`` given, a checkpoint stamped for a different
    training set is refused.
    """
    document = read_state(path, CHECKPOINT_FORMAT, CheckpointError, fingerprint)
    try:
        config = document["network_config"]
        if not isinstance(config, str):
            raise TypeError("network_config must be a string")
        return RefinerCheckpoint(
            network_config=config,
            network_name=str(document.get("network_name", "parsed")),
            fingerprint=str(document.get("fingerprint", "")),
            iteration=int(document["iteration"]),
            best_matched=int(document["best_matched"]),
            stale_iterations=int(document["stale_iterations"]),
            iterations=list(document["iterations"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint {path} has missing or malformed fields: {error!r}"
        ) from error


# ---------------------------------------------------------------------------
# Ingest checkpoints (line-offset resume for streaming feed ingestion)
# ---------------------------------------------------------------------------

_FINGERPRINT_HEAD = 64 * 1024


def ingest_fingerprint(path: str | Path) -> str:
    """A cheap identity for a feed file: size plus a head-of-file digest.

    A multi-GB dump must not be re-hashed in full just to resume, but a
    checkpoint taken against one feed must refuse to steer an ingest of
    a different one.  Size + SHA-256 of the first 64 KiB catches every
    realistic swap (different snapshot, different collector) without
    touching more than one read's worth of data.
    """
    path = Path(path)
    size = path.stat().st_size
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read(_FINGERPRINT_HEAD))
    return f"{size}:{digest.hexdigest()}"


@dataclass
class IngestCheckpoint:
    """The persisted progress of an in-progress feed ingest.

    ``byte_offset`` always sits on a line boundary of the source feed;
    ``out_offset`` is the matching length of the clean output file, so a
    resume can truncate away any records appended after the snapshot and
    the (source position, output position, report counters) triple stays
    consistent no matter where the interruption landed.
    """

    source: str
    fingerprint: str
    byte_offset: int = 0
    line_number: int = 0
    out_offset: int = 0
    complete: bool = False
    report: dict = field(default_factory=dict)


def save_ingest_checkpoint(path: str | Path, checkpoint: IngestCheckpoint) -> None:
    """Atomically write an ingest checkpoint."""
    write_state(path, INGEST_CHECKPOINT_FORMAT, asdict(checkpoint))
    logger.debug(
        "ingest checkpoint at line %d (byte %d) to %s",
        checkpoint.line_number, checkpoint.byte_offset, path,
    )


def load_ingest_checkpoint(
    path: str | Path, fingerprint: str | None = None
) -> IngestCheckpoint:
    """Read a checkpoint written by :func:`save_ingest_checkpoint`.

    With ``fingerprint`` given, a checkpoint taken against a different
    feed is refused.
    """
    document = read_state(
        path, INGEST_CHECKPOINT_FORMAT, CheckpointError, fingerprint
    )
    try:
        return IngestCheckpoint(
            source=str(document["source"]),
            fingerprint=str(document["fingerprint"]),
            byte_offset=int(document["byte_offset"]),
            line_number=int(document["line_number"]),
            out_offset=int(document["out_offset"]),
            complete=bool(document.get("complete", False)),
            report=dict(document.get("report") or {}),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint {path} has missing or malformed fields: {error!r}"
        ) from error
