"""The run-lifecycle spine: durable state files and drain signals.

Every subsystem that survives a kill — refiner and ingest checkpoints,
campaign checkpoints, certificate stores, prediction artifacts — writes
through :func:`atomic_write`, and every JSON state document goes through
:func:`write_state` / :func:`read_state` (a report the CLI merely reads
back through :func:`read_json_object`, the ladder's first three rungs),
so the "is this file what it claims to be" ladder exists once.  Every
loop that drains on SIGINT/SIGTERM does so inside one
:class:`drain_signals` scope.

A state document is one JSON object carrying ``"format"`` (a
``repro/<kind>/v<N>`` string) beside the owner's flat fields; whitespace
and key order are not part of any format.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Callable

from repro.errors import ReproError


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` so a crash never leaves half a file.

    The bytes land in a sibling ``<name>.tmp`` first and ``os.replace``
    swaps it in; a failure at either step leaves ``path`` untouched.
    """
    target = Path(path)
    temp = target.with_name(target.name + ".tmp")
    if isinstance(data, str):
        temp.write_text(data, encoding="utf-8")
    else:
        temp.write_bytes(data)
    os.replace(temp, target)


def write_state(path: str | Path, format: str, body: dict) -> None:
    """Atomically persist ``body`` as a state document of ``format``."""
    atomic_write(path, json.dumps({**body, "format": format}, sort_keys=True))


def read_json_object(
    path: str | Path, kind: str, error: type[ReproError]
) -> dict:
    """Read the JSON object in ``path``, or raise ``error`` naming it.

    Rejects, in order: an unreadable file, bytes that are not JSON (not
    text at all, or nested past the parser's recursion limit, included)
    and JSON that is not an object.  ``kind`` is what the messages call
    the file.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise error(
            f"{kind} {path} is corrupt (not valid JSON): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise error(
            f"{kind} {path} is corrupt: expected a JSON object, "
            f"found {type(document).__name__}"
        )
    return document


def read_state(
    path: str | Path,
    format: str,
    error: type[ReproError],
    fingerprint: str | None = None,
) -> dict:
    """Read a state document back, or raise ``error`` naming ``path``.

    Rejects, in order: what :func:`read_json_object` rejects, a different
    ``format``, and — when ``fingerprint`` is given — a document stamped
    for different inputs.  Field validation past that point belongs to
    the caller.
    """
    kind = format.split("/")[1].replace("-", " ")
    document = read_json_object(path, kind, error)
    if document.get("format") != format:
        raise error(
            f"{path} is not a {kind} (format {document.get('format')!r}, "
            f"this build reads {format!r})"
        )
    if fingerprint is not None and document.get("fingerprint") != fingerprint:
        raise error(
            f"{kind} {path} was written for a different {kind.split()[0]} "
            "run (fingerprint mismatch: the inputs changed); delete it or "
            "rerun without resuming from it"
        )
    return document


class drain_signals:  # noqa: N801 - used as ``with drain_signals() as drain``
    """Scope in which SIGINT/SIGTERM set ``.signum`` instead of killing.

    ``signum`` stays ``None`` until a stop signal arrives; what the
    caller then does — final checkpoint, bounded grace, exit 5 — is its
    own contract.  ``on_stop(signum)`` runs inside the handler for callers
    that must wake a waiting thread; ``on_hup`` additionally routes
    SIGHUP where the platform has it.  Signal handlers can only be
    installed from the main thread: elsewhere the scope installs nothing
    and stays usable by assigning ``signum`` directly.  The previous
    handlers come back, in reverse order, when the scope exits.
    """

    def __init__(
        self,
        on_stop: Callable[[int], None] | None = None,
        on_hup: Callable[[], None] | None = None,
    ) -> None:
        self.signum: int | None = None
        self._on_stop = on_stop
        self._on_hup = on_hup
        self._previous: list[tuple[int, object]] = []

    def _handle_stop(self, signum, frame) -> None:  # noqa: ARG002
        self.signum = signum
        if self._on_stop is not None:
            self._on_stop(signum)

    def __enter__(self) -> "drain_signals":
        handled = [
            (signal.SIGINT, self._handle_stop),
            (signal.SIGTERM, self._handle_stop),
        ]
        on_hup = self._on_hup
        if on_hup is not None and hasattr(signal, "SIGHUP"):
            handled.append((signal.SIGHUP, lambda signum, frame: on_hup()))
        for signum, handler in handled:
            try:
                self._previous.append((signum, signal.signal(signum, handler)))
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._previous:
            signum, handler = self._previous.pop()
            signal.signal(signum, handler)
