"""Stdlib ``logging`` wiring for the ``repro`` package.

Every module logs through ``logging.getLogger(__name__)``; this module
only configures the handler/formatter for the ``repro`` namespace when
the CLI (or a library user) asks for it.  Importing the library never
touches global logging state — a library must not — so scripts that
embed :mod:`repro` keep full control.

``--log-json`` emits one JSON object per record (timestamp, level,
logger, message, plus any ``extra`` fields), matching the JSONL trace
format so both can feed the same log pipeline.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import IO

ROOT_LOGGER = "repro"

LEVELS = ("debug", "info", "warning", "error", "critical")

_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonFormatter(logging.Formatter):
    """Render each record as one JSON line."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "t": round(record.created - _EPOCH, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


_EPOCH = time.time()


def configure_logging(
    level: str = "warning",
    json_format: bool = False,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Configure the ``repro`` logger tree; returns the root package logger.

    Idempotent: re-running replaces the previously-installed handler
    rather than stacking a second one, so tests and long-lived sessions
    can reconfigure freely.  Records propagate no further than the
    ``repro`` logger, leaving the true root logger untouched.
    """
    if level.lower() not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; choose from {', '.join(LEVELS)}"
        )
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level.upper())
    logger.propagate = False
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    if json_format:
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    return logger


@contextmanager
def held_records() -> Iterator[None]:
    """Hold what the ``repro`` loggers emit until the block is over.

    The records reach the logger's handlers when the block returns and
    are dropped when it raises, so an error that makes them moot is the
    one thing a run says.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    held: list[logging.LogRecord] = []
    holder = logging.Handler()
    holder.emit = held.append  # type: ignore[method-assign]
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [holder], False
    try:
        yield
    finally:
        logger.handlers, logger.propagate = saved
    for record in held:
        logger.handle(record)
