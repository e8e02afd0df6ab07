"""What a ``repro`` subcommand is made of.

A command is declared beside the subsystem it drives (``data/commands.py``,
``core/commands.py``, ...) as one :class:`Command`, and :mod:`repro.cli`
— whose docstring is the contract between the two — lists them and runs
them.  Also here: what several command modules share — the argparse value
types, the supervised-pool flags and the loader of the file most commands
are pointed at, a model config (a compiled artifact loads itself:
:meth:`~repro.serve.artifact.PredictionArtifact.load`).
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Callable
from typing import NamedTuple, Protocol

from repro.cbgp.parse import parse_script
from repro.core.model import ASRoutingModel
from repro.parallel import ParallelConfig
from repro.resilience.health import EXIT_OK


class Report(Protocol):
    """What the spine can emit; ``render()`` and ``exit_code`` are optional."""

    def to_json(self) -> str: ...


class Command(NamedTuple):
    """One subcommand, as :func:`repro.cli.build_parser` composes it.  Its
    one-line help lives in :data:`repro.cli.COMMANDS`, so ``repro --help``
    prints it without importing the module that declares the command."""

    name: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], Report | int | None]
    report_option: tuple[str, str] | None = None
    """``(dest, noun)`` of the flag naming a file the command's report is
    also written to: ``("health_report", "health report")`` writes it to
    ``args.health_report`` and says ``wrote health report to PATH``."""


class Output(NamedTuple):
    """A report assembled from callables, for a result that needs
    arguments to render or has no ``to_json`` of its own."""

    to_json: Callable[[], str]
    render: Callable[[], str] | None = None
    exit_code: int = EXIT_OK


def json_text(document: object) -> str:
    """``document`` the way every command prints JSON."""
    return json.dumps(document, indent=2, sort_keys=True)


def open_unit_fraction(text: str) -> float:
    """argparse ``type=``: a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type=``: a float a population can be scaled by."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be more than 0, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """argparse ``type=``: a float limit where 0 turns the limit off."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=``: an int that can cap a list (``items[:n]``)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text}")
    return value


def positive_int(text: str) -> int:
    """argparse ``type=``: an int that can size something (a cache, a sample)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {text}")
    return value


def add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """Supervised-pool flags: refine, chaos, compile-artifact, campaign."""
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="worker processes for per-prefix simulation (1 = sequential, "
             "bit-for-bit the single-process path)")
    parser.add_argument(
        "--task-timeout", type=non_negative_float, default=60.0,
        help="per-prefix wall-clock watchdog in seconds; a worker past it "
             "is killed and the prefix resubmitted (0 disables)")
    parser.add_argument(
        "--max-resubmits", type=non_negative_int, default=2,
        help="fresh workers a crashing/hanging prefix gets before being "
             "quarantined as poison")


def parallel_config(args: argparse.Namespace) -> ParallelConfig | None:
    """A :class:`~repro.parallel.ParallelConfig` from the flags, or None."""
    if args.workers <= 1:
        return None
    return ParallelConfig(
        workers=args.workers,
        task_timeout=args.task_timeout or None,
        max_resubmits=args.max_resubmits,
    )


def load_model(path: str) -> ASRoutingModel:
    """Load a saved model config; raises the load errors unwrapped."""
    with open(path, encoding="ascii") as handle:
        return ASRoutingModel.from_network(parse_script(handle))
