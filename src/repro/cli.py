"""Command-line interface: ``repro <subcommand>`` — the spine.

The subcommands are declared beside the subsystems they drive, one
:class:`~repro.command.Command` each (``data/commands.py``,
``core/commands.py``, ...: each module documents its own).  This module
lists them in :data:`COMMANDS` and is the only place a run is set up,
observed, emitted and mapped to an exit code.  Around every handler,
:func:`main` configures logging (``--log-level`` / ``--log-json``), stamps
the run metadata onto ``args.meta``, resets the metrics registry, opens
the profile scope under ``repro --profile PATH`` (the phase profiler and
the stack sampler, written to ``PATH`` and ``PATH`` with a ``.folded``
suffix even when the run fails; the table goes to stderr, so stdout is
the command's own), opens a JSONL trace where the command declares
``--trace``, emits what the handler returns and turns what it raises into
one ``error:`` line and a code.

A handler prints its own progress and returns ``None``, an ``EXIT_*``
constant or a *report* — anything with ``to_json()``, optionally
``render()`` and ``exit_code``; :class:`~repro.command.Output` adapts what
does not print itself.  :func:`emit` writes a report to the command's
``--report`` / ``--health-report`` / ``--stats-report`` PATH, prints it as
JSON under ``--json`` and as text otherwise, and exits with its code.  A
handler never prints ``error:`` and never returns a literal 1-5: it raises,
and may hang the run's partial report on the error (``error.report``,
emitted on the way out) so a failed run still leaves its report file.

Exit codes, for every subcommand (constants in
:mod:`repro.resilience.health`):

====  ================================================================
0     ok
1     the run finished but failed its own verdict: refinement stalled,
      ``lint`` error findings (``--diff``: new errors), an ingest
      quality gate or strict-mode parse error
      (:class:`~repro.errors.IngestError`), a failed serve-chaos
      assertion, serve workers that cannot boot
2     usage (:class:`~repro.errors.UsageError`, or argparse itself): bad
      flag combinations, out-of-range values, unknown ASNs or query
      targets
3     degraded result: diverged / poison / timeout prefixes or scenarios
      quarantined, a query for a quarantined origin, or a ``whatif``
      refusing a model with a prefix that does not converge (an
      escaping :class:`~repro.errors.SimulationError`)
4     unusable input: an unreadable, corrupt, stale or mismatched dump,
      model config, artifact, checkpoint, certificate store or report
      (any load error a handler lets escape)
5     interrupted by SIGINT/SIGTERM after a graceful drain
      (:class:`~repro.errors.ShutdownRequested`, or a report that says so)
====  ================================================================
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.analysis.commands import LINT
from repro.campaign.commands import CAMPAIGN, WHATIF
from repro.command import Command, Report, json_text
from repro.core.commands import REFINE
from repro.data.commands import ANALYZE, INGEST, SYNTHESIZE
from repro.errors import (
    ArtifactError,
    CertificateError,
    CheckpointError,
    DatasetError,
    IngestError,
    ParseError,
    ReproError,
    ShutdownRequested,
    SimulationError,
    TopologyError,
    UsageError,
)
from repro.experiments.commands import CHAOS
from repro.obs.commands import EXPLAIN, STATS
from repro.obs.logs import LEVELS, configure_logging
from repro.obs.meta import run_metadata
from repro.obs.metrics import get_registry
from repro.obs.profile import (
    PhaseProfiler,
    build_profile_document,
    profiling,
    render_profile,
)
from repro.obs.sampling import StackSampler
from repro.obs.trace import JsonlTracer, tracing
from repro.resilience.health import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_USAGE,
)
from repro.runstate import atomic_write
from repro.serve.commands import COMPILE_ARTIFACT, QUERY, SERVE

COMMANDS: tuple[Command, ...] = (
    SYNTHESIZE,
    INGEST,
    ANALYZE,
    REFINE,
    LINT,
    CHAOS,
    EXPLAIN,
    STATS,
    WHATIF,
    COMPILE_ARTIFACT,
    QUERY,
    SERVE,
    CAMPAIGN,
)
"""Every subcommand, in ``repro --help`` order."""

LOAD_ERRORS = (
    OSError,
    ParseError,
    TopologyError,
    DatasetError,
    ArtifactError,
    CertificateError,
    CheckpointError,
)
"""What an unusable input file raises, whichever loader met it."""

def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quasi-router AS-topology modelling (SIGCOMM'06 reproduction)",
    )
    parser.add_argument("--log-level", choices=LEVELS, default="warning",
                        help="stdlib logging level for the repro logger tree")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines")
    parser.add_argument("--profile", metavar="PATH",
                        help="profile the command: write PROFILE.json to "
                             "PATH and its sampled stacks to PATH with a "
                             ".folded suffix")
    subparsers = parser.add_subparsers(title="subcommands")
    for command in COMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        command.add_arguments(subparser)
        subparser.set_defaults(command=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_format=args.log_json)
    if not hasattr(args, "command"):
        parser.print_help()
        return EXIT_USAGE
    # The exact invocation, also when main() is called programmatically.
    args.meta = run_metadata(argv=list(argv) if argv is not None else sys.argv[1:])
    get_registry().reset()
    try:
        return _run(args)
    except UsageError as error:
        return _failed(error, EXIT_USAGE)
    except IngestError as error:  # before DatasetError, its base
        return _failed(error, EXIT_UNCONVERGED)
    except SimulationError as error:
        return _failed(error, EXIT_DIVERGED)
    except LOAD_ERRORS as error:
        return _failed(error, EXIT_DATA)
    except ShutdownRequested as shutdown:
        message = str(shutdown)
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint and os.path.exists(checkpoint):
            hint = "--resume" if hasattr(args, "resume") else "the same --checkpoint"
            message += (
                f"; checkpoint saved to {checkpoint}; rerun with {hint} to continue"
            )
        print(message, file=sys.stderr)
        return EXIT_INTERRUPTED


def _failed(error: Exception, code: int) -> int:
    """The tree's one ``error:`` line; the except ladder above is the table
    of which escaping error exits with which code."""
    print(f"error: {error}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    """Call the handler under the profile and trace scopes and emit what it
    returns — or, on the way out, the partial report carried by what it
    raises."""
    try:
        with _profiled(args), _traced(getattr(args, "trace", None)):
            return emit(args, args.command.run(args))
    except ReproError as error:
        if error.report is not None:
            emit(args, error.report)
        raise


@contextmanager
def _profiled(args: argparse.Namespace) -> Iterator[None]:
    """Under ``--profile PATH``: attribute the run to named phases and
    sample its stacks, then write both — also when the run fails."""
    path = args.profile
    if not path:
        yield
        return
    folded = Path(path).with_suffix(".folded")
    profiler, sampler = PhaseProfiler(), StackSampler()
    try:
        with profiling(profiler), sampler:
            yield
    finally:
        document = build_profile_document(
            profiler,
            wall_seconds=time.perf_counter() - profiler.started_wall,
            cpu_seconds=time.process_time() - profiler.started_cpu,
            workload={"name": args.command.name},
            meta=args.meta,
            sampling=sampler.summary(folded),
        )
        sampler.write_folded(folded)
        atomic_write(path, json_text(document) + "\n")
        print(render_profile(document), file=sys.stderr)
        print(f"wrote profile to {path}", file=sys.stderr)


@contextmanager
def _traced(path: str | None) -> Iterator[None]:
    """Write the run's spans and events to ``path`` as JSON lines."""
    if not path:
        yield
        return
    with tracing(JsonlTracer(path)) as tracer:
        try:
            yield
        finally:
            print(f"wrote {tracer.records_written} trace records to {path}",
                  file=sys.stderr)


def emit(args: argparse.Namespace, report: Report | int | None) -> int:
    """File and print what a handler returned; the run's exit code."""
    if report is None:
        return EXIT_OK
    if isinstance(report, int):
        return report
    if args.command.report_option is not None:
        dest, noun = args.command.report_option
        path = getattr(args, dest)
        if path:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(report.to_json() + "\n")
            print(f"wrote {noun} to {path}", file=sys.stderr)
    render = getattr(report, "render", None)
    if getattr(args, "as_json", False):
        print(report.to_json())
    elif render is not None:
        print(render())
    return getattr(report, "exit_code", EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
