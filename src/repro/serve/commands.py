"""The ``repro`` commands of the serving split.

* ``repro compile-artifact`` — simulate every canonical prefix of a
  saved model once (``--workers`` fans out to the supervised pool) and
  freeze every (origin, observer) answer into a checksummed prediction
  artifact.
* ``repro query`` — answer one paths/diversity/lookup question from a
  compiled artifact, no simulation.
* ``repro serve`` — serve a compiled artifact over a threaded HTTP/JSON
  API (GET /paths /diversity /lookup /healthz /metrics) until a
  SIGINT/SIGTERM drains it gracefully.  The flags default to
  :class:`~repro.serve.supervisor.ServeOptions`, which builds the
  in-process server and every ``--workers`` process alike.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from repro.command import (
    Command,
    Output,
    add_parallel_arguments,
    json_text,
    load_model,
    non_negative_float,
    non_negative_int,
    parallel_config,
    positive_float,
    positive_int,
)
from repro.data.caida import read_as_rel
from repro.errors import ModelError, SimulationError, UsageError
from repro.resilience.health import EXIT_DIVERGED, EXIT_OK, RunHealth
from repro.serve.artifact import PredictionArtifact
from repro.serve.compile import compile_artifact, write_artifact
from repro.serve.engine import QUARANTINED, QueryEngine, QueryError
from repro.serve.http import DEFAULT_PORT
from repro.serve.supervisor import ServeOptions, ServeSupervisor


def _compile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model",
                        help="model config written by 'repro refine --out'")
    parser.add_argument("--out", required=True,
                        help="artifact file to write")
    parser.add_argument("--observers", type=int, nargs="*", metavar="ASN",
                        help="restrict answers to these observer ASes "
                             "(default: every AS in the model)")
    parser.add_argument("--relationships", metavar="AS_REL",
                        help="CAIDA as-rel file; enables the Gao-Rexford "
                             "pass in the embedded safety certificates")
    add_parallel_arguments(parser)


def _compile(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    relationships = None
    if args.relationships:
        relationships = read_as_rel(args.relationships).relationships
    started = time.perf_counter()
    try:
        artifact, report = compile_artifact(
            model,
            observers=args.observers or None,
            parallel=parallel_config(args),
            meta=args.meta,
            relationships=relationships,
        )
    except ModelError as error:
        raise UsageError(str(error)) from error
    size = write_artifact(artifact, args.out)
    print(
        f"compiled {len(artifact.origins)} origins x "
        f"{len(artifact.observers)} observers -> {report.pairs} pairs "
        f"with paths in {time.perf_counter() - started:.1f}s"
    )
    cert_fingerprint = str(artifact.certificates.get("fingerprint", ""))
    print(
        f"certified {len(artifact.certificates.get('certificates') or ())} "
        f"certificate(s), {report.certified_findings} finding(s), "
        f"store fingerprint {cert_fingerprint[:12] or '(none)'}"
    )
    if report.quarantined:
        print(
            f"quarantined prefixes (refuse queries): "
            f"{' '.join(report.quarantined)}",
            file=sys.stderr,
        )
    print(f"wrote {size} bytes to {args.out}")
    return EXIT_DIVERGED if report.quarantined else EXIT_OK


def _query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("artifact",
                        help="artifact written by 'repro compile-artifact'")
    parser.add_argument("--origin", type=int, metavar="ASN",
                        help="origin AS (with --observer: a paths query)")
    parser.add_argument("--observer", type=int, metavar="ASN", required=True,
                        help="observer AS answering the question")
    parser.add_argument("--lookup", metavar="IP_OR_PREFIX",
                        help="longest-prefix-match this address/prefix "
                             "instead of naming an origin")
    parser.add_argument("--diversity", action="store_true",
                        help="report the route-diversity summary instead "
                             "of the raw path set")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the answer as JSON instead of text")


def _query(args: argparse.Namespace) -> Output:
    if (args.origin is None) == (args.lookup is None):
        raise UsageError("give exactly one of --origin or --lookup")
    if args.diversity and args.lookup is not None:
        raise UsageError("--diversity needs --origin (it does not combine with "
                         "--lookup)")
    engine = QueryEngine(PredictionArtifact.load(args.artifact))
    try:
        if args.lookup is not None:
            answer = engine.lookup(args.lookup, args.observer)
        elif args.diversity:
            answer = engine.diversity(args.origin, args.observer)
        else:
            answer = engine.paths(args.origin, args.observer)
    except QueryError as error:
        refused = SimulationError if error.kind == QUARANTINED else UsageError
        raise refused(str(error)) from error
    payload = answer.to_dict()
    return Output(partial(json_text, payload), partial(_render_answer, payload))


def _render_answer(payload: dict) -> str:
    if "path_count" in payload:  # diversity answer
        return (f"AS{payload['observer']} -> AS{payload['origin']} "
                f"({payload['prefix']}): {payload['path_count']} path(s), "
                f"next hops {payload['next_hops']}, "
                f"lengths {payload['min_length']}..{payload['max_length']}")
    label = payload.get("target") or f"AS{payload['origin']}"
    lines = [f"AS{payload['observer']} -> {label} "
             f"({payload.get('matched_prefix') or payload['prefix']}):"]
    if not payload["paths"]:
        lines.append("  (unreachable)")
    lines += [f"  {' '.join(map(str, path))}" for path in payload["paths"]]
    return "\n".join(lines)


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = ServeOptions()
    parser.add_argument("artifact",
                        help="artifact written by 'repro compile-artifact'")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--cache-size", type=positive_int,
                        default=defaults.cache_size,
                        help="bounded LRU entries in the query cache")
    parser.add_argument("--request-timeout", type=positive_float,
                        default=defaults.request_timeout,
                        help="per-connection socket timeout in seconds")
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="serve from N supervised SO_REUSEPORT "
                             "processes; a killed worker is replaced "
                             "automatically (default: 1, in-process)")
    parser.add_argument("--max-inflight", type=non_negative_int,
                        default=defaults.max_inflight,
                        help="bounded admission: concurrent requests "
                             "before load-shedding 503s (0 disables "
                             "admission control)")
    parser.add_argument("--deadline", type=positive_float,
                        default=defaults.deadline_seconds,
                        help="per-request deadline in seconds (metered; "
                             "late finishes count serve.deadline_exceeded)")
    parser.add_argument("--watch-artifact", type=positive_float,
                        default=defaults.watch_interval,
                        metavar="SECONDS",
                        help="poll the artifact file at this interval and "
                             "hot-reload when it changes (SIGHUP and "
                             "POST /-/reload always work)")
    parser.add_argument("--chaos-delay-ms", type=non_negative_float,
                        default=defaults.handler_delay * 1000.0,
                        help="artificial per-query handler delay for "
                             "overload/chaos testing (milliseconds)")
    parser.add_argument("--stats-report",
                        help="write a 'repro stats'-renderable JSON report "
                             "here after the drain")


def _serve(args: argparse.Namespace) -> Output:
    options = ServeOptions(
        cache_size=args.cache_size,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
        deadline_seconds=args.deadline,
        watch_interval=args.watch_artifact,
        handler_delay=args.chaos_delay_ms / 1000.0,
    )
    engine = options.load_engine(args.artifact)
    try:
        if args.workers > 1:
            # N SO_REUSEPORT processes under the serve supervisor; each
            # worker loads the artifact itself, so the engine above only
            # served as an upfront validation of the file.
            code = ServeSupervisor(
                args.artifact, args.workers,
                host=args.host, port=args.port, options=options,
            ).run()
        else:
            code = options.serve(engine, args.artifact, args.host, args.port)
    except OSError as error:
        raise OSError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from error
    health = RunHealth()
    health.record_meta(args.meta)
    health.record_metrics()
    return Output(health.to_json, exit_code=code)


COMPILE_ARTIFACT = Command("compile-artifact", _compile_arguments, _compile)
QUERY = Command("query", _query_arguments, _query)
SERVE = Command(
    "serve", _serve_arguments, _serve, ("stats_report", "stats report")
)
