"""The pipeline benchmark: one command, every metric by name.

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--repeats N] [--world W] [--out DIR]

Each workload runs in its own fresh subprocess, one at a time and on one
thread (the box has 2 cores; run nothing beside it).  A run repeats the
whole pipeline until ``--seconds`` is used up, always at least once, and
reports the median over passes.  With ``--trace 1`` it runs one plain
pass and one traced pass instead, reports the per-layer metrics and
writes ``trace-<workload>.json``.  Correctness gates run before any
number is printed; a failed gate exits non-zero naming the check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the last
workload's, when several ran).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
sys.path[:0] = [str(HERE), str(SOURCE)]

import report  # noqa: E402

EXIT_CHECK_FAILED = 1
EXIT_UNUSABLE = 2
IMPORT_PROBES = 4


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the query stream and the campaign sample")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh subprocesses per workload; the median is reported")
    parser.add_argument("--world", type=int, default=0,
                        help="offset every pinned synthesis/observation/split seed")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child: one workload, in this process
# ----------------------------------------------------------------------


def timed_import() -> float:
    """Reference seconds this interpreter takes to import the pipeline.

    The imports are part of set-up; they are timed at the speed the
    sandbox ran at just before and after, like every stage (see spans.py).
    """
    from spans import REFERENCE_SECONDS, calibrate

    before = calibrate()
    began = time.perf_counter()
    import pipeline  # noqa: F401

    seconds = time.perf_counter() - began
    return seconds * REFERENCE_SECONDS / ((before + calibrate()) / 2.0)


def child_main(args: argparse.Namespace, spec: dict) -> int:
    # An interpreter imports once, so the other samples of the median
    # come from fresh interpreters that do nothing else.
    probe = [sys.executable, str(Path(__file__).resolve()), "--import-probe"]
    import_seconds = statistics.median(
        [timed_import()]
        + [
            float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
            for _ in range(IMPORT_PROBES)
        ]
    )
    from pipeline import CheckFailed, run_pass
    from repro.errors import ReproError
    from repro.obs.meta import run_metadata
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload].offset(args.world)
    args.out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    passes = []
    try:
        while True:
            began = time.perf_counter()
            passes.append(run_pass(workload, args.seed, args.out, traced=False))
            took = time.perf_counter() - began
            if args.trace or time.perf_counter() - started + took > args.seconds:
                break
        traced = run_pass(workload, args.seed, args.out, traced=True) if args.trace else None
    except (CheckFailed, ReproError) as error:
        print(f"{args.workload}: check failed: {error}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = traced or passes[-1]
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "world": args.world,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": last.attempted,
        "failed": last.failed,
        "exact": last.exact,
        "end_to_end": report.median_of_passes(
            [report.end_to_end(p, import_seconds, peak_rss_mb) for p in passes]
        ),
        "meta": {**run_metadata(seed=args.seed), "cpu_count": os.cpu_count()},
    }
    if traced is not None:
        names = [metric["name"] for metric in spec["per_layer"]]
        document["per_layer"] = report.per_layer(
            traced, names, untraced_wall=passes[0].wall_seconds
        )
        trace_path = args.out / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(traced.recorder.to_dicts()), encoding="ascii")
    print(json.dumps(document))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, aggregate, print
# ----------------------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str) -> dict | int:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--world", str(args.world), "--out", str(args.out),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if completed.returncode != 0:
        return completed.returncode
    return json.loads(completed.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    if not (SOURCE / "repro").is_dir() or not report.SPEC_PATH.is_file():
        print(
            f"error: need {SOURCE}/repro and {report.SPEC_PATH}; run from a full checkout",
            file=sys.stderr,
        )
        return EXIT_UNUSABLE
    spec = report.load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    args = parse_args(argv, workloads)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.import_probe:
        print(timed_import())
        return 0
    if args.child:
        return child_main(args, spec)

    section = "per_layer" if args.trace else "end_to_end"
    unit_of = report.units(spec, section)
    results = {}
    line = None
    for workload in [args.workload] if args.workload else workloads:
        documents = []
        for _ in range(max(1, args.repeats)):
            outcome = run_child(args, workload)
            if isinstance(outcome, int):
                return outcome
            documents.append(outcome)
        last = documents[-1]
        results[workload] = record = {
            "runs": len(documents),
            "passes": [document["passes"] for document in documents],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "exact": last["exact"],
            "end_to_end": report.aggregate(documents, "end_to_end"),
        }
        if args.trace:
            record["per_layer"] = report.aggregate(documents, "per_layer")
        print(report.render(
            f"{workload}  seed={args.seed} world={args.world} trace={args.trace} "
            f"runs={len(documents)} passes={last['passes']} "
            f"failed={last['failed']}/{last['attempted']}",
            record[section], unit_of,
        ))
        line = json.dumps({
            "correct": True,
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {
                name: {"value": stat["value"], "unit": unit_of[name]}
                for name, stat in record[section].items()
            },
        })
    (args.out / "run.json").write_text(
        json.dumps({"meta": last["meta"], "workloads": results}, indent=1, sort_keys=True)
        + "\n",
        encoding="ascii",
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
