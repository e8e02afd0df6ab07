#!/usr/bin/env python3
"""Where do the collector's passes land in the pipeline benchmark?

    python3 scripts/gc_stage_probe.py WORKLOAD [--world W] [--passes N]
                                      [--forbid STAGE[,STAGE...]] [--json FILE]

Runs ``benchmarks/pipeline``'s ``run_pass`` (imported, not modified) with
a ``gc.callbacks`` hook installed and prints, per stage, how many gen-0 /
gen-1 / gen-2 collections ran inside it, how long they took and the
index (1 = the pass's first collection) of the last collection begun by
the stage's end, then the index of every gen-2 collection and the stage
it fell in.  CPython starts a full (gen-2) collection by the count of
surviving tracked objects, not by the clock, so a change that leaves more
or fewer objects alive moves a ~0.1 s pass from one stage into another: a
short stage that "regresses" by one gen-2 pass shows it here, and a pass
that sits on a stage's last index is one allocation from the next stage
(see benchmarks/README.md).  ``--forbid`` turns the reading into a check:
exit 1, naming the stage, when a gen-2 pass begins inside a listed one
(the schedule differs between CPython versions, so pin one to compare).
``--json FILE`` writes, per pass, the ``ends_at`` index of every stage and
the ``[index, stage]`` of every gen-2 collection — no timings — so that
"identical through ``query``" between two commits is a ``diff`` of two
files rather than two tables read by eye.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks" / "pipeline"), str(ROOT / "src")]


def main() -> int:
    from pipeline import run_pass
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--world", type=int, default=0)
    parser.add_argument("--passes", type=int, default=2,
                        help="the benchmark repeats the pass in one process")
    parser.add_argument("--forbid", default="", metavar="STAGE[,STAGE...]",
                        help="exit 1 if a gen-2 pass begins inside one of these stages")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="write each pass's ends_at map and gen-2 list here")
    args = parser.parse_args()
    forbidden = {name for name in args.forbid.split(",") if name}
    offending: list[str] = []
    passes: list[dict] = []
    workload = WORKLOADS[args.workload].offset(args.world)

    collections: list[list[float]] = []  # [generation, started, seconds]

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append([info["generation"], time.perf_counter(), 0.0])
        else:
            collections[-1][2] = time.perf_counter() - collections[-1][1]

    with tempfile.TemporaryDirectory() as scratch:
        for number in range(1, args.passes + 1):
            collections.clear()
            gc.callbacks.append(hook)
            try:
                result = run_pass(workload, 0, Path(scratch), traced=False)
            finally:
                gc.callbacks.remove(hook)
            stages = [s for s in result.recorder.spans if s.name.startswith("stage.")]
            wall: dict[str, float] = defaultdict(float)
            for stage in stages:
                wall[stage.name[6:]] += stage.end - stage.start
            unknown = sorted(forbidden - set(wall))
            if unknown:
                parser.error(f"--forbid: no such stage: {unknown}")
            count: dict[tuple[str, int], int] = defaultdict(int)
            spent: dict[tuple[str, int], float] = defaultdict(float)
            full: list[tuple[int, str]] = []
            for index, (generation, started, seconds) in enumerate(collections, 1):
                inside = [s.name[6:] for s in stages if s.start <= started <= s.end]
                key = (inside[0] if inside else "(between)", int(generation))
                wall.setdefault(key[0], 0.0)
                count[key] += 1
                spent[key] += seconds
                if generation == 2:
                    full.append((index, key[0]))
            ends_at = {
                stage.name[6:]: sum(1 for c in collections if c[1] <= stage.end)
                for stage in stages  # a stage opened twice ends at its last span
            }
            passes.append({"ends_at": ends_at, "gen2": full})
            print(f"pass {number}: {args.workload} world={args.world}")
            print(f"  {'stage':<10} {'stage_s':>8}"
                  + "".join(f" {f'gen{g}':>6} {'s':>7}" for g in range(3))
                  + f" {'ends_at':>8}")
            for name, seconds in wall.items():
                print(f"  {name:<10} {seconds:8.3f}" + "".join(
                    f" {count[name, g]:6d} {spent[name, g]:7.3f}" for g in range(3))
                    + f" {ends_at.get(name, ''):>8}")
            print("  gen2 at: " + (" ".join(
                f"{index}({stage})" for index, stage in full) or "none"))
            offending += [
                f"pass {number}: gen-2 collection {index} begins inside {stage}"
                for index, stage in full if stage in forbidden
            ]
    if args.json_path:
        Path(args.json_path).write_text(json.dumps(
            {"workload": args.workload, "world": args.world, "passes": passes},
            indent=2,
        ) + "\n")
    for line in offending:
        print(line, file=sys.stderr)
    return 1 if offending else 0


if __name__ == "__main__":
    sys.exit(main())
