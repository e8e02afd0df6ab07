#!/usr/bin/env python3
"""Run the paper's experiments on one workload and judge each by its verdict.

The fidelity command behind EXPERIMENTS.md: it runs every paper entry of
``repro.experiments.EXPERIMENTS`` (Section 3 analyses, Table 2 baselines,
refinement, validation, origin split, model-size distribution, extension,
ablations, scaling), prints the rendered tables, and with ``--out`` files
the JSON records — every seeded metric plus ``verdict`` — under the
workload's name, leaving the other workloads' sections of that file alone.
Exits 1 when a verdict does not hold.

    python scripts/run_experiments.py --workload small --out results/FIDELITY_baseline.json
    python scripts/run_experiments.py --workload default --out results/FIDELITY_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, WORKLOADS, prepare
from repro.experiments.report import is_timing, write_json
from repro.obs.meta import run_metadata


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="default", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--out", help="file the JSON records under the workload's name here"
    )
    parser.add_argument(
        "--skip-ablations", action="store_true",
        help="skip the (expensive) ablation sweeps",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    def emit(text: str) -> None:
        print(text + "\n", flush=True)

    started = time.perf_counter()
    prepared = prepare(workload)
    emit(f"workload: {workload.name}")
    emit(f"dataset: {prepared.dataset.summary()}")
    emit(f"pruned dataset: {prepared.model_dataset.summary()}")

    meta = run_metadata(seed=workload.config.seed)
    meta["workload"] = workload.name
    section: dict[str, dict] = {}
    for experiment in EXPERIMENTS:
        if experiment.record is not None:
            continue  # a system experiment: benchmarks/ writes its own file
        if args.skip_ablations and experiment.id.startswith("ABL"):
            continue
        t0 = time.perf_counter()
        result = experiment.run(workload)
        emit(result.render())
        try:
            experiment.verdict(result)
            verdict = "holds"
        except AssertionError as error:
            verdict = f"fails: {error}"
        emit(f"[{experiment.id} {verdict}; took {time.perf_counter() - t0:.1f}s]")
        record = result.to_record(meta)
        # Timings are not fidelity: the section holds what a seeded
        # workload reproduces exactly.
        record["metrics"] = {
            name: value
            for name, value in result.metrics.items()
            if not is_timing(name)
        }
        record["verdict"] = verdict
        section[experiment.id] = record

    emit(f"total: {time.perf_counter() - started:.1f}s")
    if args.out:
        path = Path(args.out)
        document = json.loads(path.read_text("utf-8")) if path.exists() else {}
        document[workload.name] = section
        write_json(path, document)
    return 0 if all(r["verdict"] == "holds" for r in section.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
