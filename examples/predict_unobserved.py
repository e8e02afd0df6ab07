#!/usr/bin/env python3
"""End-to-end prediction study: train on half the feeds, grade on the rest.

Reproduces the paper's central experiment (Sections 4-5) on a
medium-sized synthetic Internet and prints the full metric suite for both
split strategies:

* split by observation point (predicting routes for *unobserved vantage
  points*), and
* split by origin AS (predicting routes for *unobserved prefixes*).
"""

import argparse
import time

from repro.core import (
    Refiner,
    build_initial_model,
    evaluate_model,
    split_by_origin,
)
from repro.core.metrics import MatchKind
from repro.experiments import DEFAULT, SMALL, prepare


def show(label: str, report) -> None:
    print(f"  {label}:")
    print(f"    cases                      {report.total}")
    print(f"    RIB-Out match              {report.rib_out_rate:.1%}")
    print(
        f"    potential RIB-Out match    {report.rate(MatchKind.POTENTIAL_RIB_OUT):.1%}"
    )
    print(f"    matched down to tie-break  {report.tie_break_or_better_rate:.1%}")
    print(f"    RIB-In upper bound         {report.rib_in_or_better_rate:.1%}")
    origins = report.origin_count or 1
    coverage = [report.prefixes_with_coverage(t) / origins for t in (0.5, 0.9, 1.0)]
    print("    origins >=50/>=90/100%     " + " / ".join(f"{c:.0%}" for c in coverage))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="use the quick workload")
    args = parser.parse_args()
    workload = SMALL if args.small else DEFAULT

    print(f"preparing workload {workload.name!r} ...")
    prepared = prepare(workload)
    print(f"  dataset: {prepared.model_dataset.summary()}")

    print("\n== split by observation point ==")
    model = build_initial_model(prepared.model_dataset, prepared.model_graph)
    started = time.perf_counter()
    refinement = Refiner(model, prepared.training).run()
    print(
        f"  refinement: {refinement.iteration_count} iterations, "
        f"converged={refinement.converged}, {time.perf_counter() - started:.1f}s"
    )
    print(f"  model: {model}")
    show("training", evaluate_model(model, prepared.training))
    show("validation (unobserved vantage points)", evaluate_model(model, prepared.validation))

    print("\n== split by origin AS ==")
    training, validation = split_by_origin(prepared.model_dataset, 0.5, seed=4)
    model2 = build_initial_model(prepared.model_dataset, prepared.model_graph)
    refinement2 = Refiner(model2, training).run()
    print(
        f"  refinement: {refinement2.iteration_count} iterations, "
        f"converged={refinement2.converged}"
    )
    show("training origins", evaluate_model(model2, training))
    show("validation origins (unobserved prefixes)", evaluate_model(model2, validation))


if __name__ == "__main__":
    main()
