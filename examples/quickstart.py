#!/usr/bin/env python3
"""Quickstart: build, refine and query an AS-routing model in ~30 seconds.

The script walks the paper's whole pipeline on a tiny synthetic Internet:

1. generate a ground-truth Internet and simulate BGP on it,
2. collect RIB dumps at a handful of observation points,
3. clean the dataset, split it into training and validation feeds,
4. build the initial one-quasi-router-per-AS model and refine it,
5. predict paths the model never saw and grade the predictions.
"""

from repro.bgp import simulate
from repro.core import (
    Refiner,
    build_initial_model,
    evaluate_model,
    predict_paths,
    split_by_observation_points,
)
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet


def main() -> None:
    print("== 1. synthesize ground-truth Internet ==")
    config = SyntheticConfig(seed=3, n_level1=4, n_level2=6, n_other=10, n_stub=20)
    internet = synthesize_internet(config)
    print(f"  {internet.network}")

    print("== 2. simulate ground truth and collect RIB dumps ==")
    simulate(internet.network)
    points = select_observation_points(internet, 14, seed=9, multi_point_fraction=0.5)
    dataset = collect_dataset(internet.network, points).cleaned()
    print(f"  {dataset}")

    print("== 3. split feeds ==")
    training, validation = split_by_observation_points(dataset, 0.5, seed=1)
    print(f"  training: {len(training)} routes, validation: {len(validation)} routes")

    print("== 4. build + refine the quasi-router model ==")
    model = build_initial_model(dataset)
    refinement = Refiner(model, training).run()
    print(
        f"  converged={refinement.converged} after {refinement.iteration_count} "
        f"iterations; model: {model}"
    )

    print("== 5. predict and grade ==")
    report = evaluate_model(model, validation)
    print(f"  validation RIB-Out match rate:      {report.rib_out_rate:.1%}")
    print(f"  matched down to the tie-break:      {report.tie_break_or_better_rate:.1%}")
    print(f"  RIB-In upper bound:                 {report.rib_in_or_better_rate:.1%}")

    origin = min(internet.prefixes_by_as)
    observer = max(asn for asn in internet.levels if asn in model.network.ases)
    paths = predict_paths(model, origin, observer)
    print(f"  predicted paths AS{observer} -> AS{origin}:")
    for path in sorted(paths):
        print("   ", " -> ".join(map(str, path)))


if __name__ == "__main__":
    main()
