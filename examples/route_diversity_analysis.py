#!/usr/bin/env python3
"""Route-diversity analysis of a BGP dataset (Section 3 of the paper).

Generates a synthetic Internet, collects RIB dumps, writes/reads them in
the bgpdump text format (the same code path a real RouteViews dump would
take), and reproduces the Section 3 measurements: the Figure 2 histogram,
the Table 1 quantiles, the AS classification counts, and a Figure 3-style
worst-case diversity example.

Point ``--dump`` at a real ``bgpdump -m`` file to analyse real data
instead.
"""

import argparse
import io

from repro.bgp import simulate
from repro.data import (
    SyntheticConfig,
    collect_dataset,
    read_table_dump,
    select_observation_points,
    synthesize_internet,
    write_table_dump,
)
from repro.topology import prepare_dataset, route_diversity_report
from repro.topology.diversity import TABLE1_PERCENTILES


def build_synthetic_dump() -> tuple[str, list[int]]:
    """Simulate a synthetic Internet and return its dump text + tier-1 seeds."""
    config = SyntheticConfig(seed=11, n_level1=5, n_level2=10, n_other=22, n_stub=55)
    internet = synthesize_internet(config)
    simulate(internet.network)
    points = select_observation_points(internet, 30, seed=2, multi_point_fraction=0.5)
    dataset = collect_dataset(internet.network, points)
    buffer = io.StringIO()
    write_table_dump(dataset, buffer)
    return buffer.getvalue(), internet.level1_asns[:3]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dump", help="bgpdump -m file to analyse (default: synthetic)")
    parser.add_argument(
        "--seeds", type=int, nargs="*", help="known tier-1 seed ASNs for the dump"
    )
    args = parser.parse_args()

    if args.dump:
        parsed = read_table_dump(args.dump)
        seeds = args.seeds or []
    else:
        text, seeds = build_synthetic_dump()
        parsed = read_table_dump(io.StringIO(text))
    print(
        f"parsed {parsed.lines} dump lines "
        f"({parsed.skipped_as_set} AS_SET, {parsed.skipped_malformed} malformed skipped)"
    )
    # Without --seeds the highest-degree AS seeds the level-1 clique.
    dataset, _, level1, classification, pruned = prepare_dataset(
        parsed.dataset, seeds
    )
    print("dataset:", dataset.summary())
    print(f"inferred level-1 clique: {sorted(level1)}")
    print("classification:", classification.summary())
    print(
        f"pruned {len(pruned.pruned_asns)} single-homed stubs "
        f"({pruned.transferred_routes} routes transferred); graph now "
        f"{pruned.graph.num_ases()} nodes / {pruned.graph.num_edges()} edges"
    )

    report = route_diversity_report(dataset)
    print("\nFigure 2 — distinct AS-paths per (origin, observer) pair:")
    for paths in sorted(report.pair_histogram):
        print(f"  {paths:>3} paths: {report.pair_histogram[paths]} pairs")
    print(f"  multipath fraction: {report.fraction_pairs_multipath:.1%}")

    print("\nTable 1 — per-AS max route diversity quantiles:")
    for point, value in report.table1().items():
        print(f"  p{point:>5.1f}: {value}")
    if TABLE1_PERCENTILES:
        diverse = max(report.max_paths_per_as.items(), key=lambda kv: kv[1])
        print(
            f"\nFigure 3-style example: AS {diverse[0]} relays up to "
            f"{diverse[1]} distinct routes for a single destination"
        )


if __name__ == "__main__":
    main()
