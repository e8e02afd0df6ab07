#!/usr/bin/env python3
"""What-if analysis: de-peering two core ASes (the paper's motivating use).

"What if a certain peering link was removed?" — the question Section 1
says an accurate AS-routing model should answer.  This script refines a
model from observed feeds, picks the busiest inferred tier-1 peering,
removes it, and reports which (observer, origin) pairs change paths and
which lose reachability — the answer ``repro whatif`` prints, from the
same depeer scenario ``repro campaign depeer`` ranks.
"""

import argparse
from collections import Counter

from repro.campaign import whatif
from repro.core import Refiner, build_initial_model
from repro.experiments import SMALL, prepare


def busiest_peering(prepared, model) -> tuple[int, int]:
    """The level-1 adjacency crossed by the most observed paths."""
    level1 = prepared.level1
    adjacencies = model.network.as_adjacencies()
    usage: Counter = Counter()
    for route in prepared.model_dataset:
        for a, b in route.path.edges():
            edge = (min(a, b), max(a, b))
            if a in level1 and b in level1 and edge in adjacencies:
                usage[edge] += 1
    if not usage:
        raise SystemExit("no observed level-1 peering to remove")
    return usage.most_common(1)[0][0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-a", type=int, help="first AS of the link to remove")
    parser.add_argument("--as-b", type=int, help="second AS of the link to remove")
    args = parser.parse_args()

    prepared = prepare(SMALL)
    model = build_initial_model(prepared.model_dataset, prepared.model_graph)
    refinement = Refiner(model, prepared.training).run()
    print(
        f"refined model ({refinement.iteration_count} iterations, "
        f"converged={refinement.converged}): {model}"
    )

    if args.as_a and args.as_b:
        link = (args.as_a, args.as_b)
    else:
        link = busiest_peering(prepared, model)
    print(f"\nremoving adjacency AS{link[0]} -- AS{link[1]} ...")

    answer = whatif(model, *link)  # the one-scenario `repro campaign depeer`
    print(answer.render(limit=8))
    if len(answer.changes) > 8:
        print(f"  ... and {len(answer.changes) - 8} more changed pairs")


if __name__ == "__main__":
    main()
