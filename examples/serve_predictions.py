#!/usr/bin/env python3
"""The serving flow in one process: compile, round-trip, query, HTTP.

Walks the full `repro.serve` pipeline on a small synthetic Internet:

1. build + refine a model (the expensive, one-time part),
2. compile it into a checksummed prediction artifact,
3. reload the artifact from disk and answer paths / diversity / lookup
   queries through the cached engine (no simulator involved),
4. start the HTTP API on an ephemeral port, hit it with urllib, and
   drain it gracefully — exactly what `repro serve` + curl do.
"""

import argparse
import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.core import Refiner, build_initial_model
from repro.experiments import SMALL, prepare
from repro.serve import (
    PredictionArtifact,
    PredictionServer,
    QueryEngine,
    compile_artifact,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep", metavar="PATH",
        help="also write the artifact here (default: temp dir)",
    )
    args = parser.parse_args()

    print(f"preparing workload {SMALL.name!r} ...")
    prepared = prepare(SMALL)
    model = build_initial_model(prepared.model_dataset, prepared.model_graph)
    refinement = Refiner(model, prepared.training).run()
    print(
        f"  refined: {refinement.iteration_count} iterations, "
        f"converged={refinement.converged}"
    )

    print("\n== compile ==")
    started = time.perf_counter()
    artifact, report = compile_artifact(model)
    print(
        f"  {report.prefixes} prefixes simulated once, {report.pairs} "
        f"(origin, observer) pairs frozen in "
        f"{time.perf_counter() - started:.1f}s"
    )

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(args.keep) if args.keep else Path(scratch) / "pred.artifact"
        size = artifact.save(path)
        print(f"  wrote {size} bytes to {path}")

        print("\n== query (from the reloaded artifact) ==")
        engine = QueryEngine(PredictionArtifact.load(path))
        origin, observer = max(
            ((o, obs) for (o, obs) in artifact.paths),
            key=lambda pair: len(artifact.paths[pair]),
        )
        answer = engine.paths(origin, observer)
        print(f"  paths AS{observer} -> AS{origin}:")
        for as_path in answer.paths:
            print(f"    {' '.join(map(str, as_path))}")
        diversity = engine.diversity(origin, observer)
        print(
            f"  diversity: {diversity.path_count} path(s), "
            f"next hops {list(diversity.next_hops)}, "
            f"multipath={diversity.multipath}"
        )
        target = str(artifact.origins[origin]).split("/")[0]
        lookup = engine.lookup(target, observer)
        print(
            f"  lookup {target}: matched {lookup.matched_prefix} "
            f"(origin AS{lookup.origin})"
        )
        print(f"  cache: {engine.cache_stats()}")

        print("\n== serve over HTTP ==")
        server = PredictionServer(engine, host="127.0.0.1", port=0)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        base = f"http://{server.address}"
        print(f"  listening on {base}")
        for route in (
            f"/paths?origin={origin}&observer={observer}",
            f"/lookup?target={target}&observer={observer}",
            "/healthz",
        ):
            with urllib.request.urlopen(base + route, timeout=10) as response:
                body = json.load(response)
            print(f"  GET {route} -> {response.status}")
            print(f"    {json.dumps(body, sort_keys=True)[:120]} ...")
        server.drain()
        loop.join(timeout=10)
        print("  drained cleanly")


if __name__ == "__main__":
    main()
