"""EXT1 (extension): control-plane vs data-plane AS paths in the ground truth.

The paper's premise is that intra-AS structure changes inter-domain
routes.  This extension experiment quantifies a related phenomenon our
substrate reproduces: *deflection* — the packet's actual AS-level path
(hop-by-hop, each traversed router consulting its own best route)
deviating from the AS-path the source router selected.  With consistent
full-mesh iBGP + next-hop-self the egress may still differ from the
source's expectation once the packet crosses into the next AS at a
different ingress router.
"""

from __future__ import annotations

import random

from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import PreparedWorkload
from repro.forwarding.trace import ForwardingStatus, traceroute


def run(
    prepared: PreparedWorkload,
    samples: int = 2000,
    seed: int = 13,
) -> ExperimentResult:
    """Sample (router, prefix) pairs and compare control vs data plane."""
    network = prepared.internet.network
    rng = random.Random(seed)
    routers = sorted(network.routers.values(), key=lambda r: r.router_id)
    prefixes = network.prefixes()

    agree = deflected = unreachable = loops = 0
    examined = 0
    for _ in range(samples):
        router = rng.choice(routers)
        prefix = rng.choice(prefixes)
        best = router.best(prefix)
        if best is None:
            continue
        examined += 1
        expected: list[int] = [router.asn]
        for asn in best.as_path:
            if expected[-1] != asn:
                expected.append(asn)
        trace = traceroute(network, router, prefix)
        if trace.status is ForwardingStatus.LOOP:
            loops += 1
        elif not trace.delivered:
            unreachable += 1
        elif trace.as_path(network) == tuple(expected):
            agree += 1
        else:
            deflected += 1

    result = ExperimentResult(
        experiment_id="EXT1",
        title="Data-plane vs control-plane AS paths (ground truth)",
        headers=["outcome", "count", "fraction"],
    )
    total = max(examined, 1)
    result.add_row("AS paths agree", agree, agree / total)
    result.add_row("deflected", deflected, deflected / total)
    result.add_row("undeliverable", unreachable, unreachable / total)
    result.add_row("forwarding loop", loops, loops / total)
    result.metrics["examined"] = examined
    result.metrics["agreement"] = agree / total
    result.metrics["deflection_rate"] = deflected / total
    result.metrics["loop_rate"] = loops / total
    result.note(
        "paper: (extension, not in the paper) the data plane follows the "
        "control plane — consistent iBGP keeps deflections rare and loops "
        "absent; the deflection rate bounds how much of the remaining "
        "prediction error is a data-plane (not model) artifact"
    )
    return result
