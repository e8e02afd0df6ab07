"""The chaos pipeline: an end-to-end run over a fault-injected workload.

Exercises every resilience mechanism at once, the way a production run
would meet them: a synthetic Internet is sabotaged with dispute wheels
and session flaps, simulated one bounded attempt per prefix
(quarantining what diverges), dumped, the dump corrupted, parsed
leniently, and a model refined from whatever survived.  The outcome is a
:class:`~repro.resilience.health.RunHealth` report naming the quarantined
prefixes, the parse skips, and the paths a stalled refinement is stuck
on.  ``repro chaos`` is a thin CLI wrapper around :func:`run_chaos`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

from repro.analysis.analyzer import analyze_network
from repro.core.build import build_initial_model
from repro.core.refine import RefinementConfig, Refiner
from repro.data.dumps import read_table_dump, write_table_dump
from repro.data.observation import collect_dataset, select_observation_points
from repro.data.synthesis import SyntheticConfig, synthesize_internet
from repro.errors import DatasetError, RefinementError, ShutdownRequested
from repro.net.prefix import Prefix
from repro.parallel.protocol import ParallelConfig, WorkerFaults
from repro.resilience.faults import FaultConfig, apply_faults, corrupt_dump_lines
from repro.resilience.health import RunHealth
from repro.resilience.retry import PrefixOutcome, simulate_network_bounded
from repro.topology.prune import prepare_dataset


@dataclass(frozen=True)
class ChaosConfig:
    """A fully-determined chaos run."""

    seed: int = 0
    scale: float = 0.25
    points: int = 12
    refine_iterations: int = 10
    faults: FaultConfig = field(
        default_factory=lambda: FaultConfig(
            dispute_wheels=2,
            corrupt_line_fraction=0.1,
            truncate_line_fraction=0.05,
            session_flaps=2,
        )
    )
    lint_gate: bool = False
    """Statically quarantine dispute-wheel prefixes before simulating.

    With the gate on, the safety analyzer runs over the fault-injected
    network and every statically-unsafe prefix gets a zero-attempt
    ``unsafe`` outcome instead of burning the full message budget in the
    simulate phase; the lint report lands in the health report.
    """
    parallel: ParallelConfig | None = None
    """Run the simulate and refine phases through the supervised worker
    pool.  Combined with ``faults.worker_crash_prefixes`` /
    ``faults.worker_hang_prefixes`` this exercises crash resubmission,
    watchdog kills and poison quarantine end-to-end; a SIGINT/SIGTERM
    mid-phase drains gracefully and the health report says
    ``interrupted`` with exit code 5."""


def run_chaos(config: ChaosConfig = ChaosConfig()) -> RunHealth:
    """Run the fault-injected pipeline end-to-end; never raises on faults.

    Injected failures surface in the returned health report (and its
    ``exit_code``), not as exceptions — that is the point.
    """
    health = RunHealth()

    with health.phase("synthesize"):
        internet = synthesize_internet(
            SyntheticConfig(seed=config.seed).scaled(config.scale)
        )

    with health.phase("inject-faults"):
        report = apply_faults(internet.network, config.faults)

    gated: list[Prefix] = []
    if config.lint_gate:
        with health.phase("lint"):
            lint = analyze_network(internet.network, passes=("safety",))
            health.record_lint(lint)
            gated = sorted(lint.unsafe_prefixes(), key=str)

    # Budget-exhaustion fault: a starved budget quarantines healthy
    # prefixes too, and the health report says so.
    max_messages = config.faults.message_budget
    parallel = config.parallel
    if parallel is not None and (report.worker_crash or report.worker_hang):
        parallel = replace(
            parallel,
            faults=WorkerFaults(
                crash_prefixes=tuple(report.worker_crash),
                hang_prefixes=tuple(report.worker_hang),
            ),
        )
    with health.phase("simulate"):
        targets = None
        if gated:
            skip = set(gated)
            targets = [p for p in internet.network.prefixes() if p not in skip]
        try:
            stats = simulate_network_bounded(
                internet.network, prefixes=targets, max_messages=max_messages,
                parallel=parallel,
            )
        except ShutdownRequested as shutdown:
            health.interrupted = True
            if shutdown.stats is not None:
                health.record_simulation(shutdown.stats)
            health.faults = report.to_dict()
            return health
        for prefix in gated:
            stats.outcomes.append(PrefixOutcome.gated(prefix))
    health.record_simulation(stats)

    with health.phase("dump"):
        points = select_observation_points(internet, config.points, seed=config.seed)
        dataset = collect_dataset(internet.network, points)
        buffer = io.StringIO()
        write_table_dump(dataset, buffer)
        lines = corrupt_dump_lines(
            buffer.getvalue().splitlines(), config.faults, report
        )
    health.faults = report.to_dict()

    with health.phase("parse"):
        try:
            parsed = read_table_dump(lines)
        except DatasetError as error:
            health.record_error(error)
            return health
    health.record_parse(parsed)

    with health.phase("refine"):
        try:
            *_, pruned = prepare_dataset(parsed.dataset)
            model = build_initial_model(pruned.dataset, pruned.graph)
            refiner = Refiner(
                model,
                pruned.dataset,
                RefinementConfig(
                    max_iterations=config.refine_iterations,
                    max_messages=max_messages,
                    # The worker faults already fired in the simulate
                    # phase; refinement gets a clean (but still parallel)
                    # pool for its initial full-network simulation.
                    parallel=config.parallel,
                ),
            )
            result = refiner.run()
        except ShutdownRequested:
            health.interrupted = True
            return health
        except (DatasetError, RefinementError) as error:
            health.record_error(error)
            return health
    health.record_refinement(result, refiner.unmatched_paths())
    return health
