"""Resilient simulation runtime: faults, quarantine, checkpoints, health.

The subsystem that keeps long refine/re-simulate runs (the Figure 6 loop
over C-BGP-scale simulations) alive in the presence of policy-induced
divergence, noisy dumps, and crashes:

* :mod:`repro.resilience.faults` — deterministic fault injection
  (dispute wheels, dump corruption, session flaps, budget exhaustion);
* :mod:`repro.resilience.retry` — one bounded simulation attempt per
  prefix; a prefix that exhausts its message budget is quarantined;
* :mod:`repro.resilience.checkpoint` — atomic checkpoint/resume for the
  refiner, reusing the C-BGP config persistence;
* :mod:`repro.resilience.health` — the structured :class:`RunHealth`
  report and the CLI exit-code vocabulary.
"""

from repro.resilience.faults import (
    FaultConfig,
    FaultReport,
    apply_faults,
    corrupt_dump_lines,
    find_wheel_candidates,
    inject_dispute_wheel,
)
from repro.resilience.retry import (
    CONVERGED,
    DIVERGED,
    PrefixOutcome,
    ResilienceStats,
    simulate_network_bounded,
    simulate_prefix_bounded,
)
from repro.resilience.health import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_UNCONVERGED,
    EXIT_USAGE,
    RunHealth,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    INGEST_CHECKPOINT_FORMAT,
    IngestCheckpoint,
    RefinerCheckpoint,
    ingest_fingerprint,
    load_checkpoint,
    load_ingest_checkpoint,
    save_checkpoint,
    save_ingest_checkpoint,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "INGEST_CHECKPOINT_FORMAT",
    "IngestCheckpoint",
    "ingest_fingerprint",
    "load_ingest_checkpoint",
    "save_ingest_checkpoint",
    "CONVERGED",
    "DIVERGED",
    "EXIT_DATA",
    "EXIT_DIVERGED",
    "EXIT_OK",
    "EXIT_UNCONVERGED",
    "EXIT_USAGE",
    "FaultConfig",
    "FaultReport",
    "PrefixOutcome",
    "RefinerCheckpoint",
    "ResilienceStats",
    "RunHealth",
    "apply_faults",
    "corrupt_dump_lines",
    "find_wheel_candidates",
    "inject_dispute_wheel",
    "load_checkpoint",
    "save_checkpoint",
    "simulate_network_bounded",
    "simulate_prefix_bounded",
]
