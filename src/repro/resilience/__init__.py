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

The package re-exports nothing: each caller imports the submodule it
runs, so a bounded simulation loads neither the fault injector, the
health report nor the checkpoint format (and with it :mod:`repro.cbgp`).
"""
