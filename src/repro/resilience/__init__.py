"""Resilient simulation runtime: faults, checkpoints, health.

The subsystem that keeps long refine/re-simulate runs (the Figure 6 loop
over C-BGP-scale simulations) alive in the presence of policy-induced
divergence, noisy dumps, and crashes:

* :mod:`repro.resilience.faults` — deterministic fault injection
  (dispute wheels, dump corruption, session flaps, budget exhaustion);
* :mod:`repro.resilience.checkpoint` — atomic checkpoint/resume for the
  refiner, reusing the C-BGP config persistence;
* :mod:`repro.resilience.health` — the structured :class:`RunHealth`
  report and the CLI exit-code vocabulary.

Divergence quarantine itself is the engine's: a prefix that exhausts its
message budget under :func:`repro.bgp.engine.simulate`'s
``on_divergence="quarantine"`` is cleared and recorded in the returned
:class:`~repro.bgp.engine.EngineStats`.  The package re-exports nothing:
each caller imports the submodule it runs, so a refinement loads neither
the fault injector nor the checkpoint format (and with it
:mod:`repro.cbgp`) until it needs them.
"""
