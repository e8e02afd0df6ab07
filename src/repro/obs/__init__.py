"""Observability: structured tracing, metrics, logging, run metadata.

The refinement loop (Section 4.6) is otherwise a black box at runtime:
nothing records *which* decision-process step drove a divergence or which
refinement iteration installed the responsible policy clause.  This
package makes simulated BGP outcomes auditable:

* :mod:`repro.obs.trace` — a JSONL span/event emitter with nested phase
  spans and typed events for decision outcomes, policy installs/deletes,
  quasi-router duplications, divergence and lint quarantines, behind a
  near-zero-cost no-op default (:class:`~repro.obs.trace.NullTracer`).
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms (p50/p95/p99) replacing ad-hoc counting, snapshotted into
  :class:`~repro.resilience.health.RunHealth` and ``repro stats``.
* :mod:`repro.obs.explain` — per-prefix decision provenance: at each AS
  the candidate routes, the decision step that selected the winner, and
  the refinement iteration + clause tag that installed each policy
  consulted (``repro explain``).
* :mod:`repro.obs.logs` — stdlib ``logging`` configuration for the CLI
  (``--log-level`` / ``--log-json``).
* :mod:`repro.obs.meta` — run metadata (git sha, python version, CLI
  args, seed) stamped into health reports and benchmark results.
* :mod:`repro.obs.profile` — phase-attribution profiling (exclusive
  wall/CPU time per named engine phase and command stage) and the
  versioned ``PROFILE.json`` document ``repro --profile PATH`` writes.
* :mod:`repro.obs.sampling` — a stdlib statistical stack sampler
  emitting collapsed-stack ``.folded`` files for flamegraphs (beside
  ``PROFILE.json`` under ``repro --profile``).

The package re-exports nothing: each caller imports the submodule it
runs, so recording a metric loads neither the logging setup, the run
metadata (and with it ``platform``) nor the sampler.
"""
