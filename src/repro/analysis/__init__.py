"""Static analysis of AS-routing models: safety, policy and topology lint.

``repro.analysis`` proves or refutes model properties *before* any
simulation runs: dispute-wheel detection over the per-prefix preference
digraph (Griffin-style safety), route-map lint (shadowed and
contradictory clauses, filters that block every observed path, stale
refinement clauses), topology lint (isolated quasi-routers, merge
candidates, ASes invisible to every observation point, provider-customer
hierarchy cycles) and Gao-Rexford valley-free export compliance against
an ingested relationship map.  The ``repro lint`` CLI subcommand and the
refinement lint gate (:class:`~repro.core.refine.RefinementConfig`
``lint_gate``) are built on this package.

:mod:`repro.analysis.certify` makes re-analysis *incremental*: every
per-prefix result becomes a fingerprinted :class:`SafetyCertificate` in a
dependency-tracked :class:`CertificateStore`, so a policy change
re-certifies only the prefixes whose footprint it touches.
:mod:`repro.analysis.diffing` statically diffs two reports (``repro lint
--diff BASE``) into new / resolved / unchanged findings.

The package re-exports nothing: each caller imports the submodule it
runs, so certifying a compile loads neither the whole-model analyzer,
the Gao-Rexford and topology passes nor the report differ.
"""
