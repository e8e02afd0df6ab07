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
"""

from repro.analysis.analyzer import (
    ALL_PASSES,
    analyze_model,
    analyze_network,
)
from repro.analysis.certify import (
    GLOBAL_KEY,
    CertificateStore,
    CertifyStats,
    SafetyCertificate,
    certify_network,
)
from repro.analysis.diffing import ReportDiff, diff_reports
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.gaorexford import analyze_gao_rexford
from repro.analysis.safety import (
    PreferenceEdge,
    analyze_safety,
    collect_preference_edges,
    unsafe_prefixes,
)
from repro.analysis.topology_lint import provider_customer_cycles

__all__ = [
    "ALL_PASSES",
    "GLOBAL_KEY",
    "AnalysisReport",
    "CertificateStore",
    "CertifyStats",
    "Finding",
    "PreferenceEdge",
    "ReportDiff",
    "SafetyCertificate",
    "Severity",
    "analyze_gao_rexford",
    "analyze_model",
    "analyze_network",
    "analyze_safety",
    "certify_network",
    "collect_preference_edges",
    "diff_reports",
    "provider_customer_cycles",
    "unsafe_prefixes",
]
