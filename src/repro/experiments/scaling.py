"""Scaling study (Section 4.1's C-BGP cost note).

The paper reports that C-BGP simulates one prefix over ~16,500 routers in
14,500 ASes in 2-45 minutes with 0.2-2 GB of memory.  This experiment
measures our engine's cost as the synthetic Internet grows, reporting
per-prefix message counts and wall-clock time so the (near-linear in
sessions) scaling trend is visible.
"""

from __future__ import annotations

import time

from repro.bgp.engine import simulate
from repro.data.synthesis import synthesize_internet
from repro.experiments.report import ExperimentResult
from repro.experiments.workloads import Workload, DEFAULT


def run(
    base: Workload = DEFAULT,
    factors: tuple[float, ...] = (0.25, 0.5, 1.0),
) -> ExperimentResult:
    """Simulate ground truth at several scales and record engine cost."""
    result = ExperimentResult(
        experiment_id="SCAL",
        title="Engine cost vs. topology scale (ground-truth simulation)",
        headers=[
            "scale",
            "ASes",
            "routers",
            "sessions",
            "prefixes",
            "messages",
            "msgs/prefix",
            "seconds",
        ],
    )
    for factor in factors:
        workload = base.scaled(factor)
        internet = synthesize_internet(workload.config)
        stats_before = internet.network.stats()
        started = time.perf_counter()
        stats = simulate(internet.network)
        elapsed = time.perf_counter() - started
        result.add_row(
            f"x{factor}",
            stats_before["ases"],
            stats_before["routers"],
            stats_before["sessions"],
            stats_before["prefixes"],
            stats.messages,
            round(stats.messages / max(stats.prefixes, 1)),
            f"{elapsed:.2f}s",
        )
        result.metrics[f"seconds_x{factor}"] = elapsed
        result.metrics[f"messages_x{factor}"] = stats.messages
    result.note(
        "paper: C-BGP needs 2-45 min / 0.2-2 GB per prefix at 16.5k routers; "
        "message count per prefix grows roughly linearly with session count"
    )
    return result


def run_lint(
    base: Workload = DEFAULT,
    factors: tuple[float, ...] = (0.25, 0.5, 1.0),
) -> ExperimentResult:
    """Measure static-analyzer wall-time as the model grows.

    The point of the analyzer is to be cheap relative to simulation: one
    pass over sessions and clauses (plus Tarjan over the preference
    digraph) versus thousands of simulated messages per prefix.  This
    experiment runs every pass of :func:`repro.analysis.analyze_network`
    over the ground-truth network at several scales so the trend — and
    the gap to :func:`run`'s simulation numbers — is visible.
    """
    from repro.analysis import analyze_network

    result = ExperimentResult(
        experiment_id="LINT",
        title="Static analyzer wall-time vs. model size",
        headers=[
            "scale",
            "ASes",
            "routers",
            "sessions",
            "prefixes",
            "findings",
            "seconds",
            "ms/router",
        ],
    )
    for factor in factors:
        workload = base.scaled(factor)
        internet = synthesize_internet(workload.config)
        size = internet.network.stats()
        started = time.perf_counter()
        report = analyze_network(
            internet.network, observer_asns=set(internet.network.ases)
        )
        elapsed = time.perf_counter() - started
        result.add_row(
            f"x{factor}",
            size["ases"],
            size["routers"],
            size["sessions"],
            size["prefixes"],
            len(report.findings),
            f"{elapsed:.3f}s",
            f"{1000.0 * elapsed / max(size['routers'], 1):.2f}",
        )
        result.metrics[f"seconds_x{factor}"] = elapsed
        result.metrics[f"findings_x{factor}"] = len(report.findings)
        result.metrics[f"routers_x{factor}"] = size["routers"]
        incremental = _measure_incremental(internet.network)
        for name, value in incremental.items():
            result.metrics[f"{name}_x{factor}"] = value
    # Headline numbers from the largest scale: a single policy install
    # must re-certify only the touched prefix, not the whole model.
    largest = factors[-1]
    for name in ("full_ms", "incremental_ms", "invalidated_fraction",
                 "incremental_equal"):
        result.metrics[name] = result.metrics[f"{name}_x{largest}"]
    result.note(
        "all three passes (safety, policy, topology) over the ground-truth "
        "network; zero safety findings (the substrate is convergence-safe), "
        "but the policy pass correctly reports the 'weird' local-pref "
        "clauses the synthesis layer leaves shadowed behind the catch-all "
        "relationship clause"
    )
    result.note(
        "full_ms/incremental_ms: certificate-store re-certification after "
        "one policy install, from scratch vs. dependency-tracked "
        "(incremental_equal=1 asserts the two reports are bit-identical)"
    )
    return result


def _measure_incremental(network) -> dict[str, float]:
    """Cost of re-certifying after one policy install, full vs. tracked.

    Warms a :class:`~repro.analysis.certify.CertificateStore`, installs
    one refine-style local-pref clause on the lowest-numbered eBGP
    session, then times (a) the store's incremental re-certification and
    (b) a from-scratch certification of the mutated network — and checks
    the two produce bit-identical stores.
    """
    from repro.analysis.certify import CertificateStore
    from repro.bgp.policy import Action, Clause, Match

    store = CertificateStore()
    store.certify(network)

    # Install on a session that already carries an import map: creating
    # a map where none existed changes the session's generic-clause
    # signature and (correctly) invalidates the global certificate,
    # which is not the steady-state refinement case being measured.
    session = min(
        (s for s in network.sessions.values() if s.import_map is not None),
        key=lambda s: s.session_id,
    )
    prefix = sorted(network.prefixes())[0]
    session.import_map.append(
        Clause(Match(prefix=prefix), Action.PERMIT,
               set_local_pref=123, tag="bench-incremental")
    )
    store.invalidate_policy(session.dst.router_id, prefix)

    started = time.perf_counter()
    incremental_report = store.certify(network)
    incremental_ms = 1000.0 * (time.perf_counter() - started)

    fresh = CertificateStore()
    started = time.perf_counter()
    full_report = fresh.certify(network)
    full_ms = 1000.0 * (time.perf_counter() - started)

    equal = (
        store.store_fingerprint() == fresh.store_fingerprint()
        and incremental_report.to_json() == full_report.to_json()
    )
    stats = store.last_stats
    session.import_map.remove_if(
        lambda clause: clause.tag == "bench-incremental"
    )
    return {
        "full_ms": full_ms,
        "incremental_ms": incremental_ms,
        "invalidated_fraction": (
            stats.invalidated_fraction if stats is not None else 1.0
        ),
        "incremental_equal": int(equal),
    }
