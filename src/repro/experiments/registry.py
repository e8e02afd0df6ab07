"""The one table of experiments: what runs, what it must show, where it is recorded.

Everything that enumerates the paper's tables and figures iterates
:data:`EXPERIMENTS` — ``scripts/run_experiments.py`` (the fidelity
command behind ``results/FIDELITY_baseline.json``), the parametrised
``benchmarks/bench_experiments.py``, and the verdict table of
EXPERIMENTS.md (:func:`verdict_table`).  An entry's ``verdict`` is the
paper-level bound the result must satisfy on the ``small`` and
``default`` workloads; it raises :class:`AssertionError` naming the claim
that failed.  Entries with a ``record`` file are the system experiments
(they write ``results/<record>``); the others are the paper set, recorded
together in the fidelity baseline.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.experiments import (
    ablations,
    deflection,
    fig2,
    fig3,
    fig8,
    obs,
    scaling,
    serve_chaos,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.report import ExperimentResult, format_metric
from repro.experiments.workloads import PreparedWorkload, Workload, prepare


class Experiment(NamedTuple):
    """One row of the table."""

    id: str
    run: Callable[[Workload], ExperimentResult]
    verdict: Callable[[ExperimentResult], None]
    record: str | None = None


def _require(holds: bool, claim: str) -> None:
    if not holds:
        raise AssertionError(claim)


def _on_prepared(
    runner: Callable[[PreparedWorkload], ExperimentResult],
) -> Callable[[Workload], ExperimentResult]:
    """Run ``runner`` on the workload's shared (cached) pipeline output."""
    return lambda workload: runner(prepare(workload))


def _fig2(result: ExperimentResult) -> None:
    _require(result.metrics["fraction_multipath"] > 0.0, "some pair is multipath")


def _tab1(result: ExperimentResult) -> None:
    _require(result.metrics["fraction_ases_ge2"] > 0.0, "some AS sees >= 2 paths")


def _fig3(result: ExperimentResult) -> None:
    _require(result.metrics["distinct_paths"] >= 2, "one AS relays >= 2 routes")


def _tab2(result: ExperimentResult) -> None:
    rows = {row[0]: row for row in result.rows}
    _require(
        rows["  AS-path not available"][1] >= rows["  shorter AS-path exists"][1],
        "'not available' is the dominant structural disagreement",
    )


def _tab3(result: ExperimentResult) -> None:
    m = result.metrics
    _require(m["converged"] == 1, "refinement converged")
    _require(m["final_training_rib_out"] == 1.0, "training matched exactly")


def _tab4(result: ExperimentResult) -> None:
    rate = result.metrics["validation_tie_break_or_better"]
    _require(rate > 0.8, f"validation tie-break+ {rate:.1%} exceeds the paper's 80%")


def _tab5(result: ExperimentResult) -> None:
    m = result.metrics
    _require(m["converged"] == 1, "refinement converged")
    _require(m["validation_rib_out"] > 0.3, "validation RIB-Out above 30%")
    harder = m["validation_tie_break_or_better"]
    easier = m["observation_split_tie_break_or_better"]
    _require(
        harder < easier,
        f"tie-break+ {harder:.1%} is below the observation split's {easier:.1%}",
    )


def _fig8(result: ExperimentResult) -> None:
    m = result.metrics
    _require(m["single_router_fraction"] > 0.3, "most ASes keep one quasi-router")
    _require(m["max_quasi_routers"] >= 2, "some AS needs several quasi-routers")


def _ext1(result: ExperimentResult) -> None:
    _require(result.metrics["loop_rate"] == 0.0, "no forwarding loops")
    _require(result.metrics["agreement"] > 0.8, "data plane follows control plane")


def _abl1(result: ExperimentResult) -> None:
    _require(len(result.rows) == 4, "the sweep covers the four training fractions")
    fewest, most = result.rows[0][3], result.rows[-1][3]
    _require(
        most > fewest,
        f"validation RIB-Out with the most training points ({most:.1%}) "
        f"exceeds that with the fewest ({fewest:.1%})",
    )


def _abl2(result: ExperimentResult) -> None:
    rates = {row[0]: row[3] for row in result.rows}
    full = rates.pop("full (paper)")
    _require(full >= max(rates.values()), "full mechanism set >= every knock-out")


def _scal(result: ExperimentResult) -> None:
    _require(len(result.rows) == 3, "the sweep covers the three scales")


def _lint(result: ExperimentResult) -> None:
    m = result.metrics
    _require(len(result.rows) == 3, "the sweep covers the three scales")
    # static analysis must stay orders of magnitude cheaper than simulating
    _require(
        all(m[f"seconds_x{f}"] < 60 for f in (0.25, 0.5, 1.0)), "a pass takes < 60 s"
    )
    # incremental re-certification after one policy install: bit-identical
    # to a fresh pass, touching a sliver of the certificates, >= 10x faster
    _require(m["incremental_equal"] == 1, "incremental equals a full pass")
    _require(m["invalidated_fraction"] < 0.5, "under half the certificates redone")
    _require(m["full_ms"] >= 10 * m["incremental_ms"], "incremental is >= 10x faster")


def _obs(result: ExperimentResult) -> None:
    m = result.metrics
    _require(m["seconds_off"] > 0, "the untraced run was timed")
    _require(m["messages"] > 0, "the engine did simulate")
    # one event per decision: nothing recorded means the hooks disappeared
    _require(m["trace_bytes"] > 0, "the JSONL trace recorded events")


def _serve_resilience(result: ExperimentResult) -> None:
    m = result.metrics
    _require(m["reload_dropped_requests"] == 0, "a hot reload drops nothing")
    _require(m["corrupt_reload_dropped_requests"] == 0, "nor does a corrupted one")
    _require(m["accounting_scrapes"] > 0, "the serving counters were scraped")
    _require(
        m["accounting_mismatches"] == 0,
        "no query is lost from the serving counters across a reload",
    )
    _require(m["degraded_observed"] == 1, "a corrupted reload is surfaced")
    _require(
        m["kill_recovery_seconds"] <= serve_chaos.KILL_RECOVERY_BOUND,
        "a killed worker is replaced in bound",
    )
    _require(m["kill_window_successes"] > 0, "survivors answer across a kill")
    _require(m["overload_shed"] > 0, "overload sheds requests")
    _require(
        m["overload_admitted_p99_seconds"] <= serve_chaos.OVERLOAD_DEADLINE,
        "admitted requests stay inside the deadline under overload",
    )
    _require(m["drain_exit_code"] == 0, "SIGTERM drains to exit 0")


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("FIG2", _on_prepared(fig2.run), _fig2),
    Experiment("TAB1", _on_prepared(table1.run), _tab1),
    Experiment("FIG3", _on_prepared(fig3.run), _fig3),
    Experiment("TAB2", _on_prepared(table2.run), _tab2),
    Experiment("TAB3", _on_prepared(table3.run), _tab3),
    Experiment("TAB4", _on_prepared(table4.run), _tab4),
    Experiment("TAB5", _on_prepared(table5.run), _tab5),
    Experiment("FIG8", _on_prepared(fig8.run), _fig8),
    Experiment("EXT1", _on_prepared(deflection.run), _ext1),
    Experiment("ABL1", _on_prepared(ablations.observation_points), _abl1),
    Experiment("ABL2", _on_prepared(ablations.policy_mechanisms), _abl2),
    Experiment("SCAL", scaling.run, _scal),
    Experiment("LINT", scaling.run_lint, _lint, "BENCH_lint.json"),
    Experiment("OBS", obs.run_trace_overhead, _obs, "BENCH_obs.json"),
    Experiment(
        "SERVE-RESILIENCE",
        lambda workload: serve_chaos.run(),
        _serve_resilience,
        "BENCH_serve_resilience.json",
    ),
)

TABLE_BEGIN = (
    "<!-- verdict-table:begin — generated from results/FIDELITY_baseline.json "
    "by scripts/emit_verdict_table.py; edit neither -->"
)
TABLE_END = "<!-- verdict-table:end -->"


def verdict_table(section: dict[str, dict]) -> str:
    """The Markdown verdict table for one workload's section of the
    fidelity baseline: each experiment's ``paper:`` note, every metric it
    recorded, and whether its verdict holds."""
    lines = ["| Id | Paper | Measured | Verdict |", "|---|---|---|---|"]
    for experiment in EXPERIMENTS:
        record = section.get(experiment.id)
        if record is None:
            continue
        paper = next(
            note[len("paper:"):].strip()
            for note in record["notes"]
            if note.startswith("paper:")
        )
        measured = ", ".join(
            f"`{name}` {format_metric(name, value)}"
            for name, value in sorted(record["metrics"].items())
        )
        lines.append(
            f"| {experiment.id} | {paper} | {measured} | {record['verdict']} |"
        )
    return "\n".join(lines)
