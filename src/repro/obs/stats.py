"""Render the metrics section of a health report (``repro stats``).

A :class:`~repro.resilience.health.RunHealth` JSON report carries a
``metrics`` snapshot (see :class:`~repro.obs.metrics.MetricsRegistry`)
plus ``meta`` and per-phase timings.  ``repro stats`` extracts and
renders that slice so operators can read counters and latency
percentiles without spelunking the full report.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import DatasetError
from repro.runstate import read_json_object

_HISTO_COLUMNS = ("count", "sum", "min", "max", "p50", "p95", "p99")


def load_health_report(path: str | Path) -> dict:
    """Read a RunHealth JSON report, raising ``DatasetError`` when unusable."""
    return read_json_object(path, "health report", DatasetError)


def health_stats(report: dict) -> dict:
    """The stats slice of a health report (``repro stats --json``).

    A campaign report is read too: its metrics snapshot sits under
    ``meta``, the one key of that report that may vary between runs.
    """
    meta = report.get("meta")
    return {
        "meta": meta,
        "phases_seconds": report.get("phases_seconds") or {},
        "metrics": report.get("metrics")
        or (meta or {}).get("metrics")
        or {"counters": {}, "gauges": {}, "histograms": {}},
        "simulation": _simulation_slice(report.get("simulation")),
        "interrupted": bool(report.get("interrupted")),
        "exit_code": report.get("exit_code"),
    }


_OUTCOME_KINDS = ("transient", "diverged", "unsafe", "poison", "timeout")


def _simulation_slice(simulation: dict | None) -> dict | None:
    """Outcome counts plus worker-supervision counters, if simulated."""
    if not simulation:
        return None
    slice_: dict = {
        "prefixes": simulation.get("prefixes", 0),
        "converged": simulation.get("converged", 0),
        "outcomes": {
            kind: len(simulation.get(kind) or []) for kind in _OUTCOME_KINDS
        },
    }
    if simulation.get("supervision"):
        slice_["supervision"] = dict(simulation["supervision"])
    return slice_


def render_stats(report: dict) -> str:
    """Text rendering of the stats slice for the terminal."""
    stats = health_stats(report)
    lines: list[str] = []
    meta = stats["meta"]
    if meta:
        lines.append("run:")
        for key in (
            "repro_version", "python", "platform", "git_sha", "seed",
            "origins_converged_ahead",
        ):
            if meta.get(key) is not None:
                lines.append(f"  {key:<16} {meta[key]}")
        if meta.get("argv"):
            lines.append(f"  {'argv':<16} {' '.join(map(str, meta['argv']))}")
    phases = stats["phases_seconds"]
    if phases:
        lines.append("phases:")
        for name, seconds in phases.items():
            lines.append(f"  {name:<16} {seconds:.3f}s")
    metrics = stats["metrics"]
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<32} {counters[name]}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<32} {gauges[name]:g}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            summary = histograms[name]
            if not summary.get("count"):
                lines.append(f"  {name:<32} (empty)")
                continue
            cells = "  ".join(
                f"{column}={_format(summary[column])}"
                for column in _HISTO_COLUMNS
                if column in summary
            )
            lines.append(f"  {name}:")
            lines.append(f"    {cells}")
    if not (counters or gauges or histograms):
        lines.append("metrics: (none recorded — re-run with a recent repro)")
    simulation = stats["simulation"]
    if simulation:
        lines.append("simulation:")
        lines.append(f"  {'prefixes':<16} {simulation['prefixes']}")
        lines.append(f"  {'converged':<16} {simulation['converged']}")
        for kind, count in simulation["outcomes"].items():
            if count:
                lines.append(f"  {kind:<16} {count}")
        supervision = simulation.get("supervision")
        if supervision:
            lines.append("supervision:")
            for key in sorted(supervision):
                lines.append(f"  {key:<16} {supervision[key]}")
    if stats["interrupted"]:
        lines.append("interrupted: yes (graceful shutdown drained this run)")
    if stats["exit_code"] is not None:
        lines.append(f"exit_code: {stats['exit_code']}")
    return "\n".join(lines)


def _format(value) -> str:
    """Compact number formatting for histogram cells."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))
