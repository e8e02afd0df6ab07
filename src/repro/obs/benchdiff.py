"""Compare two PROFILE/BENCH JSON documents with regression thresholds.

The input is a ``repro --profile`` PROFILE.json or any ``metrics``-map
JSON (``BENCH_obs``, ``BENCH_lint``): each carries a flat numeric
``metrics`` map, which makes the perf trajectory diffable.
:func:`diff_metrics` compares every metric present in both documents,
classifies each change as a regression, an improvement or
noise-within-threshold, and maps the verdict to an exit code (1 if
anything regressed) so CI can gate on it.

Whether a bigger number is worse depends on the metric: ``*_seconds``
and ``*_bytes`` grow when things get slower, ``speedup_*`` / ``*_qps``
shrink.  :func:`metric_direction` encodes that heuristic; callers can
skip machine-dependent metrics entirely (``--skip '*seconds*'`` when
base and current ran on different hardware) and tighten or loosen the
tolerance per metric (``--threshold counter.engine.messages=0``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable

from repro.errors import DatasetError
from repro.runstate import read_json_object

DEFAULT_THRESHOLD = 20.0
"""Percent change tolerated before a metric counts as regressed."""

_HIGHER_IS_BETTER = (
    "speedup",
    "qps",
    "throughput",
    "rate",
    "coverage",
    "hit",
    "accepted",
    "converged",
)
"""Substrings marking metrics that regress by *shrinking*.

Everything else (seconds, bytes, messages, decisions, overhead, ...)
is treated as a cost: bigger is worse.
"""


def metric_direction(name: str) -> str:
    """``"higher"`` if bigger values of ``name`` are better, else ``"lower"``."""
    lowered = name.lower()
    for marker in _HIGHER_IS_BETTER:
        if marker in lowered:
            return "higher"
    return "lower"


def load_metrics(path: str | Path) -> tuple[dict[str, float], dict]:
    """The (metrics, meta) of one PROFILE.json / BENCH_*.json document.

    Raises :class:`~repro.errors.DatasetError` when the file is not a
    JSON document carrying a numeric ``metrics`` map — a loud refusal
    beats silently diffing nothing.
    """
    document = read_json_object(path, "metrics document", DatasetError)
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise DatasetError(
            f"{path} carries no 'metrics' map; expected a PROFILE.json or "
            "results/BENCH_*.json document"
        )
    numeric = {
        name: float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    if not numeric:
        raise DatasetError(f"{path} has no numeric metrics to compare")
    return numeric, document.get("meta") or {}


@dataclass
class MetricDelta:
    """One compared metric."""

    name: str
    base: float
    current: float
    change_pct: float
    direction: str
    threshold_pct: float
    regressed: bool
    improved: bool

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "base": self.base,
            "current": self.current,
            "change_pct": round(self.change_pct, 4),
            "direction": self.direction,
            "threshold_pct": self.threshold_pct,
            "regressed": self.regressed,
            "improved": self.improved,
        }


@dataclass
class BenchDiff:
    """The full comparison: per-metric deltas plus bookkeeping."""

    deltas: list[MetricDelta] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    """Metrics in BASE with no counterpart in CURRENT."""
    added: list[str] = field(default_factory=list)
    """Metrics in CURRENT with no counterpart in BASE."""

    @property
    def regressions(self) -> list[MetricDelta]:
        """The deltas that crossed their regression threshold."""
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def improvements(self) -> list[MetricDelta]:
        """The deltas that moved the good direction past the threshold."""
        return [delta for delta in self.deltas if delta.improved]

    @property
    def exit_code(self) -> int:
        """1 when any metric regressed, else 0 — the CI perf gate."""
        return 1 if self.regressions else 0

    def to_dict(self) -> dict:
        """JSON-serialisable report."""
        return {
            "metrics": [delta.to_dict() for delta in self.deltas],
            "regressions": [delta.name for delta in self.regressions],
            "improvements": [delta.name for delta in self.improvements],
            "skipped": sorted(self.skipped),
            "missing": sorted(self.missing),
            "added": sorted(self.added),
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self, max_rows: int = 40) -> str:
        """Plain-text verdict table, regressions first."""
        lines = []
        ordered = sorted(
            self.deltas,
            key=lambda d: (not d.regressed, not d.improved, d.name),
        )
        shown = ordered[:max_rows]
        if shown:
            width = max(len(delta.name) for delta in shown)
            lines.append(
                f"  {'metric':<{width}}  {'base':>12}  {'current':>12}  "
                f"{'change':>8}  verdict"
            )
            for delta in shown:
                if delta.regressed:
                    verdict = f"REGRESSED (>{delta.threshold_pct:g}%)"
                elif delta.improved:
                    verdict = "improved"
                else:
                    verdict = "ok"
                lines.append(
                    f"  {delta.name:<{width}}  {delta.base:>12.6g}  "
                    f"{delta.current:>12.6g}  {delta.change_pct:>+7.1f}%  "
                    f"{verdict}"
                )
            if len(ordered) > max_rows:
                lines.append(f"  (+{len(ordered) - max_rows} more metrics)")
        for name in sorted(self.missing):
            lines.append(f"  {name}: present in base only")
        for name in sorted(self.added):
            lines.append(f"  {name}: present in current only")
        if self.skipped:
            lines.append(f"  skipped: {' '.join(sorted(self.skipped))}")
        lines.append(
            f"bench-diff: {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.deltas)} metric(s) compared"
        )
        return "\n".join(lines)


def diff_metrics(
    base: dict[str, float],
    current: dict[str, float],
    default_threshold: float = DEFAULT_THRESHOLD,
    thresholds: dict[str, float] | None = None,
    skip: Iterable[str] = (),
) -> BenchDiff:
    """Compare two flat metric maps.

    ``thresholds`` overrides the tolerated percent change per metric
    name (exact match); ``skip`` is a list of fnmatch globs excluded
    from comparison entirely (their names are recorded as skipped).
    A base value of 0 compares exactly: any nonzero current value of a
    lower-is-better metric is an infinite-percent regression.
    """
    thresholds = thresholds or {}
    skip_globs = tuple(skip)
    diff = BenchDiff()
    for name in sorted(set(base) | set(current)):
        if any(fnmatch(name, glob) for glob in skip_globs):
            if name in base and name in current:
                diff.skipped.append(name)
            continue
        if name not in current:
            diff.missing.append(name)
            continue
        if name not in base:
            diff.added.append(name)
            continue
        base_value = base[name]
        current_value = current[name]
        if base_value == 0.0:
            change_pct = 0.0 if current_value == 0.0 else float("inf")
            if current_value < 0.0:
                change_pct = float("-inf")
        else:
            change_pct = (current_value - base_value) / abs(base_value) * 100.0
        direction = metric_direction(name)
        threshold = thresholds.get(name, default_threshold)
        worse_pct = change_pct if direction == "lower" else -change_pct
        diff.deltas.append(
            MetricDelta(
                name=name,
                base=base_value,
                current=current_value,
                change_pct=change_pct,
                direction=direction,
                threshold_pct=threshold,
                regressed=worse_pct > threshold,
                improved=-worse_pct > threshold,
            )
        )
    return diff


def diff_files(
    base_path: str | Path,
    current_path: str | Path,
    default_threshold: float = DEFAULT_THRESHOLD,
    thresholds: dict[str, float] | None = None,
    skip: Iterable[str] = (),
) -> BenchDiff:
    """Load and compare two PROFILE/BENCH JSON files."""
    base_metrics, _ = load_metrics(base_path)
    current_metrics, _ = load_metrics(current_path)
    return diff_metrics(
        base_metrics,
        current_metrics,
        default_threshold=default_threshold,
        thresholds=thresholds,
        skip=skip,
    )
