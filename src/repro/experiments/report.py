"""Plain-text result rendering and the one JSON record shared by all experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.runstate import atomic_write


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None
) -> str:
    """Render an aligned fixed-width text table."""
    columns = len(headers)
    cells = [[_format_cell(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != columns:
            raise ValueError(f"row has {len(row)} cells, expected {columns}")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _format_cell(value: Any) -> str:
    """A table cell: the only floats the experiments put in a row are rates."""
    if isinstance(value, float):
        return f"{value:.1%}" if 0 <= value <= 1 else f"{value:.2f}"
    return str(value)


def is_timing(name: str) -> bool:
    """Timing metrics carry their unit in their name; they are the only
    metrics a seeded workload does not reproduce exactly."""
    return "seconds" in name or "_ms" in name


def format_metric(name: str, value: Any) -> str:
    """A metric as a number: a count or flag is an int and prints as one, a
    timing prints in its unit, and only a float rate reads as a percentage."""
    if isinstance(value, float) and is_timing(name):
        return f"{value:.3f}"
    return _format_cell(value)


def write_json(path: str | Path, document: dict) -> Path:
    """Write ``document`` the way every checked-in result file is written;
    atomically, because the fidelity baseline is updated a section at a time."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(target, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


@dataclass
class ExperimentResult:
    """One experiment's output: structured rows plus a rendered report."""

    experiment_id: str
    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def add_row(self, *cells: Any) -> None:
        """Append one result row."""
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        """Attach a free-form note (paper reference values, caveats)."""
        self.notes.append(text)

    def render(self) -> str:
        """The full text report for this experiment."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.metrics:
            parts.append(
                "\n".join(
                    f"  {key} = {format_metric(key, value)}"
                    for key, value in sorted(self.metrics.items())
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def to_record(self, meta: dict) -> dict:
        """The JSON record of this result, stamped with ``meta`` (see
        :func:`repro.obs.meta.run_metadata`) so the numbers stay attributable."""
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "metrics": self.metrics,
            "notes": self.notes,
            "meta": meta,
        }
