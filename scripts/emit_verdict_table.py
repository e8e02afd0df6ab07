#!/usr/bin/env python3
"""Re-emit EXPERIMENTS.md's verdict table from the fidelity baseline.

Replaces what stands between the two ``verdict-table`` marker comments
with ``repro.experiments.verdict_table`` of the baseline's ``default``
section (``tests/test_bench_provenance.py`` holds the two equal):

    python scripts/emit_verdict_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.registry import TABLE_BEGIN, TABLE_END, verdict_table

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    baseline = json.loads(
        (ROOT / "results" / "FIDELITY_baseline.json").read_text("utf-8")
    )
    document = ROOT / "EXPERIMENTS.md"
    before, begin, rest = document.read_text("utf-8").partition(TABLE_BEGIN)
    _, end, after = rest.partition(TABLE_END)
    if not (begin and end):
        print("error: EXPERIMENTS.md has lost its verdict-table markers",
              file=sys.stderr)
        return 1
    table = verdict_table(baseline["default"])
    document.write_text(
        f"{before}{TABLE_BEGIN}\n{table}\n{TABLE_END}{after}", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
