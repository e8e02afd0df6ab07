"""Compare two benchmark records: ``compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both are ``run.json`` files written by ``run.py --out``.

* The simulated statistics must repeat **exactly** at equal seed: they
  are counts made by the program, so any difference is a behaviour
  change, not noise.
* Each end-to-end metric gets one verdict per workload, by the bound
  ``BENCHMARK.json`` fixes for it: ``ok``, ``worse``, or ``unresolved``
  when the run-to-run spread is wider than the bound (then only "every
  run of B beats every run of A" counts as ``ok``).

Exit code 0 when every row is ``equal``/``ok``, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import report  # noqa: E402

OK, WORSE, UNRESOLVED, EQUAL, CHANGED = "ok", "worse", "unresolved", "equal", "CHANGED"


def spread(samples: list[float]) -> float:
    """Distance between the quartiles; the full range below four samples."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        return max(samples) - min(samples)
    first, _, third = statistics.quantiles(samples, n=4)
    return third - first


def verdict(parent: list[float], change: list[float], bound: float) -> tuple[str, float]:
    """(verdict, relative change of the median) for a lower-is-better metric."""
    base = statistics.median(parent)
    delta = (statistics.median(change) - base) / base
    if max(spread(parent), spread(change)) / base > bound:
        return (OK if max(change) < min(parent) else UNRESOLVED), delta
    return (WORSE if delta > bound else OK), delta


def compare(parent: dict, change: dict, spec: dict) -> list[tuple[str, str, str, str]]:
    """Rows of (workload, name, verdict, detail) for every shared workload."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    rows = []
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        a, b = parent["workloads"][workload], change["workloads"][workload]
        for name in sorted(set(a["exact"]) | set(b["exact"])):
            before, after = a["exact"].get(name), b["exact"].get(name)
            same = before == after
            rows.append((
                workload, name, EQUAL if same else CHANGED,
                str(before) if same else f"{before} -> {after}",
            ))
        for name, bound in bounds.items():
            before = a["end_to_end"][name]["samples"]
            after = b["end_to_end"][name]["samples"]
            outcome, delta = verdict(before, after, bound)
            rows.append((
                workload, name, outcome,
                f"{statistics.median(before):.6g} -> {statistics.median(after):.6g} "
                f"({delta:+.1%}, bound +{bound:.0%}, n={len(before)}/{len(after)})",
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(parent, change, report.load_spec())
    for workload, name, outcome, detail in rows:
        print(f"{workload:<13} {name:<24} {outcome:<10} {detail}")
    bad = [row for row in rows if row[2] not in (OK, EQUAL)]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
