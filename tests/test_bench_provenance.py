"""Every recorded number has one generator; every harness has a caller.

The pipeline benchmark (``BENCHMARK.json`` + ``benchmarks/pipeline/``) is
the one instrument performance is judged by.  The single-layer
``results/BENCH_*.json`` files that remain measure what it has no row
for; these checks keep that split honest: no checked-in number without
its writer, no experiment module nothing runs, and no silent loss of a
pipeline row that replaced a retired single-layer benchmark.
"""

import ast
import json
import types
from pathlib import Path

import repro.experiments

ROOT = Path(__file__).resolve().parent.parent

# Rows of BENCHMARK.json that took over from the PAR / PROF / CAMP / SERVE
# single-layer benchmarks retired in PR 15 (old name -> successor table in
# benchmarks/README.md).
SUCCESSOR_ROWS = {
    "parallel.speedup_w2",
    "parallel.compile_w2_s",
    "parallel.cpu_count",
    "obs.profile_overhead_frac",
    "bgp.phase.dispatch_s",
    "bgp.phase.rib_merge_s",
    "bgp.phase.decision_s",
    "bgp.phase.export_s",
    "bgp.phase.route_map_s",
    "campaign.scenarios_per_min",
    "campaign.top_blast_radius",
    "campaign.quarantined",
    "query_us",
    "compile_s",
    "serve.paths_warm_us",
    "serve.diversity_miss_us",
    "serve.lookup_us",
    "serve.artifact_bytes",
    "serve.pairs",
}


def test_every_checked_in_bench_file_has_exactly_one_writer():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in (ROOT / "benchmarks").glob("bench_*.py")
    }
    recorded = sorted((ROOT / "results").glob("BENCH_*.json"))
    assert recorded, "results/ holds no BENCH_*.json at all"
    for result in recorded:
        writers = [
            name for name, text in sources.items() if f'"{result.name}"' in text
        ]
        assert len(writers) == 1, f"{result.name} is written by {writers}"


def _imported_experiment_modules(path: Path) -> set[str]:
    """Names ``X`` a file imports from ``repro.experiments[.X]``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro.experiments":
                names.update(alias.name for alias in node.names)
            elif node.module.startswith("repro.experiments."):
                names.add(node.module.split(".")[2])
    return names


def test_every_exported_experiment_module_has_a_caller():
    callers = [ROOT / "src" / "repro" / "cli.py"]
    for directory in ("benchmarks", "scripts", "tests", "examples"):
        callers.extend((ROOT / directory).rglob("*.py"))
    used: set[str] = set()
    for path in callers:
        used |= _imported_experiment_modules(path)
    modules = {
        name
        for name in repro.experiments.__all__
        if isinstance(getattr(repro.experiments, name), types.ModuleType)
    }
    assert modules, "repro.experiments exports no modules"
    assert modules - used == set()


def test_benchmark_json_keeps_every_successor_row():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = {
        metric["name"]
        for section in ("end_to_end", "per_layer")
        for metric in declared[section]
    }
    assert SUCCESSOR_ROWS - rows == set()
