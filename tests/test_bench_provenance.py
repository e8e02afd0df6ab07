"""Every recorded number has one generator; every harness has a caller.

The pipeline benchmark (``BENCHMARK.json`` + ``benchmarks/pipeline/``) is
the one instrument performance is judged by.  The single-layer
``results/BENCH_*.json`` files that remain measure what it has no row
for, and ``results/FIDELITY_baseline.json`` holds the paper's tables;
both are written by entries of ``repro.experiments.EXPERIMENTS``.  These
checks keep that honest: no checked-in number without its registry
entry, no experiment module nothing runs, no verdict that does not hold,
no hand-edited verdict table, and no silent loss of a pipeline row that
replaced a retired single-layer benchmark.
"""

import ast
import json
from pathlib import Path

from repro.experiments import EXPERIMENTS, verdict_table
from repro.experiments.registry import TABLE_BEGIN, TABLE_END
from repro.experiments.report import is_timing

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
    recorded = sorted((ROOT / "results").glob("BENCH_*.json"))
    assert recorded, "results/ holds no BENCH_*.json at all"
    for result in recorded:
        writers = [e.id for e in EXPERIMENTS if e.record == result.name]
        assert len(writers) == 1, f"{result.name} is written by {writers}"
        document = json.loads(result.read_text(encoding="utf-8"))
        assert document["experiment"] == writers[0]


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
    """A module under ``repro/experiments/`` that defines a runner (a public
    ``run*`` function, or one returning an ``ExperimentResult``) is imported
    by the registry or by a command module (``*/commands.py``, which
    ``cli.py`` lists) — nothing else lists experiments."""
    package = ROOT / "src" / "repro" / "experiments"
    runners = set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and (
                node.name.startswith("run")
                or (node.returns and ast.unparse(node.returns) == "ExperimentResult")
            ):
                runners.add(path.stem)
    # The detection sees each shape a runner takes today.
    assert {"table3", "ablations", "chaos"} <= runners
    command_modules = sorted((ROOT / "src" / "repro").glob("*/commands.py"))
    assert package / "commands.py" in command_modules
    reachable = set().union(*map(
        _imported_experiment_modules, [package / "registry.py", *command_modules]
    ))
    assert runners - reachable == set()


def test_fidelity_baseline_holds_the_paper_set_and_every_verdict_holds():
    baseline = json.loads(
        (ROOT / "results" / "FIDELITY_baseline.json").read_text(encoding="utf-8")
    )
    paper = [e.id for e in EXPERIMENTS if e.record is None]
    assert sorted(baseline) == ["default", "small"]
    for workload, section in baseline.items():
        assert sorted(section) == sorted(paper), workload
        for experiment_id, record in section.items():
            assert record["experiment"] == experiment_id
            assert record["meta"]["workload"] == workload
            assert record["verdict"] == "holds", (workload, experiment_id)
            assert not any(is_timing(name) for name in record["metrics"])


def test_experiments_md_verdict_table_is_the_emitted_one():
    """Prose cannot drift: the marked region is, byte for byte, what
    ``scripts/emit_verdict_table.py`` writes from the checked-in baseline."""
    baseline = json.loads(
        (ROOT / "results" / "FIDELITY_baseline.json").read_text(encoding="utf-8")
    )
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert text.count(TABLE_BEGIN) == 1 and text.count(TABLE_END) == 1
    region = text.partition(TABLE_BEGIN)[2].partition(TABLE_END)[0]
    assert region == "\n" + verdict_table(baseline["default"]) + "\n"


def test_benchmark_json_keeps_every_successor_row():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = {
        metric["name"]
        for section in ("end_to_end", "per_layer")
        for metric in declared[section]
    }
    assert SUCCESSOR_ROWS - rows == set()
