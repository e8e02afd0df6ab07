"""Every entry of ``repro.experiments.EXPERIMENTS`` under pytest-benchmark.

One parametrised test: run the experiment exactly once (``rounds=1`` — the
interesting output is the regenerated table, printed via ``-s``, plus the
headline metrics in ``extra_info``), write its ``results/`` record when the
entry names one, then hold it to the entry's verdict.  ``-k TAB4`` selects
one; the verdicts themselves live in ``repro/experiments/registry.py``.
"""

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.report import write_json
from repro.obs.meta import run_metadata

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_experiment(benchmark, experiment, workload):
    result = benchmark.pedantic(
        experiment.run, args=(workload,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result.metrics)
    print()
    print(result.render())
    if experiment.record:
        # Every BENCH_*.json carries the git sha, interpreter and workload
        # that produced it, so recorded numbers stay attributable.
        meta = run_metadata()
        meta["workload"] = workload.name
        write_json(RESULTS_DIR / experiment.record, result.to_record(meta))
    experiment.verdict(result)
