"""Benchmark configuration: the ``--workload`` every benchmark runs on.

The quick ``small`` workload is the default so the whole suite runs in
minutes; the numbers recorded in EXPERIMENTS.md come from
``--workload default``.
"""

from __future__ import annotations

import pytest

from repro.experiments import WORKLOADS


def pytest_addoption(parser):
    parser.addoption(
        "--workload",
        default="small",
        choices=sorted(WORKLOADS),
        help="which canonical workload the benchmarks run on; "
        "EXPERIMENTS.md numbers use --workload default",
    )


@pytest.fixture(scope="session")
def workload(request):
    return WORKLOADS[request.config.getoption("--workload")]
