"""Start-up pays only for what runs.

Each check runs a fresh interpreter and reads which modules it had
loaded when it exited: the pipeline's imports must not pull in networkx,
the HTTP server or the process pool, and ``repro stats`` must not import
the server or the campaign engine.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).parents[1])

PIPELINE_MODULES = (
    "repro.campaign",
    "repro.serve",
    "repro.core",
    "repro.data.dumps",
    "repro.parallel",
    "repro.relationships.gao",
    "repro.topology.graph",
)
"""What the pipeline benchmark and the paper's pipeline import."""

NOT_ON_THE_RUN_PATH = (
    "networkx",
    "multiprocessing",
    "http.server",
    "ssl",
    "repro.serve.http",
    "repro.parallel.supervisor",
)


REPORT_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sys.modules, sep='\\n', file=sys.stderr))\n"
)


def loaded_modules(code: str) -> set[str]:
    """Every module a fresh interpreter running ``code`` holds at exit."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SOURCE + (os.pathsep + path if path else "")}
    run = subprocess.run(
        [sys.executable, "-c", REPORT_AT_EXIT + code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return set(run.stderr.split())


def test_the_pipeline_imports_no_graph_library_server_or_pool():
    loaded = loaded_modules("\n".join(f"import {m}" for m in PIPELINE_MODULES))
    assert set(PIPELINE_MODULES) <= loaded
    assert sorted(loaded & set(NOT_ON_THE_RUN_PATH)) == []


def test_repro_stats_imports_neither_the_server_nor_the_campaign_engine():
    # python -m repro.cli stats --help
    loaded = loaded_modules(
        "import runpy\n"
        "sys.argv = ['repro', 'stats', '--help']\n"
        "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    )
    assert "repro.obs.commands" in loaded
    packages = {".".join(m.split(".")[:2]) for m in loaded}
    assert packages.isdisjoint({"repro.serve", "repro.campaign"})
