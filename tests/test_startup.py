"""Start-up pays only for what runs.

Each check runs a fresh interpreter and reads which modules it had
loaded when it exited: the pipeline's imports must not pull in networkx,
the HTTP server, the process pool or a module no pipeline pass calls, a
pass must import nothing, ``repro stats`` must not import the server or
the campaign engine, and every module must import on its own.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).parents[1])
BENCHMARK = str(Path(repro.__file__).parents[2] / "benchmarks" / "pipeline")

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
    "platform",
    "repro.serve.http",
    "repro.parallel.supervisor",
    # A pipeline pass calls none of these: each is imported by the side
    # path that does (a checkpoint, relationships=, the CLI, experiments).
    "repro.obs.logs",
    "repro.obs.meta",
    "repro.obs.sampling",
    "repro.resilience.faults",
    "repro.resilience.health",
    "repro.resilience.checkpoint",
    "repro.cbgp.export",
    "repro.cbgp.parse",
    "repro.analysis.analyzer",
    "repro.analysis.gaorexford",
    "repro.analysis.topology_lint",
    "repro.analysis.diffing",
    "repro.data.caida",
    "repro.data.ingest",
    "repro.data.sanitize",
    "repro.topology.diversity",
)


REPORT_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sys.modules, sep='\\n', file=sys.stderr))\n"
)


def run_fresh(code: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that finds this source tree."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SOURCE + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def loaded_modules(code: str) -> set[str]:
    """Every module a fresh interpreter running ``code`` holds at exit."""
    run = run_fresh(REPORT_AT_EXIT + code)
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


def test_a_pipeline_pass_imports_nothing():
    # A deferred import that fires inside a timed stage allocates there
    # and moves the collector's schedule; writing the dump may load a codec.
    run = run_fresh(
        "import sys, tempfile\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {BENCHMARK!r})\n"
        "from pipeline import run_pass\n"
        "from workloads import WORKLOADS\n"
        "before = set(sys.modules)\n"
        "with tempfile.TemporaryDirectory() as scratch:\n"
        "    run_pass(WORKLOADS['whatif-sweep'], 0, Path(scratch), traced=False)\n"
        "print(*sorted(set(sys.modules) - before))\n",
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert [m for m in run.stdout.split() if not m.startswith("encodings.")] == []


IMPORT_EACH = """\
import os, sys
# A child forked from this bare interpreter starts with what a fresh one
# holds; the cache saves recompiling a module for every later child.
sys.dont_write_bytecode, sys.pycache_prefix = False, sys.argv[1]
for name in sys.argv[2:]:
    pid = os.fork()
    if pid == 0:
        try:
            __import__(name)
        except BaseException:
            import traceback
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
        print(name)
"""


def test_every_module_imports_on_its_own(tmp_path):
    # An import site that reads a name its package no longer re-exports,
    # or a cycle that only another module's import order resolved, fails
    # here rather than the first time its command runs.
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.obs.meta" in names and "repro.serve.http" in names
    run = run_fresh(IMPORT_EACH, str(tmp_path), *names, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == [], run.stderr[-4000:]
