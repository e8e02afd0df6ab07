"""Prediction serving: compile once, answer cheaply, serve over HTTP.

The ROADMAP's read path.  Every question the refined model can answer —
"which AS-paths would observer X use to reach origin Y?" — used to cost
a full per-prefix simulation through :mod:`repro.core.predict`.  This
package splits that cost in two:

* :mod:`repro.serve.compile` — simulate every canonical prefix *once*
  (optionally through the supervised parallel pool) and freeze every
  (origin, observer) answer into a versioned, checksummed
  :class:`~repro.serve.artifact.PredictionArtifact` file.
* :mod:`repro.serve.engine` — load an artifact read-only and answer
  ``paths`` / ``diversity`` / ``lookup`` through a bounded LRU cache,
  with ``serve.*`` metrics flowing through the observability registry.
* :mod:`repro.serve.http` — a stdlib-only threaded HTTP/JSON API
  (``repro serve``) with structured errors and a graceful
  SIGINT/SIGTERM drain.
* :mod:`repro.serve.reload` — zero-downtime hot swaps: SIGHUP /
  ``POST /-/reload`` / an :class:`~repro.serve.reload.ArtifactWatcher`
  stage a recompiled artifact off-thread and swap the engine behind an
  RCU-style :class:`~repro.serve.reload.EngineRef`; failed validation
  keeps the old artifact serving in degraded mode.
* :mod:`repro.serve.admission` — overload protection: bounded
  admission with per-request deadlines, load-shedding 503s carrying
  ``Retry-After``, and a sliding-window breaker that sheds the most
  expensive route first.
* :mod:`repro.serve.supervisor` — ``repro serve --workers N``: N
  ``SO_REUSEPORT`` server processes under a watchdog/heartbeat/restart
  supervisor, so a ``kill -9`` costs one worker, never the service.

CLI: ``repro compile-artifact``, ``repro query``, ``repro serve``.

The package re-exports what every importer runs — the artifact, the
engine and the compiler.  The server stack (``http``, ``reload``,
``admission``, ``supervisor``) is imported from its submodule by the few
callers that serve, so compiling or querying never loads ``http.server``,
``ssl`` or the process pool.
"""

from repro.serve.artifact import (
    MAGIC,
    SCHEMA_VERSION,
    PredictionArtifact,
    build_artifact,
)
from repro.serve.compile import CompileReport, compile_artifact
from repro.serve.engine import (
    DiversityAnswer,
    LookupAnswer,
    PathsAnswer,
    QueryEngine,
    QueryError,
)

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "CompileReport",
    "DiversityAnswer",
    "LookupAnswer",
    "PathsAnswer",
    "PredictionArtifact",
    "QueryEngine",
    "QueryError",
    "build_artifact",
    "compile_artifact",
]
