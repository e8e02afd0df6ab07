"""The cached query engine: cheap answers from a compiled artifact.

A :class:`QueryEngine` loads one :class:`~repro.serve.artifact.PredictionArtifact`
read-only and answers the three serving questions —

* ``paths(origin, observer)`` — the predicted AS-path set,
* ``diversity(origin, observer)`` — how many distinct paths / next hops,
* ``lookup(target, observer)`` — longest-prefix-match an address or
  prefix onto its covering origin, then answer as ``paths``

— plus batch variants, through a bounded LRU cache.  Every query flows
through the PR-3 metrics registry (``serve.*`` counters and a
``serve.query_seconds`` histogram), so ``repro stats`` renders serving
runs like any other.  The engine is thread-safe: the HTTP layer calls it
from one thread per connection, and a single lock guards the cache and
the registry (an artifact query is dict/trie reads — the lock is never
held across anything slow).

Failures are typed, never empty-but-wrong: asking about an ASN the
artifact does not know raises :class:`QueryError` with a ``kind`` the
HTTP layer maps onto 404s, and origins the compiler quarantined refuse
with ``kind="quarantined"`` (503) rather than pretending "no paths".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ParseError, ReproError
from repro.net.ip import ip_from_string
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.obs.metrics import get_registry
from repro.serve.artifact import PathSet, PredictionArtifact

DEFAULT_CACHE_SIZE = 4096
"""Bounded LRU entries; one entry is one answered (question, pair) key."""

UNKNOWN_ORIGIN = "unknown-origin"
UNKNOWN_OBSERVER = "unknown-observer"
UNKNOWN_TARGET = "unknown-target"
BAD_TARGET = "bad-target"
QUARANTINED = "quarantined"


class QueryError(ReproError):
    """A query the artifact cannot answer, with a machine-readable kind."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class PathsAnswer:
    """Answer to ``paths(origin, observer)``."""

    origin: int
    observer: int
    prefix: str
    paths: PathSet

    @property
    def reachable(self) -> bool:
        """True when the observer selects at least one route."""
        return bool(self.paths)

    def to_dict(self) -> dict:
        """JSON form served by the HTTP API."""
        return {
            "origin": self.origin,
            "observer": self.observer,
            "prefix": self.prefix,
            "reachable": self.reachable,
            "paths": [list(path) for path in self.paths],
        }


@dataclass(frozen=True)
class DiversityAnswer:
    """Answer to ``diversity(origin, observer)``: the Fig. 2 view of one pair."""

    origin: int
    observer: int
    prefix: str
    path_count: int
    next_hops: tuple[int, ...]
    min_length: int
    max_length: int

    @property
    def multipath(self) -> bool:
        """True when the pair exhibits route diversity (>1 distinct path)."""
        return self.path_count > 1

    def to_dict(self) -> dict:
        """JSON form served by the HTTP API."""
        return {
            "origin": self.origin,
            "observer": self.observer,
            "prefix": self.prefix,
            "path_count": self.path_count,
            "multipath": self.multipath,
            "next_hops": list(self.next_hops),
            "min_length": self.min_length,
            "max_length": self.max_length,
        }


@dataclass(frozen=True)
class LookupAnswer:
    """Answer to ``lookup(target, observer)``."""

    target: str
    matched_prefix: str
    origin: int
    observer: int
    paths: PathSet

    @property
    def reachable(self) -> bool:
        """True when the observer selects at least one route."""
        return bool(self.paths)

    def to_dict(self) -> dict:
        """JSON form served by the HTTP API."""
        return {
            "target": self.target,
            "matched_prefix": self.matched_prefix,
            "origin": self.origin,
            "observer": self.observer,
            "reachable": self.reachable,
            "paths": [list(path) for path in self.paths],
        }


class QueryEngine:
    """Thread-safe cached reader over one immutable prediction artifact."""

    def __init__(
        self,
        artifact: PredictionArtifact,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.artifact = artifact
        self.cache_size = cache_size
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._observer_set = set(artifact.observers)
        self._quarantined_origins = artifact.quarantined_origins()
        self._origin_trie: PrefixTrie[int] = artifact.origin_trie()
        self._observer_tries: dict[int, PrefixTrie] = {}
        registry = get_registry()
        self._queries = registry.counter("serve.queries")
        self._hits = registry.counter("serve.cache_hits")
        self._misses = registry.counter("serve.cache_misses")
        self._errors = registry.counter("serve.errors")
        self._latency = registry.histogram("serve.query_seconds")
        registry.gauge("serve.cache_size").set(0)
        self._cache_gauge = registry.gauge("serve.cache_size")
        # Registry counters are process-global (shared across engines, by
        # design — 'repro stats' wants totals); cache_stats() reports
        # this engine alone, so it keeps its own tallies.
        self._own = {"queries": 0, "hits": 0, "misses": 0, "errors": 0}

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------

    def paths(self, origin: int, observer: int) -> PathsAnswer:
        """The predicted AS-path set of one (origin, observer) pair."""
        return self._answer(("paths", origin, observer), self._paths_uncached)

    def diversity(self, origin: int, observer: int) -> DiversityAnswer:
        """Route-diversity summary of one (origin, observer) pair."""
        return self._answer(
            ("diversity", origin, observer), self._diversity_uncached
        )

    def lookup(self, target: str | int | Prefix, observer: int) -> LookupAnswer:
        """Longest-prefix-match ``target`` and answer for its origin.

        ``target`` may be a dotted address, a CIDR string, a bare 32-bit
        address or a :class:`~repro.net.prefix.Prefix`.
        """
        key = ("lookup", str(target), observer)
        return self._answer(key, lambda k: self._lookup_uncached(target, observer))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Cache occupancy and hit counters (for /healthz and tests)."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "capacity": self.cache_size,
                **self._own,
            }

    def describe(self) -> dict:
        """Artifact summary for /healthz."""
        return {
            "schema": self.artifact.schema,
            "checksum": self.artifact.checksum,
            "origins": len(self.artifact.origins),
            "observers": len(self.artifact.observers),
            "pairs": self.artifact.pair_count,
            "quarantined": len(self.artifact.quarantined),
            "meta": self.artifact.meta,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _answer(self, key: tuple, compute):
        """One cache-or-compute round with metrics, under the lock."""
        with self._lock:
            self._queries.inc()
            self._own["queries"] += 1
            with self._latency.time():
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits.inc()
                    self._own["hits"] += 1
                    return cached
                self._misses.inc()
                self._own["misses"] += 1
                try:
                    answer = compute(key)
                except QueryError:
                    self._errors.inc()
                    self._own["errors"] += 1
                    raise
                self._cache[key] = answer
                if len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                self._cache_gauge.set(len(self._cache))
                return answer

    def _validate_pair(self, origin: int, observer: int) -> Prefix:
        artifact = self.artifact
        prefix = artifact.origins.get(origin)
        if prefix is None:
            raise QueryError(
                UNKNOWN_ORIGIN,
                f"origin AS {origin} is not in the artifact",
            )
        if observer not in self._observer_set:
            raise QueryError(
                UNKNOWN_OBSERVER,
                f"observer AS {observer} is not in the artifact",
            )
        if origin in self._quarantined_origins:
            raise QueryError(
                QUARANTINED,
                f"the canonical prefix of AS {origin} was quarantined at "
                "compile time (no trustworthy answers); recompile after "
                "fixing the model",
            )
        return prefix

    def _paths_uncached(self, key: tuple) -> PathsAnswer:
        _, origin, observer = key
        prefix = self._validate_pair(origin, observer)
        path_set = self.artifact.paths.get((origin, observer), ())
        return PathsAnswer(
            origin=origin, observer=observer, prefix=str(prefix),
            paths=path_set,
        )

    def _diversity_uncached(self, key: tuple) -> DiversityAnswer:
        _, origin, observer = key
        prefix = self._validate_pair(origin, observer)
        path_set = self.artifact.paths.get((origin, observer), ())
        lengths = [len(path) - 1 for path in path_set]  # hops, not nodes
        next_hops = tuple(sorted({
            path[1] for path in path_set if len(path) > 1
        }))
        return DiversityAnswer(
            origin=origin,
            observer=observer,
            prefix=str(prefix),
            path_count=len(path_set),
            next_hops=next_hops,
            min_length=min(lengths) if lengths else 0,
            max_length=max(lengths) if lengths else 0,
        )

    def _lookup_uncached(
        self, target: str | int | Prefix, observer: int
    ) -> LookupAnswer:
        if observer not in self._observer_set:
            raise QueryError(
                UNKNOWN_OBSERVER,
                f"observer AS {observer} is not in the artifact",
            )
        resolved = self._parse_target(target)
        trie = self._observer_tries.get(observer)
        if trie is None:
            trie = self.artifact.observer_trie(observer)
            self._observer_tries[observer] = trie
        hit = trie.longest_match(resolved)
        if hit is not None:
            matched, (origin, path_set) = hit
            return LookupAnswer(
                target=str(target), matched_prefix=str(matched),
                origin=origin, observer=observer, paths=path_set,
            )
        # Not in this observer's table: either the covering origin is
        # unreachable from here (a real empty answer) or nothing covers
        # the target at all.
        fallback = self._origin_trie.longest_match(resolved)
        if fallback is None:
            raise QueryError(
                UNKNOWN_TARGET,
                f"no canonical prefix covers {target}",
            )
        matched, origin = fallback
        if origin in self._quarantined_origins:
            raise QueryError(
                QUARANTINED,
                f"the canonical prefix of AS {origin} was quarantined at "
                "compile time (no trustworthy answers)",
            )
        return LookupAnswer(
            target=str(target), matched_prefix=str(matched),
            origin=origin, observer=observer, paths=(),
        )

    @staticmethod
    def _parse_target(target: str | int | Prefix) -> Prefix | int:
        """Normalise a lookup target to what the trie understands."""
        if isinstance(target, (Prefix, int)):
            return target
        text = str(target).strip()
        try:
            if "/" in text:
                return Prefix(text)
            return ip_from_string(text)
        except ParseError as error:
            raise QueryError(
                BAD_TARGET, f"cannot parse lookup target {target!r}: {error}"
            ) from error
