"""The cached query engine: cheap answers from a compiled artifact.

A :class:`QueryEngine` loads one :class:`~repro.serve.artifact.PredictionArtifact`
read-only and answers the three serving questions —

* ``paths(origin, observer)`` — the predicted AS-path set,
* ``diversity(origin, observer)`` — how many distinct paths / next hops,
* ``lookup(target, observer)`` — longest-prefix-match an address or
  prefix onto its covering origin, then answer as ``paths``

— through a bounded LRU cache.  Every query flows through the
metrics registry (``serve.*`` counters and a ``serve.query_seconds``
histogram), so ``repro stats`` renders serving runs like any other.  A
query pays only for its answer: it takes one lock once and reads the
clock twice, on hits, misses and errors alike, and the origins'
canonical-prefix text is rendered once when the engine is built.  The
engine is thread-safe: the HTTP layer calls it from one thread per
connection.  Every engine in the process shares one serving lock, and
the ``serve.*`` instruments are created on it, so a query does its
cache work and all of its bookkeeping under that one acquire.  The lock
is process-wide rather than per engine because a hot reload overlaps
two engines writing the same instruments: the old one finishes its
in-flight queries while the new one answers, and one lock keeps their
updates from being lost.  An artifact query is dict/trie reads, so the
lock is never held across anything slow.

Failures are typed, never empty-but-wrong: asking about an ASN the
artifact does not know raises :class:`QueryError` with a ``kind`` the
HTTP layer maps onto 404s, and origins the compiler quarantined refuse
with ``kind="quarantined"`` (503) rather than pretending "no paths".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

from repro.errors import ParseError, ReproError
from repro.net.ip import MAX_IPV4, ip_from_string
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

_SERVE_LOCK = threading.Lock()
"""Guards every engine's cache and the ``serve.*`` instruments."""

_TARGET_TYPES = (str, int, Prefix)
"""Lookup targets cached as given; any other type is asked as its text."""


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
        self._observer_set = set(artifact.observers)
        self._quarantined_origins = artifact.quarantined_origins()
        self._origin_trie: PrefixTrie[int] = artifact.origin_trie()
        # Every answer names its origin's canonical prefix: render each
        # once here, not per miss.
        self._prefix_text = {
            asn: str(prefix) for asn, prefix in artifact.origins.items()
        }
        self._observer_tries: dict[int, PrefixTrie] = {}
        registry = get_registry()
        self._queries = registry.counter("serve.queries", _SERVE_LOCK)
        self._hits = registry.counter("serve.cache_hits", _SERVE_LOCK)
        self._misses = registry.counter("serve.cache_misses", _SERVE_LOCK)
        self._errors = registry.counter("serve.errors", _SERVE_LOCK)
        self._latency = registry.histogram("serve.query_seconds", _SERVE_LOCK)
        self._cache_gauge = registry.gauge("serve.cache_size", _SERVE_LOCK)
        self._cache_gauge.set(0)
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
        address or a :class:`~repro.net.prefix.Prefix`, and is cached as
        given: the int ``a`` and the string ``str(a)`` are two questions.
        A target of any other type (an ``IPv4Address``, which equals its
        int) is asked as its text.
        """
        if type(target) not in _TARGET_TYPES:
            target = str(target)
        return self._answer(("lookup", target, observer), self._lookup_uncached)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Cache occupancy and hit counters (for /healthz and tests)."""
        with _SERVE_LOCK:
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
        """One cache-or-compute round with metrics, under the serving lock.

        The ``serve.*`` instruments are on that lock, so they are
        written directly: one clock pair per query, recorded on hits,
        misses and errors alike, and the cache-size gauge set only when
        the size changes.
        """
        own = self._own
        cache = self._cache
        with _SERVE_LOCK:
            started = perf_counter()
            self._queries.value += 1
            own["queries"] += 1
            try:
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    self._hits.value += 1
                    own["hits"] += 1
                    return cached
                self._misses.value += 1
                own["misses"] += 1
                try:
                    answer = compute(key)
                except QueryError:
                    self._errors.value += 1
                    own["errors"] += 1
                    raise
                cache[key] = answer
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)
                else:
                    self._cache_gauge.value = float(len(cache))
                return answer
            finally:
                self._latency.record(perf_counter() - started)

    def _validate_pair(self, origin: int, observer: int) -> str:
        """The origin's canonical-prefix text, once the pair is answerable."""
        prefix = self._prefix_text.get(origin)
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
            origin=origin, observer=observer, prefix=prefix, paths=path_set,
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
            prefix=prefix,
            path_count=len(path_set),
            next_hops=next_hops,
            min_length=min(lengths) if lengths else 0,
            max_length=max(lengths) if lengths else 0,
        )

    def _lookup_uncached(self, key: tuple) -> LookupAnswer:
        _, target, observer = key
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
            _, (origin, path_set) = hit
            return LookupAnswer(
                target=str(target), matched_prefix=self._prefix_text[origin],
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
        origin = fallback[1]
        if origin in self._quarantined_origins:
            raise QueryError(
                QUARANTINED,
                f"the canonical prefix of AS {origin} was quarantined at "
                "compile time (no trustworthy answers)",
            )
        return LookupAnswer(
            target=str(target), matched_prefix=self._prefix_text[origin],
            origin=origin, observer=observer, paths=(),
        )

    @staticmethod
    def _parse_target(target: str | int | Prefix) -> Prefix | int:
        """Normalise a lookup target to what the trie understands."""
        if isinstance(target, Prefix):
            return target
        if isinstance(target, int):
            if 0 <= target <= MAX_IPV4:
                return target
            raise QueryError(
                BAD_TARGET, f"lookup target {target} is not a 32-bit address"
            )
        text = target.strip()
        try:
            if "/" in text:
                return Prefix(text)
            return ip_from_string(text)
        except ParseError as error:
            raise QueryError(
                BAD_TARGET, f"cannot parse lookup target {target!r}: {error}"
            ) from error
