"""Incremental safety certification: fingerprinted per-prefix certificates.

The refinement loop (paper §4.6) installs and deletes policies for
thousands of iterations; re-running the whole static analyzer each
iteration throws away the "static ms vs simulated seconds" advantage the
lint gate exists for.  This module makes re-certification *incremental*:

* every per-prefix analysis result becomes a :class:`SafetyCertificate`
  whose **fingerprint** is a content hash over exactly the inputs the
  analysis consulted — the prefix's dispute-digraph edges (own plus
  prefix-agnostic local-pref edges), the ordered clause entries of every
  route-map that mentions the prefix (generic clauses included, since
  they shadow), and, for the model-wide certificate, each session's
  endpoints + generic clauses and the relationship edges the Gao-Rexford
  pass reads;
* the :class:`CertificateStore` tracks which routers/sessions each
  certificate's footprint came from.  A policy install/delete marks the
  touched router dirty; re-certification re-extracts only dirty routers'
  edges and map indexes, re-fingerprints only certificates whose
  dependency set intersects the change, and recomputes findings only
  where the fingerprint actually differs.  Everything else is a cache
  hit.

Soundness rests on two properties (DESIGN.md §5i): invalidation may
*over*-approximate (an unchanged fingerprint is always a hit, so spurious
dirtiness costs a hash, never correctness), and findings are produced by
the same per-prefix functions under the same canonical orderings as a
from-scratch pass — so an incremental store and a fresh one are
bit-for-bit identical, which the test suite enforces over random edit
sequences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.policy_lint import lint_map
from repro.analysis.safety import (
    PreferenceEdge,
    _local_pref_edges,
    _med_edges,
    local_pref_findings_for_prefix,
    med_findings_for_prefix,
)
from repro.bgp.network import Network
from repro.bgp.policy import Clause, RouteMap
from repro.bgp.router import Router
from repro.bgp.session import Session
from repro.errors import CertificateError
from repro.net.prefix import Prefix
from repro.obs.metrics import get_registry
from repro.relationships.types import RelationshipMap
from repro.runstate import read_state, write_state

STORE_FORMAT = "repro/certificate-store/v1"

GLOBAL_KEY = "*"
"""Certificate key for findings not tied to one prefix: generic-clause
policy lint and the Gao-Rexford compliance pass."""


def _edge_token(edge: PreferenceEdge, prefix_text: str) -> bytes:
    """Deterministic byte encoding of one dispute-digraph edge.

    ``prefix_text`` is ``str(edge.prefix)``, rendered once by the caller.
    """
    return (
        f"{prefix_text}|{edge.router_id}|{edge.asn}|{edge.neighbor_router_id}"
        f"|{edge.neighbor_asn}|{edge.kind}|{edge.clause}\n"
    ).encode()


def _clause_token(position: int, clause: Clause, prefix_text: str) -> bytes:
    """Deterministic byte encoding of one route-map clause at a position.

    ``prefix_text`` is ``str(clause.match.prefix)``, rendered once by the
    caller.
    """
    match = clause.match
    return (
        f"{position}|{prefix_text}|{match.path_len_lt}|{match.path_len_gt}"
        f"|{match.from_asn}|{match.from_router}|{match.path_contains}"
        f"|{match.path_regex}|{match.community}|{clause.action.value}"
        f"|{clause.set_local_pref}|{clause.set_med}|{clause.prepend}"
        f"|{sorted(clause.add_communities)}|{clause.strip_communities}"
        f"|{clause.tag}\n"
    ).encode()


@dataclass(frozen=True)
class SafetyCertificate:
    """One fingerprinted analysis result: a prefix's (or the model-wide)
    findings plus the content hash of everything they were derived from."""

    key: str
    fingerprint: str
    findings: tuple[Finding, ...]

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable view."""
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, document: dict[str, object]) -> "SafetyCertificate":
        """Invert :meth:`to_dict`."""
        findings = document.get("findings")
        if not isinstance(findings, list):
            raise CertificateError("certificate findings must be a list")
        return cls(
            key=str(document["key"]),
            fingerprint=str(document["fingerprint"]),
            findings=tuple(Finding.from_dict(f) for f in findings),
        )


@dataclass(frozen=True)
class CertifyStats:
    """Accounting of one :meth:`CertificateStore.certify` call."""

    candidates: int
    hits: int
    misses: int
    reused: int
    total: int

    @property
    def invalidated_fraction(self) -> float:
        """Fraction of certificates whose findings were recomputed."""
        return self.misses / self.total if self.total else 0.0


class CertificateStore:
    """Dependency-tracked store of :class:`SafetyCertificate` objects.

    Covers the certifiable pass surface: the dispute-digraph safety pass,
    the per-map policy lint rules, and (when a :class:`RelationshipMap`
    is attached) the Gao-Rexford compliance pass.  Dataset-dependent
    policy rules and the topology pass stay outside the store — their
    inputs (training data, whole-graph reachability) have no small
    per-prefix footprint to fingerprint.
    """

    def __init__(self, relationships: RelationshipMap | None = None) -> None:
        self.relationships = relationships
        self.certificates: dict[str, SafetyCertificate] = {}
        self.last_stats = CertifyStats(0, 0, 0, 0, 0)
        # Key text <-> prefix, each prefix rendered once.
        self._prefix_obj: dict[str, Prefix] = {}
        self._key_text: dict[Prefix, str] = {}
        # Per-router dispute-digraph contributions.
        self._router_lp: dict[int, dict[str, list[PreferenceEdge]]] = {}
        self._router_lp_global: dict[int, list[PreferenceEdge]] = {}
        self._router_med: dict[int, dict[str, list[PreferenceEdge]]] = {}
        # Reverse indexes: key -> router ids contributing edges.
        self._lp_by_key: dict[str, set[int]] = {}
        self._med_by_key: dict[str, set[int]] = {}
        # Per-session map state: endpoint+generic signature, and per prefix
        # key the bytes of its clauses (compared between calls, never hashed).
        self._session_sig: dict[int, str] = {}
        self._session_prefixes: dict[int, dict[str, bytes]] = {}
        self._sessions_by_key: dict[str, set[int]] = {}
        self._router_sessions: dict[int, set[int]] = {}
        self._rel_fingerprint: str | None = None
        # Dirtiness.
        self._dirty_all = True
        self._dirty_routers: set[int] = set()
        self._dirty_keys: set[str] = set()
        self._global_lp_changed = False

    # ------------------------------------------------------------------
    # invalidation API (the refinement loop's hooks)

    def invalidate_policy(
        self, router_id: int, prefix: Prefix | None = None
    ) -> None:
        """A route-map on one of ``router_id``'s sessions changed.

        ``prefix`` narrows the certificates considered; ``None`` means the
        change was not prefix-scoped.  Over-approximation is safe: the
        fingerprint arbitrates at certify time.
        """
        self._dirty_routers.add(router_id)
        if prefix is not None:
            self._dirty_keys.add(self._key(prefix))
        get_registry().counter("certify.invalidations").inc()

    def invalidate_router(self, router: Router) -> None:
        """``router`` (or its session set) is new or structurally changed.

        Session peers are dirtied too: a neighbour's MED ranking ranges
        over *all* its inbound sessions, so adding a session (router
        duplication) changes the neighbour's edge extraction as well.
        """
        self._dirty_routers.add(router.router_id)
        for session in list(router.sessions_in) + list(router.sessions_out):
            self._dirty_routers.add(session.src.router_id)
            self._dirty_routers.add(session.dst.router_id)
        get_registry().counter("certify.invalidations").inc()

    def invalidate_all(self) -> None:
        """Drop all tracked dependency state; next certify revalidates
        every certificate's fingerprint (used after a checkpoint restore
        swaps the model out from under the store)."""
        self._dirty_all = True

    # ------------------------------------------------------------------
    # certification

    def certify(self, network: Network) -> AnalysisReport:
        """Bring every certificate up to date with ``network``.

        Returns the assembled report.  Only certificates whose dependency
        set intersects the recorded changes are re-fingerprinted, and
        only fingerprint mismatches recompute findings.
        """
        registry = get_registry()
        with registry.histogram("certify.seconds").time():
            stats = self._certify(network, {})
        self.last_stats = stats
        registry.counter("certify.hits").inc(stats.hits + stats.reused)
        registry.counter("certify.misses").inc(stats.misses)
        return self.report()

    def _certify(self, network: Network, tokens: dict[int, bytes]) -> CertifyStats:
        """One certification pass; ``tokens`` holds this call's clause
        tokens (see :meth:`_token`) and dies with it."""
        revalidate_all = self._dirty_all
        if revalidate_all:
            self._reset_indexes()
            dirty_routers = set(network.routers)
            global_dirty = True
        else:
            dirty_routers = set(self._dirty_routers)
            global_dirty = False
        candidates = set(self._dirty_keys)

        seen_sessions: set[int] = set()
        for router_id in sorted(dirty_routers):
            router = network.routers.get(router_id)
            candidates |= self._refresh_router(router_id, router)
            changed_keys, generic_changed = self._refresh_router_sessions(
                network, router_id, router, seen_sessions, tokens
            )
            candidates |= changed_keys
            global_dirty |= generic_changed

        universe = {GLOBAL_KEY}
        universe.update(self._key(p) for p in network.prefixes())
        universe.update(k for k, v in self._lp_by_key.items() if v)
        universe.update(k for k, v in self._med_by_key.items() if v)
        universe.update(k for k, v in self._sessions_by_key.items() if v)

        if self._global_lp_changed:
            # Prefix-agnostic local-pref edges join every prefix's graph.
            candidates |= universe - {GLOBAL_KEY}
            self._global_lp_changed = False
        if global_dirty:
            candidates.add(GLOBAL_KEY)

        if revalidate_all:
            # Nothing recorded before the reset can be trusted — a key
            # whose dependency set shrank to empty would otherwise never
            # be re-fingerprinted and keep stale findings alive.
            candidates |= universe
        for stale in set(self.certificates) - universe:
            del self.certificates[stale]
        candidates |= universe - set(self.certificates)
        candidates &= universe

        stale: dict[str, str] = {}
        for key in sorted(candidates):
            fingerprint = self._fingerprint(network, key, tokens)
            existing = self.certificates.get(key)
            if existing is None or existing.fingerprint != fingerprint:
                stale[key] = fingerprint
        lint = self._lint(network, stale)
        for key, fingerprint in stale.items():
            self.certificates[key] = SafetyCertificate(
                key=key,
                fingerprint=fingerprint,
                findings=tuple(
                    self._compute(network, key, lint.get(key, ()))
                ),
            )

        self._dirty_routers.clear()
        self._dirty_keys.clear()
        self._dirty_all = False
        return CertifyStats(
            candidates=len(candidates),
            hits=len(candidates) - len(stale),
            misses=len(stale),
            reused=len(universe) - len(candidates),
            total=len(universe),
        )

    # ------------------------------------------------------------------
    # dependency extraction

    def _key(self, prefix: Prefix) -> str:
        key = self._key_text.get(prefix)
        if key is None:
            key = self._key_text[prefix] = str(prefix)
            self._prefix_obj[key] = prefix
        return key

    def _token(
        self, tokens: dict[int, bytes], position: int, clause: Clause
    ) -> bytes:
        """``_clause_token`` of one (position, clause), rendered once per call.

        Keyed on the clause's identity and its position folded into one
        int (ids fit in 64 bits): a clause shared between maps is one
        token wherever it sits at the same position.  Valid only while no
        map is edited, which holds within one :meth:`certify` call.
        """
        slot = id(clause) + (position << 64)
        token = tokens.get(slot)
        if token is None:
            prefix = clause.match.prefix
            text = "None" if prefix is None else self._key(prefix)
            token = tokens[slot] = _clause_token(position, clause, text)
        return token

    def _reset_indexes(self) -> None:
        self._prefix_obj.clear()
        self._key_text.clear()
        self._router_lp.clear()
        self._router_lp_global.clear()
        self._router_med.clear()
        self._lp_by_key.clear()
        self._med_by_key.clear()
        self._session_sig.clear()
        self._session_prefixes.clear()
        self._sessions_by_key.clear()
        self._router_sessions.clear()
        self._dirty_routers.clear()
        self._dirty_keys.clear()
        self._global_lp_changed = False

    def _refresh_router(
        self, router_id: int, router: Router | None
    ) -> set[str]:
        """Re-extract one router's digraph edges; returns changed keys."""
        old_lp = self._router_lp.pop(router_id, {})
        old_global = self._router_lp_global.pop(router_id, [])
        old_med = self._router_med.pop(router_id, {})
        new_lp: dict[str, list[PreferenceEdge]] = {}
        new_global: list[PreferenceEdge] = []
        new_med: dict[str, list[PreferenceEdge]] = {}
        if router is not None:
            for edge in _local_pref_edges(router):
                if edge.prefix is None:
                    new_global.append(edge)
                else:
                    new_lp.setdefault(self._key(edge.prefix), []).append(edge)
            for edge in _med_edges(router):
                if edge.prefix is not None:
                    new_med.setdefault(self._key(edge.prefix), []).append(edge)
            self._router_lp[router_id] = new_lp
            self._router_med[router_id] = new_med
            if new_global:
                self._router_lp_global[router_id] = new_global
        if old_global != new_global:
            self._global_lp_changed = True
        changed: set[str] = set()
        for old, new, index in (
            (old_lp, new_lp, self._lp_by_key),
            (old_med, new_med, self._med_by_key),
        ):
            for key in set(old) | set(new):
                if old.get(key) != new.get(key):
                    changed.add(key)
                if key in new:
                    index.setdefault(key, set()).add(router_id)
                else:
                    index.get(key, set()).discard(router_id)
        return changed

    def _refresh_router_sessions(
        self,
        network: Network,
        router_id: int,
        router: Router | None,
        seen_sessions: set[int],
        tokens: dict[int, bytes],
    ) -> tuple[set[str], bool]:
        """Re-index the maps of every session attached to one router."""
        changed: set[str] = set()
        generic_changed = False
        previous = self._router_sessions.get(router_id, set())
        current: set[int] = set()
        if router is not None:
            for session in list(router.sessions_in) + list(router.sessions_out):
                current.add(session.session_id)
                if session.session_id in seen_sessions:
                    continue
                seen_sessions.add(session.session_id)
                keys, sig_changed = self._refresh_session(session, tokens)
                changed |= keys
                generic_changed |= sig_changed
            self._router_sessions[router_id] = current
        else:
            self._router_sessions.pop(router_id, None)
        for session_id in previous - current:
            if session_id not in network.sessions:
                changed |= self._retire_session(session_id)
                generic_changed = True
        return changed, generic_changed

    def _refresh_session(
        self, session: Session, tokens: dict[int, bytes]
    ) -> tuple[set[str], bool]:
        """Re-scan one session's maps; returns (changed keys, sig changed)."""
        session_id = session.session_id
        old_keys = self._session_prefixes.get(session_id, {})
        old_sig = self._session_sig.get(session_id)
        key_parts: dict[str, list[bytes]] = {}
        digest = hashlib.sha256()
        digest.update(
            f"session {session_id} {session.src.router_id}"
            f" AS{session.src.asn} -> {session.dst.router_id}"
            f" AS{session.dst.asn}\n".encode()
        )
        for direction, route_map in (
            ("import", session.import_map),
            ("export", session.export_map),
        ):
            if route_map is None:
                continue
            digest.update(
                f"{direction} default {route_map.default_action.value}\n".encode()
            )
            label = direction.encode()
            for position, clause in route_map.entries():
                if clause.match.prefix is None:
                    digest.update(label)
                    digest.update(self._token(tokens, position, clause))
                else:
                    # Per-prefix clauses are kept per key: editing or
                    # removing one while *another* clause for the same
                    # prefix survives must still flag the key — a bare
                    # key-set diff would miss the content change.
                    parts = key_parts.setdefault(self._key(clause.match.prefix), [])
                    parts.append(label)
                    parts.append(self._token(tokens, position, clause))
        new_sig = digest.hexdigest()
        keys = {key: b"".join(parts) for key, parts in key_parts.items()}
        for key in old_keys.keys() - keys.keys():
            self._sessions_by_key.get(key, set()).discard(session_id)
        for key in keys.keys() - old_keys.keys():
            self._sessions_by_key.setdefault(key, set()).add(session_id)
        self._session_prefixes[session_id] = keys
        self._session_sig[session_id] = new_sig
        changed = {
            key
            for key in old_keys.keys() | keys.keys()
            if old_keys.get(key) != keys.get(key)
        }
        sig_changed = old_sig != new_sig
        if sig_changed:
            # Generic clauses shadow per-prefix ones: every key with a
            # clause in this session's maps may be affected.
            changed |= keys.keys() | old_keys.keys()
        return changed, sig_changed

    def _retire_session(self, session_id: int) -> set[str]:
        """Forget a session that no longer exists in the network."""
        keys = self._session_prefixes.pop(session_id, {})
        self._session_sig.pop(session_id, None)
        for key in keys:
            self._sessions_by_key.get(key, set()).discard(session_id)
        return set(keys)

    # ------------------------------------------------------------------
    # fingerprints and findings

    def _relationship_fingerprint(self) -> str:
        if self._rel_fingerprint is None:
            digest = hashlib.sha256()
            if self.relationships is not None:
                for asn_a, asn_b, relationship in sorted(
                    self.relationships.edges(),
                    key=lambda edge: (edge[0], edge[1]),
                ):
                    digest.update(
                        f"{asn_a}|{asn_b}|{relationship.name}\n".encode()
                    )
            self._rel_fingerprint = digest.hexdigest()
        return self._rel_fingerprint

    def _lp_edges_for(self, key: str) -> list[PreferenceEdge]:
        edges: list[PreferenceEdge] = []
        for router_id in sorted(self._lp_by_key.get(key, ())):
            edges.extend(self._router_lp[router_id][key])
        for router_id in sorted(self._router_lp_global):
            edges.extend(self._router_lp_global[router_id])
        return edges

    def _med_edges_for(self, key: str) -> list[PreferenceEdge]:
        edges: list[PreferenceEdge] = []
        for router_id in sorted(self._med_by_key.get(key, ())):
            edges.extend(self._router_med[router_id][key])
        return edges

    def _key_maps(
        self, network: Network, key: str
    ) -> list[tuple[Session, str, RouteMap]]:
        maps: list[tuple[Session, str, RouteMap]] = []
        for session_id in sorted(self._sessions_by_key.get(key, ())):
            session = network.sessions.get(session_id)
            if session is None:
                continue
            for direction, route_map in (
                ("import", session.import_map),
                ("export", session.export_map),
            ):
                if route_map is not None:
                    maps.append((session, direction, route_map))
        return maps

    def _fingerprint(
        self, network: Network, key: str, tokens: dict[int, bytes]
    ) -> str:
        digest = hashlib.sha256()
        if key == GLOBAL_KEY:
            digest.update(b"global\n")
            for session_id in sorted(self._session_sig):
                digest.update(
                    f"{session_id}:{self._session_sig[session_id]}\n".encode()
                )
            digest.update(self._relationship_fingerprint().encode())
            return digest.hexdigest()
        prefix = self._prefix_obj[key]
        digest.update(f"prefix {key}\n".encode())
        digest.update(b"local-pref\n")
        for edge in self._lp_edges_for(key):
            digest.update(
                _edge_token(edge, "None" if edge.prefix is None else key)
            )
        digest.update(b"med\n")
        for edge in self._med_edges_for(key):
            digest.update(_edge_token(edge, key))
        digest.update(b"maps\n")
        for session, direction, route_map in self._key_maps(network, key):
            digest.update(
                f"{session.session_id} {direction}"
                f" default {route_map.default_action.value}\n".encode()
            )
            for position, clause in route_map.resolve(prefix):
                digest.update(self._token(tokens, position, clause))
        return digest.hexdigest()

    def _lint(
        self, network: Network, keys: Collection[str]
    ) -> dict[str, list[Finding]]:
        """Lint every map ``keys``' certificates read, each map once.

        Returns the findings of each key that has any, in the order a
        per-key pass produces them: sessions by id, import before export,
        map position within a map.  The model-wide certificate reads
        every map's generic findings, a prefix certificate its own maps'
        findings naming the prefix.
        """
        if GLOBAL_KEY in keys:
            session_ids = sorted(self._session_sig)
        else:
            session_ids = sorted(
                {
                    session_id
                    for key in keys
                    for session_id in self._sessions_by_key.get(key, ())
                }
            )
        by_key: dict[str, list[Finding]] = {}
        for session_id in session_ids:
            session = network.sessions.get(session_id)
            if session is None:
                continue
            for direction, route_map in (
                ("import", session.import_map),
                ("export", session.export_map),
            ):
                if route_map is None:
                    continue
                for finding in lint_map(session, direction, route_map):
                    if finding.prefix is None:
                        key = GLOBAL_KEY
                    else:
                        key = self._key(finding.prefix)
                        if session_id not in self._sessions_by_key.get(key, ()):
                            continue
                    if key in keys:
                        by_key.setdefault(key, []).append(finding)
        return by_key

    def _compute(
        self, network: Network, key: str, lint: Iterable[Finding]
    ) -> list[Finding]:
        """A certificate's findings; ``lint`` is its share of :meth:`_lint`."""
        if key == GLOBAL_KEY:
            findings = list(lint)
            if self.relationships is not None:
                from repro.analysis.gaorexford import analyze_gao_rexford

                findings.extend(
                    analyze_gao_rexford(network, self.relationships)
                )
            return findings
        prefix = self._prefix_obj[key]
        findings = list(
            local_pref_findings_for_prefix(prefix, self._lp_edges_for(key))
        )
        findings.extend(
            med_findings_for_prefix(prefix, self._med_edges_for(key))
        )
        findings.extend(lint)
        return findings

    # ------------------------------------------------------------------
    # reporting and persistence

    def _ordered_keys(self) -> list[str]:
        prefixed = sorted(
            (k for k in self.certificates if k != GLOBAL_KEY), key=Prefix
        )
        if GLOBAL_KEY in self.certificates:
            prefixed.append(GLOBAL_KEY)
        return prefixed

    def report(self) -> AnalysisReport:
        """Assemble the certified findings into an :class:`AnalysisReport`.

        Deterministic: prefix certificates in prefix order, the
        model-wide certificate last.  Does not recompute anything — call
        :meth:`certify` first if the model changed.
        """
        result = AnalysisReport()
        result.passes = ["safety", "policy"]
        if self.relationships is not None:
            result.passes.append("gao")
        for key in self._ordered_keys():
            result.findings.extend(self.certificates[key].findings)
        return result

    def store_fingerprint(self) -> str:
        """Content hash over every certificate's (key, fingerprint) pair."""
        digest = hashlib.sha256()
        for key in self._ordered_keys():
            digest.update(
                f"{key}:{self.certificates[key].fingerprint}\n".encode()
            )
        return digest.hexdigest()

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable store document (sorted, deterministic)."""
        return {
            "format": STORE_FORMAT,
            "fingerprint": self.store_fingerprint(),
            "has_relationships": self.relationships is not None,
            "certificates": [
                self.certificates[key].to_dict()
                for key in self._ordered_keys()
            ],
        }

    @classmethod
    def from_dict(
        cls,
        document: dict[str, object],
        relationships: RelationshipMap | None = None,
    ) -> "CertificateStore":
        """Rebuild a store from :meth:`to_dict` output.

        The dependency indexes are not persisted; the loaded store is
        fully dirty, and the first :meth:`certify` call revalidates every
        certificate's fingerprint against the live model — matching
        fingerprints keep their findings without recomputation.
        """
        if document.get("format") != STORE_FORMAT:
            raise CertificateError(
                f"unsupported certificate-store format {document.get('format')!r}"
            )
        certificates = document.get("certificates")
        if not isinstance(certificates, list):
            raise CertificateError("certificate store carries no certificates")
        store = cls(relationships)
        try:
            for entry in certificates:
                if not isinstance(entry, dict):
                    raise TypeError("certificate entry must be an object")
                certificate = SafetyCertificate.from_dict(entry)
                store.certificates[certificate.key] = certificate
        except (KeyError, ValueError, TypeError) as exc:
            raise CertificateError(
                f"corrupt certificate entry: {exc}"
            ) from exc
        return store

    def save(self, path: str | Path) -> None:
        """Atomically persist the store as JSON."""
        write_state(path, STORE_FORMAT, self.to_dict())

    @classmethod
    def load(
        cls,
        path: str | Path,
        relationships: RelationshipMap | None = None,
    ) -> "CertificateStore":
        """Load a persisted store; raises :class:`CertificateError`."""
        document = read_state(path, STORE_FORMAT, CertificateError)
        return cls.from_dict(document, relationships)


def certify_network(
    network: Network, relationships: RelationshipMap | None = None
) -> CertificateStore:
    """Build a fresh store and certify ``network`` from scratch."""
    store = CertificateStore(relationships)
    store.certify(network)
    return store
