"""The compiled prediction artifact: an immutable, checksummed answer set.

An artifact is the read path's unit of deployment: everything a query
engine needs to answer ``paths`` / ``diversity`` / ``lookup`` questions
about one refined model, compiled once and served forever.  The file
layout is deliberately boring and self-verifying::

    REPRO-ARTIFACT\\n                      magic (rejects arbitrary files)
    {"schema": 1, "payload_bytes": N,
     "payload_sha256": "...", ...}\\n      one ASCII JSON header line
    <N bytes of zlib-compressed JSON>      the payload

The header is read *before* the payload, so schema mismatches and
truncation are detected without decompressing anything, and the SHA-256
checksum makes bit rot a loud :class:`~repro.errors.ArtifactError`
instead of a quietly wrong answer.  Writes go through
:func:`repro.runstate.atomic_write` like every other state file, so a
crash mid-write can never leave a half-written artifact behind.

The payload stores, for every (origin ASN, observer ASN) pair with at
least one selected route, the full AS-path set the refined model
predicts, plus the canonical-prefix table that seeds the per-observer
longest-prefix-match tries (:class:`~repro.net.trie.PrefixTrie`), the
run-metadata stamp of the compilation, and the prefixes the compiler had
to quarantine (their origins answer with an explicit error, never an
empty set).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ArtifactError
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.runstate import atomic_write

MAGIC = b"REPRO-ARTIFACT\n"
"""First bytes of every artifact file."""

SCHEMA_VERSION = 1
"""Bump on any payload layout change; readers reject everything else."""

PathSet = tuple[tuple[int, ...], ...]
"""The sorted, deduplicated AS-path tuples of one (origin, observer) pair."""


@dataclass(frozen=True)
class PredictionArtifact:
    """In-memory form of one compiled artifact (read-only by convention).

    ``paths`` maps ``(origin_asn, observer_asn)`` to the sorted tuple of
    predicted AS-paths; pairs with no selected route are absent (an empty
    answer for a *known* pair is a real "unreachable", distinguishable
    from an unknown ASN via ``origins`` / ``observers``).
    """

    origins: dict[int, Prefix]
    """Origin ASN -> canonical prefix, for every origin with answers."""

    observers: tuple[int, ...]
    """Sorted ASNs the artifact holds answers for (every modelled AS)."""

    paths: dict[tuple[int, int], PathSet]
    """(origin, observer) -> sorted predicted AS-path tuples."""

    quarantined: tuple[str, ...] = ()
    """Canonical prefixes (as strings) the compiler could not answer for
    (diverged / poison / timeout); their origins refuse queries."""

    meta: dict = field(default_factory=dict)
    """Run-metadata stamp of the compilation (git sha, python, argv...)."""

    model_stats: dict = field(default_factory=dict)
    """Size summary of the source model (ases, routers, clauses...)."""

    certificates: dict = field(default_factory=dict)
    """The compile-time safety-certificate store
    (:meth:`repro.analysis.certify.CertificateStore.to_dict`), embedded so
    ``repro lint --diff`` can statically diff two artifacts' findings
    without either source model.  Empty when compilation skipped
    certification; readers must tolerate absence."""

    checksum: str = ""
    """SHA-256 of the compressed payload, as recorded in the file header.

    Set by :meth:`load` (verified against the bytes read) and by
    :meth:`save` (computed while writing); empty for an in-memory
    artifact that has never touched disk.  The serving layer surfaces it
    through ``/healthz`` so operators can tell *which* artifact version a
    hot-swapped server is answering from."""

    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def pair_count(self) -> int:
        """Number of (origin, observer) pairs with at least one path."""
        return len(self.paths)

    def quarantined_origins(self) -> set[int]:
        """Origins whose canonical prefix was quarantined at compile time."""
        by_prefix = {str(prefix): asn for asn, prefix in self.origins.items()}
        return {
            by_prefix[text] for text in self.quarantined if text in by_prefix
        }

    def origin_trie(self) -> PrefixTrie[int]:
        """Longest-prefix-match table over *all* canonical prefixes.

        Maps any address to the origin AS whose canonical prefix covers
        it — the global table; per-observer tables come from
        :meth:`observer_trie`.
        """
        return PrefixTrie.from_items(
            (prefix, asn) for asn, prefix in self.origins.items()
        )

    def observer_trie(self, observer_asn: int) -> PrefixTrie[tuple[int, PathSet]]:
        """The per-observer forwarding view: prefix -> (origin, paths).

        Contains only prefixes the observer has at least one predicted
        path for, so a longest-prefix-match hit answers the query in one
        trie walk, and a miss means "this observer cannot reach the
        covering origin" (the engine then consults :meth:`origin_trie`
        to tell unreachable apart from unknown).
        """
        return PrefixTrie.from_items(
            (self.origins[origin], (origin, path_set))
            for (origin, obs), path_set in self.paths.items()
            if obs == observer_asn
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """The JSON payload document (deterministic given the contents)."""
        paths: dict[str, dict[str, list[list[int]]]] = {}
        for (origin, observer), path_set in sorted(self.paths.items()):
            paths.setdefault(str(origin), {})[str(observer)] = [
                list(path) for path in path_set
            ]
        document = {
            "meta": self.meta,
            "model": self.model_stats,
            "observers": list(self.observers),
            "origins": {
                str(asn): str(prefix)
                for asn, prefix in sorted(self.origins.items())
            },
            "paths": paths,
            "quarantined": sorted(self.quarantined),
        }
        if self.certificates:
            document["certificates"] = self.certificates
        return document

    def save(self, path: str | Path) -> int:
        """Write the artifact file atomically; returns bytes written."""
        payload = zlib.compress(
            json.dumps(self.to_payload(), sort_keys=True).encode("ascii"),
            level=6,
        )
        header = {
            "schema": self.schema,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "pairs": self.pair_count,
            "origins": len(self.origins),
            "observers": len(self.observers),
        }
        if self.certificates:
            header["certificates"] = _certificate_summary(self.certificates)
        blob = MAGIC + json.dumps(header, sort_keys=True).encode("ascii") \
            + b"\n" + payload
        atomic_write(path, blob)
        object.__setattr__(self, "checksum", header["payload_sha256"])
        return len(blob)

    @classmethod
    def load(cls, path: str | Path) -> "PredictionArtifact":
        """Read and verify an artifact file.

        Raises :class:`~repro.errors.ArtifactError` naming the problem for
        anything that is not a bit-exact, schema-compatible artifact.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError as error:
            raise ArtifactError(f"cannot read artifact {path}: {error}") from error
        if not blob.startswith(MAGIC):
            raise ArtifactError(
                f"{path} is not a prediction artifact (bad magic); "
                "compile one with 'repro compile-artifact'"
            )
        rest = blob[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline < 0:
            raise ArtifactError(f"{path} is truncated inside the header")
        try:
            header = json.loads(rest[:newline].decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ArtifactError(
                f"{path} has a corrupt header: {error}"
            ) from error
        if not isinstance(header, dict):
            raise ArtifactError(
                f"{path} has a corrupt header: expected a JSON object, "
                f"found {type(header).__name__}"
            )
        schema = header.get("schema")
        if schema != SCHEMA_VERSION:
            raise ArtifactError(
                f"{path} uses artifact schema {schema!r}, this build reads "
                f"schema {SCHEMA_VERSION}; recompile the artifact with "
                "'repro compile-artifact'"
            )
        payload = rest[newline + 1:]
        expected = header.get("payload_bytes")
        if not isinstance(expected, int) or len(payload) != expected:
            raise ArtifactError(
                f"{path} is truncated: header promises {expected!r} payload "
                f"bytes, file carries {len(payload)}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise ArtifactError(
                f"{path} failed its checksum (expected "
                f"{header.get('payload_sha256')!r}, got {digest!r}); the "
                "file is corrupt — recompile the artifact"
            )
        try:
            document = json.loads(zlib.decompress(payload).decode("ascii"))
        except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ArtifactError(
                f"{path} has an undecodable payload despite a valid "
                f"checksum: {error}"
            ) from error
        artifact = cls.from_payload(document)
        object.__setattr__(artifact, "checksum", digest)
        return artifact

    @classmethod
    def from_payload(cls, document: Mapping) -> "PredictionArtifact":
        """Rebuild the in-memory artifact from its payload document."""
        try:
            origins = {
                int(asn): Prefix(text)
                for asn, text in (document.get("origins") or {}).items()
            }
            observers = tuple(
                sorted(int(asn) for asn in document.get("observers") or ())
            )
            paths: dict[tuple[int, int], PathSet] = {}
            for origin_text, per_observer in (document.get("paths") or {}).items():
                origin = int(origin_text)
                for observer_text, path_lists in per_observer.items():
                    paths[(origin, int(observer_text))] = tuple(
                        sorted(tuple(int(hop) for hop in path) for path in path_lists)
                    )
            return cls(
                origins=origins,
                observers=observers,
                paths=paths,
                quarantined=tuple(document.get("quarantined") or ()),
                meta=dict(document.get("meta") or {}),
                model_stats=dict(document.get("model") or {}),
                certificates=dict(document.get("certificates") or {}),
            )
        except (TypeError, ValueError, AttributeError) as error:
            raise ArtifactError(
                f"artifact payload is malformed: {error}"
            ) from error


def _certificate_summary(certificates: Mapping) -> dict:
    """Header-line digest of an embedded certificate store.

    Computed from the store's serialised form alone, so the artifact
    layer never imports :mod:`repro.analysis` — the header stays
    readable (``pairs``, ``findings``, store fingerprint) without
    decompressing the payload.
    """
    entries = certificates.get("certificates") or ()
    findings = sum(
        len(entry.get("findings") or ())
        for entry in entries
        if isinstance(entry, Mapping)
    )
    return {
        "count": len(entries),
        "findings": findings,
        "fingerprint": str(certificates.get("fingerprint", "")),
    }


def build_artifact(
    origins: Mapping[int, Prefix],
    observers: Iterable[int],
    paths: Mapping[tuple[int, int], Iterable[tuple[int, ...]]],
    quarantined: Iterable[Prefix | str] = (),
    meta: dict | None = None,
    model_stats: dict | None = None,
    certificates: dict | None = None,
) -> PredictionArtifact:
    """Normalise raw compiler output into a :class:`PredictionArtifact`.

    Path sets are sorted and deduplicated, empty sets dropped, observers
    sorted — the canonical form :meth:`PredictionArtifact.save` then
    serialises deterministically.
    """
    canonical_paths = {
        pair: tuple(sorted(set(map(tuple, path_set))))
        for pair, path_set in paths.items()
        if path_set
    }
    return PredictionArtifact(
        origins=dict(origins),
        observers=tuple(sorted(set(observers))),
        paths=canonical_paths,
        quarantined=tuple(sorted(str(p) for p in quarantined)),
        meta=dict(meta or {}),
        model_stats=dict(model_stats or {}),
        certificates=dict(certificates or {}),
    )
