"""Sanitization passes over parsed dump records.

The hardened parser (:mod:`repro.data.dumps`) guarantees a record is
*well-formed*; these passes decide whether it is *credible*.  Each pass
either repairs the record in place (prepend collapse — counted, never
silent) or quarantines it under a typed reason:

* ``path-loop`` — the AS-path revisits an AS non-consecutively.  Real
  feeds contain these (leaked iBGP state, misconfigured aggregation);
  the paper's preprocessing drops them.
* ``bogon-asn`` — a reserved/private ASN on the path or as the peer,
  including AS_TRANS 23456 (a 2-byte speaker's placeholder for a 4-byte
  neighbour, not a real topology node).
* ``martian-prefix`` — the prefix lies in reserved/private address
  space and cannot legitimately appear in a public table.

Every drop is attributed; ``sanitize_route`` returns either a clean
route or a :class:`~repro.data.quality.Rejection`, never ``None``/``None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.quality import (
    BOGON_ASN,
    MARTIAN_PREFIX,
    PATH_LOOP,
    Rejection,
    is_bogon_asn,
    is_martian_prefix,
)
from repro.topology.dataset import ObservedRoute

PREPEND_COLLAPSE = "prepend-collapse"
"""Modification counter key: consecutive duplicate ASNs were collapsed."""


@dataclass(frozen=True)
class SanitizeConfig:
    """Which of the optional sanitization passes run (both by default).

    Prepend collapse and the path-loop drop always run.
    ``drop_bogon_asns`` / ``drop_martian_prefixes`` should be disabled
    for synthetic round-trip data, whose ASNs and prefixes are drawn
    from compact ranges that overlap reserved space by construction.
    """

    drop_bogon_asns: bool = True
    drop_martian_prefixes: bool = True

    @classmethod
    def for_synthetic(cls) -> "SanitizeConfig":
        """Passes appropriate for synthetic dumps (no bogon/martian drops)."""
        return cls(drop_bogon_asns=False, drop_martian_prefixes=False)


@dataclass(frozen=True)
class SanitizeOutcome:
    """One route's fate: the (possibly repaired) route or a rejection."""

    route: ObservedRoute | None
    rejection: Rejection | None = None
    prepends_collapsed: int = 0


def sanitize_route(
    route: ObservedRoute,
    line_number: int = 0,
    config: SanitizeConfig | None = None,
) -> SanitizeOutcome:
    """Run the sanitization passes over one parsed route.

    Pass order matters: prepend collapse runs first so a prepended loop
    (``1 2 2 1``) is judged on its real shape, and the bogon check sees
    each ASN once.
    """
    config = config or SanitizeConfig()
    raw = str(route.path)[:64]
    path = route.path.without_prepending()
    collapsed = len(route.path) - len(path)
    if path.has_loop():
        return SanitizeOutcome(
            None,
            Rejection(
                PATH_LOOP, line_number, detail=f"path {raw!r}", line=raw
            ),
        )
    if config.drop_bogon_asns:
        bogon = next((asn for asn in path if is_bogon_asn(asn)), None)
        if bogon is None and is_bogon_asn(route.observer_asn):
            bogon = route.observer_asn
        if bogon is not None:
            return SanitizeOutcome(
                None,
                Rejection(
                    BOGON_ASN,
                    line_number,
                    detail=f"AS {bogon} in path {raw!r}",
                    line=raw,
                ),
            )
    if config.drop_martian_prefixes and is_martian_prefix(route.prefix):
        return SanitizeOutcome(
            None,
            Rejection(
                MARTIAN_PREFIX,
                line_number,
                detail=f"prefix {route.prefix}",
                line=raw,
            ),
        )
    if collapsed:
        route = ObservedRoute(
            route.point_id, route.observer_asn, route.prefix, path
        )
    return SanitizeOutcome(route, prepends_collapsed=collapsed)
