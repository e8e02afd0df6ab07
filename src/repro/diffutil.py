"""Shared multiset-diff and ranked-list truncation helpers.

Two subsystems render ranked result lists capped with an explicit "N
more ... omitted" tail: the static lint differ (:mod:`repro.analysis.diffing`,
``repro lint --diff``) and the scenario campaign report
(:mod:`repro.campaign`).  This module is the one implementation both
share, so the truncation rendering cannot drift apart.  The lint differ
pairs findings with :func:`multiset_diff`; the campaign differ compares
path *sets*, for which a set difference counts what it would.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def multiset_diff(
    base: Iterable[T],
    current: Iterable[T],
    key: Callable[[T], Hashable] | None = None,
) -> tuple[list[T], list[T], int]:
    """Diff two multisets into ``(added, removed, unchanged_count)``.

    ``key`` maps an item to its hashable identity (default: the item
    itself).  Occurrences pair up with multiset semantics: an identity
    appearing twice on one side and once on the other yields one
    unchanged pairing plus one added/removed entry.  ``added`` preserves
    the order of ``current`` and ``removed`` the order of ``base``, so
    callers control ranking by pre-sorting their inputs.
    """
    keyfn: Callable[[T], Hashable] = key if key is not None else lambda item: item
    base_items = list(base)
    current_items = list(current)
    remaining = Counter(keyfn(item) for item in base_items)
    added: list[T] = []
    unchanged = 0
    for item in current_items:
        identity = keyfn(item)
        if remaining.get(identity, 0) > 0:
            remaining[identity] -= 1
            unchanged += 1
        else:
            added.append(item)
    # Whatever could not be paired with a current-side occurrence is
    # removed; skip the paired occurrences in base order first.
    base_counts = Counter(keyfn(item) for item in base_items)
    matched = {
        identity: base_counts[identity] - remaining[identity]
        for identity in base_counts
    }
    consumed: Counter[Hashable] = Counter()
    removed: list[T] = []
    for item in base_items:
        identity = keyfn(item)
        if consumed[identity] < matched.get(identity, 0):
            consumed[identity] += 1
        else:
            removed.append(item)
    return added, removed, unchanged


def truncate_ranked(
    lines: Sequence[str], limit: int | None, noun: str = "findings"
) -> list[str]:
    """Cap an already-ranked list of rendered lines at ``limit`` entries.

    When entries are cut, the returned list ends with an explicit
    ``"... N more <noun> omitted"`` tail instead of silently truncating —
    a capped report must always say what it dropped.  ``limit=None``
    returns everything.
    """
    if limit is None or len(lines) <= limit:
        return list(lines)
    shown = list(lines[:limit])
    shown.append(f"... {len(lines) - limit} more {noun} omitted")
    return shown
