"""Diff a perturbed scenario's path map against the baseline artifact.

A campaign scenario re-simulates a perturbed copy of the model and
collects the same ``(origin, observer) -> path set`` map the serve
compiler freezes into a :class:`~repro.serve.artifact.PredictionArtifact`.
This module compares that map against the baseline's: which pairs
*changed* their path set, which *lost* all reachability, which *gained*
paths that did not exist before, and how much total path diversity the
perturbation destroyed or created (the "Unexploited Path Diversity"
angle: a failure's real cost is how many distinct paths it removes, not
just whether reachability survives).

Both maps hold path *sets*, so path-level accounting is a set
difference: what :func:`repro.diffutil.multiset_diff`, the pairing the
static lint differ uses, counts for inputs without duplicates, so "N
paths removed" means the same thing in a campaign report and a lint diff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

Pair = tuple[int, int]
"""An ``(origin ASN, observer ASN)`` answer pair."""


@dataclass(frozen=True)
class ScenarioDiff:
    """How one scenario's answers differ from the baseline's.

    ``changed`` pairs answer with a different non-empty path set,
    ``lost`` pairs had baseline paths but none now, ``gained`` pairs
    have paths the baseline lacked entirely.  ``paths_removed`` /
    ``paths_added`` count individual AS-paths across all compared pairs
    (multiset semantics), so ``diversity_delta`` is the net change in
    the model's total path diversity.
    """

    changed: tuple[Pair, ...] = ()
    lost: tuple[Pair, ...] = ()
    gained: tuple[Pair, ...] = ()
    paths_added: int = 0
    paths_removed: int = 0
    unchanged_pairs: int = 0

    @property
    def blast_radius(self) -> int:
        """Number of (origin, observer) pairs the scenario touched at all."""
        return len(self.changed) + len(self.lost) + len(self.gained)

    @property
    def diversity_delta(self) -> int:
        """Net AS-path count change (negative: diversity destroyed)."""
        return self.paths_added - self.paths_removed

    def to_dict(self) -> dict:
        """JSON-serialisable diff (deterministic given the contents)."""
        return {
            "changed": [list(pair) for pair in self.changed],
            "lost": [list(pair) for pair in self.lost],
            "gained": [list(pair) for pair in self.gained],
            "paths_added": self.paths_added,
            "paths_removed": self.paths_removed,
            "unchanged_pairs": self.unchanged_pairs,
            "blast_radius": self.blast_radius,
            "diversity_delta": self.diversity_delta,
        }


def diff_path_maps(
    baseline: Mapping[Pair, Iterable[tuple[int, ...]]],
    current: Mapping[Pair, Iterable[tuple[int, ...]]],
    exclude_origins: Iterable[int] = (),
) -> ScenarioDiff:
    """Compare two ``(origin, observer) -> path set`` maps.

    ``exclude_origins`` names origins whose answers are untrustworthy on
    either side (quarantined at compile time, or degraded by this
    scenario's re-simulation); their pairs are ignored entirely rather
    than reported as spurious losses.  Nothing but the pairs is sorted.
    """
    excluded = set(exclude_origins)
    pairs = sorted(set(baseline) | set(current))
    changed: list[Pair] = []
    lost: list[Pair] = []
    gained: list[Pair] = []
    paths_added = 0
    paths_removed = 0
    unchanged_pairs = 0
    for pair in pairs:
        if pair[0] in excluded:
            continue
        before = set(baseline.get(pair, ()))
        after = set(current.get(pair, ()))
        if before == after:
            unchanged_pairs += 1
            continue
        paths_added += len(after - before)
        paths_removed += len(before - after)
        if not after:
            lost.append(pair)
        elif not before:
            gained.append(pair)
        else:
            changed.append(pair)
    return ScenarioDiff(
        changed=tuple(changed),
        lost=tuple(lost),
        gained=tuple(gained),
        paths_added=paths_added,
        paths_removed=paths_removed,
        unchanged_pairs=unchanged_pairs,
    )
