"""Tests for the campaign path-map diff and the shared diff helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.campaign import ScenarioDiff, diff_path_maps
from repro.diffutil import multiset_diff, truncate_ranked


def sorted_diff(baseline, current, exclude_origins=()) -> ScenarioDiff:
    """The reference: every pair's two path lists sorted, then compared."""
    counts = {"changed": [], "lost": [], "gained": []}
    added_total = removed_total = unchanged = 0
    for pair in sorted(set(baseline) | set(current)):
        if pair[0] in set(exclude_origins):
            continue
        before = sorted(baseline.get(pair, ()))
        after = sorted(current.get(pair, ()))
        added, removed, _ = multiset_diff(before, after)
        added_total += len(added)
        removed_total += len(removed)
        if before == after:
            unchanged += 1
        else:
            counts["lost" if not after else "gained" if not before else "changed"].append(pair)
    return ScenarioDiff(
        *(tuple(counts[kind]) for kind in ("changed", "lost", "gained")),
        added_total, removed_total, unchanged,
    )


PATH_MAPS = st.dictionaries(
    st.tuples(st.integers(1, 4), st.integers(10, 12)),
    st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3),
    max_size=8,
)


class TestMultisetDiff:
    def test_disjoint_sets(self):
        added, removed, unchanged = multiset_diff(["a", "b"], ["c"])
        assert added == ["c"]
        assert removed == ["a", "b"]
        assert unchanged == 0

    def test_multiset_pairing_counts_duplicates(self):
        # Two "a" in base, one in current: exactly one removal survives.
        added, removed, unchanged = multiset_diff(["a", "a"], ["a"])
        assert added == []
        assert removed == ["a"]
        assert unchanged == 1

    def test_key_function_pairs_unequal_objects(self):
        base = [(1, "x"), (2, "y")]
        current = [(1, "z"), (3, "w")]
        added, removed, unchanged = multiset_diff(
            base, current, key=lambda item: item[0]
        )
        assert added == [(3, "w")]
        assert removed == [(2, "y")]
        assert unchanged == 1

    def test_order_preserved(self):
        added, removed, _ = multiset_diff([3, 1, 2], [5, 4])
        assert added == [5, 4]  # current order
        assert removed == [3, 1, 2]  # base order


class TestTruncateRanked:
    def test_no_limit_returns_everything(self):
        lines = [f"line {i}" for i in range(5)]
        assert truncate_ranked(lines, None) == lines

    def test_limit_appends_omission_count(self):
        lines = [f"line {i}" for i in range(5)]
        out = truncate_ranked(lines, 2, "scenarios")
        assert out[:2] == lines[:2]
        assert out[2] == "... 3 more scenarios omitted"

    def test_limit_covering_everything_adds_nothing(self):
        lines = ["a", "b"]
        assert truncate_ranked(lines, 2) == lines


class TestDiffPathMaps:
    BASE = {
        (1, 10): (("10", "a"), ("10", "b")),
        (2, 10): (("10", "c"),),
        (3, 10): (("10", "d"),),
    }

    def test_identical_maps_diff_empty(self):
        diff = diff_path_maps(self.BASE, {k: set(v) for k, v in self.BASE.items()})
        assert diff.changed == ()
        assert diff.lost == ()
        assert diff.gained == ()
        assert diff.blast_radius == 0
        assert diff.diversity_delta == 0
        assert diff.unchanged_pairs == 3

    def test_lost_changed_gained_classified(self):
        current = {
            (1, 10): {("10", "a")},  # changed: one path dropped
            # (2, 10) gone entirely: lost
            (3, 10): {("10", "d")},  # unchanged
            (4, 10): {("10", "e")},  # gained
        }
        diff = diff_path_maps(self.BASE, current)
        assert diff.changed == ((1, 10),)
        assert diff.lost == ((2, 10),)
        assert diff.gained == ((4, 10),)
        assert diff.blast_radius == 3
        assert diff.paths_removed == 2  # one from (1,10), one from (2,10)
        assert diff.paths_added == 1
        assert diff.diversity_delta == -1

    def test_excluded_origins_never_reported(self):
        diff = diff_path_maps(self.BASE, {}, exclude_origins={1, 2, 3})
        assert diff.lost == ()
        assert diff.blast_radius == 0

    def test_to_dict_is_json_ready(self):
        diff = diff_path_maps(self.BASE, {})
        doc = diff.to_dict()
        assert doc["lost"] == [[1, 10], [2, 10], [3, 10]]
        assert doc["diversity_delta"] == -4
        assert isinstance(doc["blast_radius"], int)

    def test_deterministic_pair_order(self):
        current = {(pair): set() for pair in self.BASE}
        diff = diff_path_maps(self.BASE, current)
        assert diff.lost == tuple(sorted(self.BASE))

    @given(PATH_MAPS, PATH_MAPS, st.frozensets(st.integers(1, 4), max_size=2))
    def test_equals_sorting_every_pair(self, baseline, current, excluded):
        """Path sets are compared before anything is sorted; the answer is
        the one sorting both sides of every pair gives."""
        baseline = {pair: tuple(sorted(paths)) for pair, paths in baseline.items()}
        current = {pair: set(paths) for pair, paths in current.items()}
        assert diff_path_maps(baseline, current, excluded) == sorted_diff(
            baseline, current, excluded
        )

    def test_scenario_diff_is_frozen(self):
        diff = ScenarioDiff((), (), (), 0, 0, 0)
        assert diff.blast_radius == 0
