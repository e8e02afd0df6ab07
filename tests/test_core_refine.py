"""Tests for the iterative refinement heuristic (Section 4.6)."""

import pytest

from repro.core.build import build_initial_model
from repro.core.metrics import MatchKind, classify_route_match
from repro.core.refine import (
    FILTER_TAG,
    RANK_TAG,
    RefinementConfig,
    Refiner,
)
from repro.errors import RefinementError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


def refine(*paths, config=RefinementConfig(), extra_paths=()):
    """Build an initial model over paths+extra_paths, train on paths."""
    full = dataset_from_paths(*paths, *extra_paths)
    training = dataset_from_paths(*paths)
    model = build_initial_model(full)
    result = Refiner(model, training, config).run()
    return model, result


UNMATCHED_AFTER_ONE_ITERATION = [
    (10, (10000, 1003, 103, 10)), (13, (10000, 1003, 103, 13)),
    (100, (1001, 11, 10, 100)), (1000, (1001, 11, 103, 1000)),
    (1000, (1002, 11, 100, 1000)), (1001, (10000, 1003, 103, 11, 1001)),
    (1002, (10000, 1003, 103, 11, 1002)), (1006, (1002, 11, 100, 1006)),
    (1008, (1002, 11, 104, 1008)), (1009, (10, 11, 104, 1009)),
    (1009, (104, 11, 103, 1009)), (1009, (1001, 11, 103, 1009)),
    (1009, (1002, 11, 103, 1009)), (1009, (105, 10, 11, 104, 1009)),
    (10000, (1001, 11, 103, 1000, 10000)), (10000, (1002, 11, 100, 1000, 10000)),
    (10001, (104, 102, 101, 1004, 10001)), (10001, (1001, 11, 101, 1004, 10001)),
    (10001, (1002, 11, 101, 1004, 10001)),
    (10001, (10000, 1000, 100, 11, 1002, 10001)),
    (10001, (10000, 1003, 103, 11, 1002, 10001)),
    (10001, (10007, 1004, 101, 11, 1002, 10001)),
    (10002, (101, 10, 103, 10002)), (10002, (1001, 11, 103, 10002)),
    (10003, (1001, 11, 103, 1006, 10003)), (10003, (1002, 11, 100, 1006, 10003)),
    (10003, (10000, 1003, 102, 1005, 10003)),
    (10004, (1002, 11, 104, 1007, 10004)), (10005, (1002, 11, 100, 10005)),
    (10006, (104, 102, 101, 1004, 10006)), (10006, (1001, 11, 101, 1004, 10006)),
    (10006, (10000, 1000, 103, 1004, 10006)),
    (10007, (1002, 11, 104, 1005, 10007)), (10008, (1001, 11, 101, 1004, 10008)),
    (10008, (1002, 11, 100, 1000, 10008)), (10010, (1001, 11, 101, 1004, 10010)),
    (10010, (1002, 11, 100, 1000, 10010)), (10011, (1002, 11, 100, 10011)),
    (10013, (10, 102, 1005, 10013)), (10013, (101, 102, 1005, 10013)),
    (10013, (105, 101, 102, 1003, 10013)), (10013, (105, 101, 102, 1005, 10013)),
    (10013, (1002, 11, 104, 1005, 10013)), (10013, (10000, 1000, 102, 1005, 10013)),
]
"""``Refiner.unmatched_paths`` on the mini pipeline's seed-3 training half
after one iteration."""


class TestTrivialCases:
    def test_already_matching_model_converges_immediately(self):
        model, result = refine((1, 2, 3))
        assert result.converged
        assert result.iteration_count == 1
        assert result.iterations[0].policies_installed == 0
        assert len(model.network.routers) == 3

    def test_origin_only_path(self):
        model, result = refine((3,))
        assert result.converged

    def test_unknown_origin_rejected(self):
        model = build_initial_model(dataset_from_paths((1, 2)))
        bad_training = dataset_from_paths((1, 2, 9))
        with pytest.raises(RefinementError):
            Refiner(model, bad_training)


class TestTieBreakCorrection:
    """Figure 5(a)/(b): the observed path loses only the final tie-break."""

    def test_ranking_fixes_wrong_tie_break(self):
        # diamond 1-{2,3}-4; natural winner at AS1 is via AS2 (lower id);
        # training observes the AS3 branch instead.
        model, result = refine((1, 3, 4), extra_paths=((1, 2, 4),))
        assert result.converged
        assert classify_route_match(model, 1, (1, 3, 4)) is MatchKind.RIB_OUT
        # one quasi-router suffices
        assert len(model.quasi_routers(1)) == 1

    def test_rank_clauses_tagged(self):
        model, result = refine((1, 3, 4), extra_paths=((1, 2, 4),))
        router = model.quasi_routers(1)[0]
        tags = {
            clause.tag
            for session in router.sessions_in
            if session.import_map is not None
            for clause in session.import_map.clauses()
        }
        assert RANK_TAG in tags


class TestFilterInstallation:
    """The observed path is longer than the shortest available one."""

    def test_filter_makes_longer_path_win(self):
        # AS1 sees (1,2,4) naturally; training wants the longer (1,3,2,4).
        model, result = refine((1, 3, 2, 4), extra_paths=((1, 2, 4),))
        assert result.converged
        assert classify_route_match(model, 1, (1, 3, 2, 4)) is MatchKind.RIB_OUT

    def test_filter_clauses_tagged_and_scoped(self):
        model, result = refine((1, 3, 2, 4), extra_paths=((1, 2, 4),))
        prefix = model.canonical_prefix(4)
        filters = [
            clause
            for session in model.network.sessions.values()
            if session.export_map is not None
            for clause in session.export_map.clauses()
            if clause.tag == FILTER_TAG
        ]
        assert filters
        assert all(clause.match.prefix == prefix for clause in filters)


class TestDuplication:
    """Figure 5(c): two observed paths at one AS need two quasi-routers."""

    def test_two_paths_two_quasi_routers(self):
        model, result = refine((1, 2, 4), (1, 3, 4))
        assert result.converged
        assert len(model.quasi_routers(1)) == 2
        assert classify_route_match(model, 1, (1, 2, 4)) is MatchKind.RIB_OUT
        assert classify_route_match(model, 1, (1, 3, 4)) is MatchKind.RIB_OUT

    def test_shared_suffix_shares_quasi_router(self):
        # paths (5,3,2,1) and (6,3,2,1) need only ONE quasi-router at AS3
        model, result = refine((5, 3, 2, 1), (6, 3, 2, 1))
        assert result.converged
        assert len(model.quasi_routers(3)) == 1

    def test_clone_inherits_neighbors(self):
        model, result = refine((1, 2, 4), (1, 3, 4))
        clone = model.quasi_routers(1)[1]
        neighbor_asns = {s.src.asn for s in clone.sessions_in}
        assert neighbor_asns == {2, 3}

    def test_three_way_diversity(self):
        model, result = refine((1, 2, 5), (1, 3, 5), (1, 4, 5))
        assert result.converged
        assert len(model.quasi_routers(1)) == 3
        for branch in (2, 3, 4):
            assert (
                classify_route_match(model, 1, (1, branch, 5)) is MatchKind.RIB_OUT
            )


class TestSameNeighborAmbiguity:
    """Two same-length paths arrive from the *same* neighbour AS."""

    def test_per_router_ranking_separates_them(self):
        # AS1 observes (1,2,3,5) and (1,2,4,5): both via neighbour AS2.
        model, result = refine((1, 2, 3, 5), (1, 2, 4, 5))
        assert result.converged
        assert classify_route_match(model, 1, (1, 2, 3, 5)) is MatchKind.RIB_OUT
        assert classify_route_match(model, 1, (1, 2, 4, 5)) is MatchKind.RIB_OUT
        # AS2 needs two quasi-routers to propagate both
        assert len(model.quasi_routers(2)) == 2


class TestMechanismAblation:
    def test_no_duplication_cannot_match_diverse_paths(self):
        config = RefinementConfig(allow_duplication=False)
        model, result = refine((1, 2, 4), (1, 3, 4), config=config)
        assert not result.converged
        assert len(model.quasi_routers(1)) == 1

    def test_no_policies_cannot_fix_tie_break(self):
        config = RefinementConfig(allow_policies=False)
        model, result = refine((1, 3, 4), extra_paths=((1, 2, 4),), config=config)
        assert not result.converged

    def test_run_respects_max_iterations(self):
        config = RefinementConfig(max_iterations=1)
        model, result = refine((1, 3, 2, 4), extra_paths=((1, 2, 4),), config=config)
        assert result.iteration_count == 1


class TestEndToEnd:
    def test_training_reaches_exact_match_on_mini_internet(
        self, mini_pipeline
    ):
        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=3)
        model = build_initial_model(pruned.dataset, pruned.graph.copy())
        result = Refiner(model, training).run()
        assert result.converged, "training must match exactly (paper Section 5)"
        assert result.final_match_rate == 1.0

    def test_iterations_bounded_by_path_length_multiple(self, mini_pipeline):
        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=3)
        model = build_initial_model(pruned.dataset, pruned.graph.copy())
        result = Refiner(model, training).run()
        max_len = max(len(r.path) for r in training)
        assert result.iteration_count <= 4 * max_len

    def test_unmatched_paths_after_one_iteration_are_pinned(self, mini_pipeline):
        # The stall diagnostic reads the walk the refiner fixes paths by:
        # after one iteration it names exactly these training paths.
        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=3)
        model = build_initial_model(pruned.dataset, pruned.graph.copy())
        refiner = Refiner(model, training, RefinementConfig(max_iterations=1))
        assert not refiner.run().converged
        assert refiner.unmatched_paths() == UNMATCHED_AFTER_ONE_ITERATION

    def test_refined_model_satisfies_diversity_lower_bound(self, mini_pipeline):
        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=3)
        model = build_initial_model(pruned.dataset, pruned.graph.copy())
        result = Refiner(model, training).run()
        assert result.converged
        counts = model.quasi_router_counts()
        # Only ASes that must *propagate* k distinct suffixes need k routers;
        # check the bound for ASes appearing mid-path in training.
        for route in training:
            asns = route.path.asns
            for position in range(len(asns)):
                assert counts.get(asns[position], 1) >= 1


class TestFilterDeletion:
    """Figure 7: a filter installed for one path blocks a later, shorter
    suffix from propagating; the refiner must delete it and recover."""

    PATHS = ((2, 4, 8, 10, 9), (5, 2, 3, 7, 9))
    EXTRA = ((5, 2, 3, 6, 9),)
    # Topology (origin 9): 2-4-8-10-9, 2-3, 3-{6,7}, {6,7}-9, 5-2.
    # Iteration 1 fixes two spots: at AS2 the observed (4,8,10,9) is longer
    # than the available (3,6,9)/(3,7,9), installing deny[len<4] filters on
    # AS2's inbound sessions; and at AS3 the observed (7,9) loses the
    # tie-break against (6,9), so the second path's walk stops there.
    # By iteration 2 the suffix (3,7,9) is selected at AS3 but can no
    # longer *reach* AS2 — the len<4 filter blocks it.  That is Figure 7:
    # the filter set for the first path must be deleted for the second
    # path to propagate (a quasi-router duplication then serves both).

    def test_converges_with_filter_deletion(self):
        model, result = refine(*self.PATHS, extra_paths=self.EXTRA)
        assert result.converged
        deleted = sum(it.filters_deleted for it in result.iterations)
        assert deleted >= 1
        assert (
            classify_route_match(model, 2, (2, 4, 8, 10, 9)) is MatchKind.RIB_OUT
        )
        assert (
            classify_route_match(model, 5, (5, 2, 3, 7, 9)) is MatchKind.RIB_OUT
        )

    def test_without_deletion_cannot_converge(self):
        config = RefinementConfig(filter_deletion=False)
        model, result = refine(*self.PATHS, extra_paths=self.EXTRA, config=config)
        assert not result.converged
