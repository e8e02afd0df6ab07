"""Tests for prediction and what-if analysis."""

import pickle

import pytest

from repro.core.build import build_initial_model
from repro.core.model import ASRoutingModel
from repro.core.predict import (
    ON_COLD_SIMULATE,
    collect_path_map,
    evaluate_model,
    origin_is_simulated,
    predict_for_origins,
    predict_paths,
    selected_paths,
    simulate_for_dataset,
)
from repro.core.refine import Refiner
from repro.core.whatif import (
    depeer,
    remove_adjacency,
    simulate_link_failure,
    validate_session_endpoints,
)
from repro.errors import ModelError, TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.test_campaign_scenarios import disagree_gadget, engine_counts, seeded_world

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


@pytest.fixture
def refined_diamond():
    ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
    model = build_initial_model(ds)
    Refiner(model, ds).run()
    return model, ds


class TestPredictPaths:
    def test_returns_full_paths(self, refined_diamond):
        model, _ = refined_diamond
        paths = predict_paths(model, 4, 1, resimulate=True)
        assert paths == {(1, 2, 4), (1, 3, 4)}

    def test_single_router_single_path(self, refined_diamond):
        model, _ = refined_diamond
        paths = predict_paths(model, 4, 2, resimulate=True)
        assert paths == {(2, 4)}

    def test_origin_predicts_itself(self, refined_diamond):
        model, _ = refined_diamond
        assert predict_paths(model, 4, 4, resimulate=True) == {(4,)}

    def test_predict_for_origins_skips_unknown(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_all()
        result = predict_for_origins(model, [4, 999], 1)
        assert set(result) == {4}

    def test_predict_for_origins_strict_names_unknown(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_all()
        with pytest.raises(TopologyError, match="999"):
            predict_for_origins(model, [4, 999], 1, strict=True)

    def test_predict_for_origins_rejects_unknown_observer(
        self, refined_diamond
    ):
        model, _ = refined_diamond
        with pytest.raises(ModelError, match="999"):
            predict_for_origins(model, [4], 999)


class TestColdState:
    """predict_paths on a never-simulated origin must not lie."""

    def test_cold_origin_raises_naming_the_origin(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)  # built, never simulated
        assert not origin_is_simulated(model, 4)
        with pytest.raises(ModelError, match="AS 4"):
            predict_paths(model, 4, 1)

    def test_cold_origin_can_simulate_on_demand(self):
        ds = dataset_from_paths((1, 2, 4))
        model = build_initial_model(ds)
        assert not origin_is_simulated(model, 4)
        paths = predict_paths(model, 4, 1, on_cold=ON_COLD_SIMULATE)
        assert paths == {(1, 2, 4)}
        assert origin_is_simulated(model, 4)

    def test_warm_origin_answers_without_resimulating(self, refined_diamond):
        model, _ = refined_diamond
        assert origin_is_simulated(model, 4)
        assert predict_paths(model, 4, 1) == {(1, 2, 4), (1, 3, 4)}

    def test_resimulate_overrides_cold_check(self):
        ds = dataset_from_paths((1, 2, 4))
        model = build_initial_model(ds)
        assert predict_paths(model, 4, 1, resimulate=True) == {(1, 2, 4)}

    def test_unknown_origin_is_a_topology_error(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError, match="999"):
            predict_paths(model, 999, 1)

    def test_unknown_observer_is_a_model_error(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(ModelError, match="999"):
            predict_paths(model, 4, 999, resimulate=True)

    def test_selected_paths_matches_predict(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_all()
        assert selected_paths(model, 4, 1) == predict_paths(model, 4, 1)


class TestEvaluateModel:
    def test_evaluates_after_resimulation(self, refined_diamond):
        model, ds = refined_diamond
        report = evaluate_model(model, ds)
        assert report.rib_out_rate == 1.0

    def test_skips_origins_not_in_model(self, refined_diamond):
        model, _ = refined_diamond
        foreign = dataset_from_paths((1, 2, 4))
        foreign.add(ObservedRoute("x", 1, P, ASPath((1, 999))))
        report = evaluate_model(model, foreign)
        assert report.total == 1  # the (1, 999) case was excluded

    def test_simulate_for_dataset_counts(self, refined_diamond):
        model, ds = refined_diamond
        assert simulate_for_dataset(model, ds) == 1  # one origin (AS4)


class TestWhatIf:
    def test_depeer_removes_sessions_and_edge(self, refined_diamond):
        model, _ = refined_diamond
        report = depeer(model, 2, 4, origins=[4], observers=[1, 2, 3])
        assert not model.graph.has_edge(2, 4)
        assert all(
            session.dst.asn != 4 or session.src.asn != 2
            for session in model.network.sessions.values()
        )
        assert "AS2-AS4" in report.description

    def test_depeer_reroutes_observer(self, refined_diamond):
        model, _ = refined_diamond
        report = depeer(model, 2, 4, origins=[4], observers=[1, 2])
        changed_pairs = {(c.observer_asn, c.origin_asn) for c in report.changes}
        assert (2, 4) in changed_pairs  # AS2 must now go via 1 or 3
        after = predict_paths(model, 4, 2)
        assert after and all(path[1] != 4 for path in after)

    def test_unreachable_detection(self):
        # line 1-2-3: removing 2-3 cuts AS1 and AS2 off from AS3
        ds = dataset_from_paths((1, 2, 3))
        model = build_initial_model(ds)
        model.simulate_all()
        report = depeer(model, 2, 3, origins=[3], observers=[1, 2])
        assert report.unreachable_pairs == 2

    def test_unknown_edge_rejected(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError):
            depeer(model, 2, 3)

    def test_multi_edge_failure(self, refined_diamond):
        model, _ = refined_diamond
        report = simulate_link_failure(
            model, [(2, 4), (3, 4)], origins=[4], observers=[1]
        )
        assert report.unreachable_pairs == 1

    def test_no_change_for_unrelated_link(self):
        ds = dataset_from_paths((1, 2, 4), (5, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)
        model.simulate_all()
        report = depeer(model, 1, 3, origins=[4], observers=[5])
        assert report.affected_pairs == 0


def two_pass_changes(network, as_edges):
    """The plain recipe: simulate all, cut, simulate all again, compare."""
    model = ASRoutingModel.from_network(network)
    observers, origins = sorted(network.ases), sorted(model.prefix_by_origin)
    model.simulate_all()
    before = collect_path_map(model, observers)
    for asn_a, asn_b in as_edges:
        remove_adjacency(model, asn_a, asn_b)
    model.simulate_all()
    after = collect_path_map(model, observers)
    return [
        (observer, origin, frozenset(before.get(pair, ())), frozenset(after.get(pair, ())))
        for observer in observers
        for origin in origins
        for pair in [(origin, observer)]
        if before.get(pair) != after.get(pair)
    ]


class TestWhatIfResumes:
    """The "after" pass resumes from the "before" pass's RIBs, where it may."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_worlds_equal_the_two_pass_answer(self, seed):
        world = seeded_world(seed)
        edges = sorted(world.model.graph.edges())
        origins = len(world.model.prefix_by_origin)
        for as_edges in ([edges[0]], [edges[3]], [edges[-1]], [edges[1], edges[-2]]):
            report, simulated, resumed = engine_counts(
                simulate_link_failure,
                ASRoutingModel.from_network(pickle.loads(world.blob)),
                as_edges,
            )
            assert (simulated, resumed) == (origins, origins)
            assert [
                (c.observer_asn, c.origin_asn, c.before, c.after) for c in report.changes
            ] == two_pass_changes(pickle.loads(world.blob), as_edges)
            assert report.changes

    def test_a_model_with_several_stable_states_is_simulated_twice(self):
        report, simulated, resumed = engine_counts(
            simulate_link_failure,
            ASRoutingModel.from_network(disagree_gadget()),
            [(1, 2)],
        )
        assert (simulated, resumed) == (2, 0)
        assert [
            (c.observer_asn, c.origin_asn, c.before, c.after) for c in report.changes
        ] == two_pass_changes(disagree_gadget(), [(1, 2)])
        assert {c.observer_asn for c in report.changes} == {2, 3}


class TestUpFrontValidation:
    """Both endpoints are validated before any simulation is spent."""

    def _counting(self, model):
        calls = []
        original = model.simulate_origin

        def wrapper(origin, *args, **kwargs):
            calls.append(origin)
            return original(origin, *args, **kwargs)

        model.simulate_origin = wrapper
        return calls

    def test_unknown_asn_raises_before_simulating(self, refined_diamond):
        model, _ = refined_diamond
        calls = self._counting(model)
        with pytest.raises(TopologyError, match="AS 64999"):
            simulate_link_failure(model, [(2, 64999)])
        assert calls == []

    def test_both_endpoints_checked(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError, match="AS 64998"):
            simulate_link_failure(model, [(64998, 2)])

    def test_missing_adjacency_raises_before_simulating(
        self, refined_diamond
    ):
        model, _ = refined_diamond
        calls = self._counting(model)
        with pytest.raises(TopologyError, match="no adjacency"):
            simulate_link_failure(model, [(2, 3)])
        assert calls == []

    def test_validator_accepts_real_adjacency(self, refined_diamond):
        model, _ = refined_diamond
        validate_session_endpoints(model, [(2, 4), (3, 4)])

    def test_later_bad_edge_still_blocks_everything(self, refined_diamond):
        # One good edge followed by a bad one: nothing may simulate.
        model, _ = refined_diamond
        calls = self._counting(model)
        with pytest.raises(TopologyError, match="AS 64999"):
            simulate_link_failure(model, [(2, 4), (64999, 4)])
        assert calls == []
