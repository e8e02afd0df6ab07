"""Tests for prediction and what-if analysis."""

import pickle

import pytest

from repro.campaign import (
    EdgeFailureScenario,
    context_from_artifact,
    run_campaign,
    whatif,
)
from repro.campaign.scenarios import crossing_origins, validate_session_endpoints
from repro.core.build import build_initial_model
from repro.core.model import ASRoutingModel
from repro.core.predict import (
    evaluate_model,
    origin_is_simulated,
    predict_paths,
    selected_paths,
    simulate_for_dataset,
)
from repro.core.refine import Refiner
from repro.errors import ModelError, TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, prefix_for_asn
from repro.serve import compile_artifact
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.oracle import (
    depeered_world,
    disagree_gadget,
    engine_counts,
    seeded_world,
    two_pass_changes,
    whatif_changes,
)

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
        model.simulate_origin(4)
        paths = predict_paths(model, 4, 1)
        assert paths == {(1, 2, 4), (1, 3, 4)}

    def test_single_router_single_path(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_origin(4)
        paths = predict_paths(model, 4, 2)
        assert paths == {(2, 4)}

    def test_origin_predicts_itself(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_origin(4)
        assert predict_paths(model, 4, 4) == {(4,)}


class TestColdState:
    """predict_paths on a never-simulated origin must not lie."""

    def test_cold_origin_raises_naming_the_origin(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)  # built, never simulated
        assert not origin_is_simulated(model, 4)
        with pytest.raises(ModelError, match="AS 4"):
            predict_paths(model, 4, 1)

    def test_warm_origin_answers_without_resimulating(self, refined_diamond):
        model, _ = refined_diamond
        assert origin_is_simulated(model, 4)
        assert predict_paths(model, 4, 1) == {(1, 2, 4), (1, 3, 4)}

    def test_unknown_origin_is_a_topology_error(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError, match="999"):
            predict_paths(model, 999, 1)

    def test_unknown_observer_is_a_model_error(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_origin(4)
        with pytest.raises(ModelError, match="999"):
            predict_paths(model, 4, 999)

    def test_selected_paths_matches_predict(self, refined_diamond):
        model, _ = refined_diamond
        model.simulate_all()
        prefix = model.canonical_prefix(4)
        assert selected_paths(model.network, prefix, 1) == predict_paths(model, 4, 1)


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


def pairs(answer):
    """The ``(observer, origin)`` pairs a what-if answer names."""
    return [(observer, origin) for observer, origin, _, _ in answer.changes]


class TestWhatIf:
    def test_depeer_removes_sessions_and_edge(self, refined_diamond):
        model, _ = refined_diamond
        sessions = list(model.network.sessions)
        answer = whatif(model, 2, 4)
        assert answer.outcome["removed_sessions"] == 1
        assert answer.render().startswith("what-if: removed AS2-AS4 (1 sessions)")
        # Removed for the scenario only: the model comes back as it was.
        assert (2, 4) in model.network.as_adjacencies()
        assert list(model.network.sessions) == sessions

    def test_depeer_reroutes_observer(self, refined_diamond):
        model, _ = refined_diamond
        answer = whatif(model, 2, 4)
        after = {(obs, origin): now for obs, origin, _, now in answer.changes}
        assert (2, 4) in after  # AS2 must now go via 1 or 3
        assert after[(2, 4)] and all(path[1] != 4 for path in after[(2, 4)])

    def test_unreachable_detection(self):
        # line 1-2-3: removing 2-3 cuts AS1 and AS2 off from AS3, both ways
        ds = dataset_from_paths((1, 2, 3))
        model = build_initial_model(ds)
        answer = whatif(model, 2, 3)
        lost = [(obs, origin) for obs, origin, _, after in answer.changes if not after]
        assert lost == [(1, 3), (2, 3), (3, 1), (3, 2)]
        assert "lost reachability:  4" in answer.render()

    def test_unknown_edge_rejected(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError):
            whatif(model, 2, 3)

    def test_no_change_for_unrelated_link(self):
        ds = dataset_from_paths((1, 2, 4), (5, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)
        answer = whatif(model, 1, 3)
        assert answer.changes
        assert (5, 4) not in pairs(answer)


class TestWhatIfResumes:
    """The "after" pass resumes from the compile's RIBs, where it may, and
    answers what the from-scratch recipe of ``tests/oracle`` answers."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_worlds_equal_the_two_pass_answer(self, seed):
        """Each adjacency's answer is ``depeered_world``'s: the same pairs
        with the baseline's and the from-scratch after sets, the same diff."""
        world = seeded_world(seed)
        origins = len(world.model.prefix_by_origin)
        for asn_a, asn_b in sorted(world.model.network.as_adjacencies()):
            answer, simulated, resumed = engine_counts(
                whatif,
                ASRoutingModel.from_network(pickle.loads(world.blob)), asn_a, asn_b,
            )
            crossing = crossing_origins(world.context, asn_a, asn_b)
            assert (simulated, resumed) == (origins, len(crossing))
            oracle = depeered_world(seed, asn_a, asn_b)
            assert list(answer.changes) == whatif_changes(
                world.context.baseline_paths, oracle.after
            )
            assert answer.outcome["diff"] == oracle.diff.to_dict()

    def test_a_model_with_several_stable_states_is_simulated_twice(self):
        answer, simulated, resumed = engine_counts(
            whatif, ASRoutingModel.from_network(disagree_gadget()), 1, 2
        )
        assert (simulated, resumed) == (2, 0)
        assert list(answer.changes) == two_pass_changes(
            disagree_gadget(), {1: prefix_for_asn(1)}, 1, 2
        )
        assert {observer for observer, *_ in answer.changes} == {2, 3}
        model = ASRoutingModel.from_network(disagree_gadget())
        context = context_from_artifact(compile_artifact(model)[0])
        report = run_campaign(model, "depeer", [EdgeFailureScenario(1, 2)], context)
        (outcome,) = report.outcomes
        assert outcome.key == answer.outcome["key"]
        assert outcome.detail["diff"] == answer.outcome["diff"]


class TestUpFrontValidation:
    """Both endpoints are validated before any simulation is spent."""

    @staticmethod
    def refused(model, asn_a, asn_b, message):
        """How many prefixes ``whatif`` simulated before refusing."""

        def call():
            with pytest.raises(TopologyError, match=message):
                whatif(model, asn_a, asn_b)

        return engine_counts(call)[1]

    def test_unknown_asn_raises_before_simulating(self, refined_diamond):
        model, _ = refined_diamond
        assert self.refused(model, 2, 64999, "AS 64999") == 0

    def test_both_endpoints_checked(self, refined_diamond):
        model, _ = refined_diamond
        with pytest.raises(TopologyError, match="AS 64998"):
            whatif(model, 64998, 2)

    def test_missing_adjacency_raises_before_simulating(
        self, refined_diamond
    ):
        model, _ = refined_diamond
        assert self.refused(model, 2, 3, "no adjacency") == 0

    def test_validator_accepts_real_adjacency(self, refined_diamond):
        model, _ = refined_diamond
        validate_session_endpoints(model.network, [(2, 4), (3, 4)])

    def test_later_bad_edge_still_blocks_everything(self, refined_diamond):
        # One good edge followed by a bad one: the whole list is refused.
        model, _ = refined_diamond
        with pytest.raises(TopologyError, match="AS 64999"):
            validate_session_endpoints(model.network, [(2, 4), (64999, 4)])
