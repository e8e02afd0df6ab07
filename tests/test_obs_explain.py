"""Tests for decision provenance (repro.obs.explain / ``repro explain``)."""

import pickle

import pytest

from repro.bgp.decision import run_decision, step_name
from repro.core.build import build_initial_model
from repro.core.metrics import unique_cases
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.refine import FILTER_TAG, RANK_TAG, RefinementConfig, Refiner
from repro.errors import TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs.explain import explain_prefix
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.oracle import seeded_world

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


@pytest.fixture(scope="module")
def refined():
    """A refined diamond: training observes the tie-losing AS3 branch."""
    full = dataset_from_paths((1, 3, 4), (1, 2, 4))
    training = dataset_from_paths((1, 3, 4))
    model = build_initial_model(full)
    result = Refiner(model, training, RefinementConfig()).run()
    assert result.converged
    return model, training


class TestExplainPrefix:
    def test_unknown_prefix_raises(self, refined):
        model, _ = refined
        with pytest.raises(TopologyError):
            explain_prefix(model, Prefix("203.0.113.0/24"))

    def test_replay_summary(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        assert explanation.origin == 4
        assert explanation.observer == 1
        assert explanation.status == "converged"
        assert explanation.messages > 0
        assert explanation.decisions > 0

    def test_walk_reaches_the_origin(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        assert explanation.hops[0].asn == 1
        assert explanation.hops[-1].asn == 4
        assert explanation.hops[-1].originates

    def test_every_hop_names_a_decisive_step(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        for hop in explanation.hops:
            assert hop.best_path is not None
            assert hop.decisive_step not in ("", "no-route")

    def test_winner_marked_and_losers_attributed(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        observer_hop = explanation.hops[0]
        winners = [c for c in observer_hop.candidates if c.eliminated_by is None]
        assert len(winners) == 1
        assert winners[0].as_path == observer_hop.best_path
        assert all(
            c.eliminated_by for c in observer_hop.candidates if c is not winners[0]
        )

    def test_refined_policies_carry_installing_iteration(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        refined_clauses = [
            policy
            for hop in explanation.hops
            for policy in hop.policies
            if policy.tag in (RANK_TAG, FILTER_TAG)
        ]
        assert refined_clauses
        assert all(policy.iteration is not None for policy in refined_clauses)
        assert all(policy.iteration >= 1 for policy in refined_clauses)

    def test_every_training_pair_is_explained(self, refined):
        """Acceptance: winning step + installing iteration for every
        training (prefix, observer) pair."""
        model, training = refined
        for observer_asn, path in unique_cases(training):
            prefix = model.canonical_prefix(path[-1])
            explanation = explain_prefix(model, prefix, observer_asn=observer_asn)
            assert explanation.hops, (observer_asn, path)
            observer_hop = explanation.hops[0]
            # the converged model matches training, so the winning path at
            # the observer is the observed one and has a named step
            assert observer_hop.best_path == path[1:]
            assert observer_hop.decisive_step != "no-route"
            consulted = [
                policy for hop in explanation.hops for policy in hop.policies
            ]
            assert all(
                policy.iteration is not None
                for policy in consulted
                if policy.tag in (RANK_TAG, FILTER_TAG)
            )

    def test_flat_mode_without_observer(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix)
        explained_ases = {hop.asn for hop in explanation.hops}
        assert explained_ases == {1, 2, 3, 4}

    def test_render_and_to_dict(self, refined):
        model, _ = refined
        prefix = model.canonical_prefix(4)
        explanation = explain_prefix(model, prefix, observer_asn=1)
        text = explanation.render()
        assert "explain" in text
        assert "selected by step" in text
        document = explanation.to_dict()
        assert document["replay"]["status"] == "converged"
        assert document["hops"][0]["asn"] == 1


class TestReadingAgainstTheReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_hop_reads_as_run_decision_decides(self, seed):
        network = pickle.loads(seeded_world(seed).blob)
        model = ASRoutingModel.from_network(network)
        routers = {router.name: router for router in network.routers.values()}
        steps = set()
        for _, prefix in sorted(model.prefix_by_origin.items()):
            for observer in (None, min(network.ases), max(network.ases)):
                for hop in explain_prefix(model, prefix, observer).hops:
                    candidates = routers[hop.router].candidates(prefix)
                    outcome = run_decision(candidates, MODEL_DECISION_CONFIG)
                    assert [view.eliminated_by for view in hop.candidates] == [
                        None if step is None else step_name(step)
                        for step in map(outcome.elimination_step, candidates)
                    ], (prefix, hop.router)
                    if len(candidates) > 1:
                        assert hop.decisive_step == step_name(outcome.decisive_step)
                        steps.add(hop.decisive_step)
                    elif candidates:
                        assert hop.decisive_step == "only-candidate"
                    assert hop.best_path == (
                        None if outcome.best is None else outcome.best.as_path
                    )
        assert {"path-length", "router-id"} <= steps
