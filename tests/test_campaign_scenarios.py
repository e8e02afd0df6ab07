"""Scenario generators and per-scenario semantics on a hand-built line.

The fixture model is the line AS1 - AS2 - AS3 - AS4 with known answers
for every campaign kind: cutting AS2-AS3 bisects the line, AS2 hijacking
AS4's prefix captures both of its neighbours, and a 2-site anycast on
the line's endpoints splits the interior observers evenly.
"""

import pickle

import pytest

from repro.campaign import (
    CatchmentScenario,
    EdgeFailureScenario,
    HijackScenario,
    context_from_artifact,
    generate_catchment,
    generate_depeer,
    generate_hijack,
    generate_link_failure,
)
from repro.core.build import build_initial_model
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.predict import collect_path_map, selected_paths
from repro.core.refine import Refiner
from repro.core.whatif import remove_adjacency
from repro.errors import TopologyError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.serve import compile_artifact
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def line_model():
    """The refined line AS1 - AS2 - AS3 - AS4, observed from both ends."""
    ds = PathDataset()
    paths = [(1, 2, 3, 4), (4, 3, 2, 1), (2, 3, 4), (3, 2, 1), (1, 2), (4, 3)]
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    model = build_initial_model(ds)
    Refiner(model, ds).run()
    return model


@pytest.fixture(scope="module")
def model():
    return line_model()


@pytest.fixture(scope="module")
def context(model):
    artifact, _ = compile_artifact(model)
    model.network.clear_routing()
    return context_from_artifact(artifact)


def run_scenario(model, scenario, context):
    """Execute one scenario exactly like the engine: on a fresh copy."""
    network = pickle.loads(pickle.dumps(model.network))
    return scenario.run(network, context, MODEL_DECISION_CONFIG, None)


class TestCollectPathMap:
    """One collector behind the compiler, the scenarios and ``whatif``."""

    @pytest.fixture()
    def bisected(self):
        """The line cut at AS2-AS3 and re-simulated: half the pairs are empty."""
        model = line_model()
        remove_adjacency(model, 2, 3)
        model.simulate_all()
        return model

    def test_equals_the_plain_double_loop(self, bisected):
        observers = [4, 1, 3]  # order given is order kept
        expected = {}
        for origin in sorted(bisected.prefix_by_origin):
            for observer in observers:
                selected = selected_paths(bisected, origin, observer)
                if selected:
                    expected[(origin, observer)] = selected
        collected = collect_path_map(bisected, observers)
        assert collected == expected
        assert list(collected) == list(expected)
        assert (4, 1) not in collected and (4, 3) in collected

    def test_absent_key_reads_as_the_empty_whatif_snapshot(self, bisected):
        observers = sorted(bisected.network.ases)
        collected = collect_path_map(bisected, observers)
        for origin in bisected.prefix_by_origin:
            for observer in observers:
                assert frozenset(collected.get((origin, observer), ())) == (
                    frozenset(selected_paths(bisected, origin, observer))
                )

    def test_skip_origins_are_left_out(self, bisected):
        everything = collect_path_map(bisected, [1, 4])
        collected = collect_path_map(bisected, [1, 4], skip_origins=iter([4, 2]))
        assert collected == {
            pair: paths
            for pair, paths in everything.items()
            if pair[0] not in (4, 2)
        }
        assert {origin for origin, _ in collected} == {1, 3}


class TestGenerators:
    def test_depeer_covers_every_adjacency(self, model):
        keys = [s.key for s in generate_depeer(model)]
        assert keys == [
            "depeer:AS1-AS2", "depeer:AS2-AS3", "depeer:AS3-AS4"
        ]

    def test_depeer_filter_restricts_to_incident_edges(self, model):
        keys = [s.key for s in generate_depeer(model, ases=[1])]
        assert keys == ["depeer:AS1-AS2"]

    def test_depeer_unknown_as_raises_naming_it(self, model):
        with pytest.raises(TopologyError, match="AS 64999"):
            generate_depeer(model, ases=[64999])

    def test_link_failure_targets_top_degree(self, model):
        # AS2 and AS3 both have degree 2; ties break toward lower ASN.
        scenarios = generate_link_failure(model, top_degree=1)
        assert [s.key for s in scenarios] == [
            "link-failure:AS1-AS2", "link-failure:AS2-AS3"
        ]

    def test_link_failure_seeds_override_degree(self, model):
        scenarios = generate_link_failure(model, seeds=[4])
        assert [s.key for s in scenarios] == ["link-failure:AS3-AS4"]

    def test_link_failure_unknown_seed_raises(self, model):
        with pytest.raises(TopologyError, match="AS 64999"):
            generate_link_failure(model, seeds=[64999])

    def test_hijack_defaults_to_every_other_as(self, model):
        scenarios = generate_hijack(model, victim=4)
        assert [s.attacker for s in scenarios] == [1, 2, 3]
        assert scenarios[0].key == "hijack:AS1->AS4"

    def test_hijack_unknown_victim_raises(self, model):
        with pytest.raises(TopologyError):
            generate_hijack(model, victim=64999)

    def test_hijack_victim_cannot_attack_itself(self, model):
        with pytest.raises(TopologyError, match="victim"):
            generate_hijack(model, victim=4, attackers=[4])

    def test_catchment_base_plus_one_failure_per_site(self, model):
        keys = [s.key for s in generate_catchment(model, [1, 4])]
        assert keys == [
            "catchment:base", "catchment:fail-AS1", "catchment:fail-AS4"
        ]

    def test_catchment_needs_two_sites(self, model):
        with pytest.raises(TopologyError, match="2 distinct"):
            generate_catchment(model, [1, 1])

    def test_scenarios_are_picklable(self, model):
        for scenario in (
            *generate_depeer(model),
            *generate_hijack(model, victim=4),
            *generate_catchment(model, [1, 4]),
        ):
            assert pickle.loads(pickle.dumps(scenario)) == scenario


class TestEdgeFailure:
    def test_bisecting_edge_has_largest_blast(self, model, context):
        result = run_scenario(
            model, EdgeFailureScenario(2, 3), context
        )
        # Cutting AS2-AS3 severs all 8 cross-partition pairs.
        assert result["blast_radius"] == 8
        assert len(result["diff"]["lost"]) == 8
        assert result["diff"]["gained"] == []
        assert result["removed_sessions"] >= 1
        assert result["degraded"] == []

    def test_leaf_edge_loses_only_leaf_pairs(self, model, context):
        result = run_scenario(
            model, EdgeFailureScenario(1, 2), context
        )
        lost = {tuple(pair) for pair in result["diff"]["lost"]}
        # AS1 loses everyone and everyone loses AS1: 3 + 3 pairs.
        assert lost == {
            (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1)
        }

    def test_unknown_adjacency_raises_before_simulation(self, model, context):
        with pytest.raises(TopologyError):
            run_scenario(model, EdgeFailureScenario(1, 4), context)


class TestHijack:
    def test_known_capture_answer(self, model, context):
        # AS2 re-originates AS4's prefix: its neighbours AS1 and AS3
        # both prefer the shorter hijacked route.
        result = run_scenario(model, HijackScenario(4, 2), context)
        assert result["captured"] == [1, 3]
        assert result["partial"] == []
        assert result["blackholed"] == []
        assert result["capture_fraction"] == 1.0
        assert result["blast_radius"] == 2

    def test_distant_attacker_captures_less(self, model, context):
        result = run_scenario(model, HijackScenario(4, 1), context)
        assert result["captured"] == [2]
        assert result["capture_fraction"] == 0.5
        assert result["blast_radius"] == 1

    def test_unknown_attacker_raises(self, model, context):
        with pytest.raises(TopologyError, match="AS 64999"):
            run_scenario(model, HijackScenario(4, 64999), context)


class TestCatchment:
    def test_base_attraction_splits_the_line(self, model, context):
        result = run_scenario(
            model, CatchmentScenario((1, 4), None), context
        )
        assert result["attraction"] == {"2": [1], "3": [4]}
        assert result["blast_radius"] == 0

    def test_site_failure_shifts_its_catchment(self, model, context):
        result = run_scenario(
            model, CatchmentScenario((1, 4), 1), context
        )
        assert result["shifted"] == [2]
        assert result["attraction"] == {"2": [4], "3": [4]}
        assert result["blast_radius"] == 1

    def test_unknown_site_raises(self, model, context):
        with pytest.raises(TopologyError, match="AS 64999"):
            run_scenario(
                model, CatchmentScenario((1, 64999), None), context
            )


class TestModelRoundTrip:
    def test_scenario_model_rebuild_matches_origin_encoding(self, model):
        # Workers rebuild the model from the pickled network; the
        # canonical origin decoding must survive the round trip.
        network = pickle.loads(pickle.dumps(model.network))
        rebuilt = ASRoutingModel.from_network(network)
        assert set(rebuilt.prefix_by_origin) == set(model.prefix_by_origin)
