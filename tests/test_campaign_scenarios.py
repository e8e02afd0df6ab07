"""Scenario generators and per-scenario semantics on a hand-built line.

The fixture model is the line AS1 - AS2 - AS3 - AS4 with known answers
for every campaign kind: cutting AS2-AS3 bisects the line, AS2 hijacking
AS4's prefix captures both of its neighbours, and a 2-site anycast on
the line's endpoints splits the interior observers evenly.

The crossing-origin depeer and the lent network — a pool worker's copy
or, in a sequential campaign, the model's own; cold, or holding origins
converged ahead for the scenarios to resume from — are judged against the
plain engine on seeded refined worlds: a fresh unpickle, the adjacency
removed, every prefix simulated from scratch.
"""

import dataclasses
import pickle
from dataclasses import dataclass

import pytest

from repro.bgp import Network, simulate
from repro.bgp.engine import POISON
from repro.bgp.policy import Clause, Match
from repro.campaign import (
    CatchmentScenario,
    EdgeFailureScenario,
    HijackScenario,
    context_from_artifact,
    generate_catchment,
    generate_depeer,
    generate_hijack,
    generate_link_failure,
    plan_campaign,
    run_campaign,
    whatif,
)
from repro.campaign.diffing import diff_path_maps
from repro.campaign.scenarios import KIND_LINK_FAILURE, crossing_origins, remove_adjacency
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.core.predict import collect_path_map, selected_paths
from repro.errors import TopologyError
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.parallel import ParallelConfig
from repro.parallel.protocol import dump_network
from repro.parallel.worker import WorkingCopy
from repro.serve import PredictionArtifact, compile_artifact
from tests.oracle import (
    depeered_world,
    disagree_gadget,
    engine_counts,
    from_scratch,
    line_model,
    seeded_world,
    structure,
)


@pytest.fixture(scope="module")
def model():
    return line_model()


@pytest.fixture(scope="module")
def context(model):
    artifact, _ = compile_artifact(model)
    model.network.clear_routing()
    return plan_campaign(model, [], context_from_artifact(artifact))


def run_scenario(model, scenario, context):
    """Execute one scenario on a fresh copy of the model's network."""
    network = pickle.loads(pickle.dumps(model.network))
    return scenario.run(network, context, MODEL_DECISION_CONFIG, None)


def engine_prefixes(scenario, network, context, config=MODEL_DECISION_CONFIG):
    """``scenario.run``'s result and how many prefixes it simulated."""
    return engine_counts(scenario.run, network, context, config, None)[:2]


class TestCollectPathMap:
    """One collector behind the compiler, the scenarios and ``whatif``."""

    @pytest.fixture()
    def bisected(self):
        """The line cut at AS2-AS3 and re-simulated: half the pairs are empty."""
        model = line_model()
        remove_adjacency(model.network, 2, 3)
        model.simulate_all()
        return model

    def test_equals_the_plain_double_loop(self, bisected):
        observers = [4, 1, 3]  # order given is order kept
        expected = {}
        for origin, prefix in sorted(bisected.prefix_by_origin.items()):
            for observer in observers:
                selected = selected_paths(bisected.network, prefix, observer)
                if selected:
                    expected[(origin, observer)] = selected
        collected = collect_path_map(
            bisected.network, bisected.prefix_by_origin, observers
        )
        assert collected == expected
        assert list(collected) == list(expected)
        assert (4, 1) not in collected and (4, 3) in collected

    def test_absent_key_reads_as_the_empty_whatif_snapshot(self, bisected):
        observers = sorted(bisected.network.ases)
        collected = collect_path_map(
            bisected.network, bisected.prefix_by_origin, observers
        )
        for origin, prefix in bisected.prefix_by_origin.items():
            for observer in observers:
                assert frozenset(collected.get((origin, observer), ())) == (
                    frozenset(selected_paths(bisected.network, prefix, observer))
                )

    def test_skip_origins_are_left_out(self, bisected):
        network, origins = bisected.network, bisected.prefix_by_origin
        everything = collect_path_map(network, origins, [1, 4])
        collected = collect_path_map(network, origins, [1, 4], skip_origins=iter([4, 2]))
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


class TestCrossingOrigins:
    """Depeer re-simulates only origins whose selected paths cross the edge."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_adjacency_equals_the_from_scratch_recipe(self, seed):
        """... whether the copy is cold (every crossing origin simulated) or
        holds every origin converged ahead (every crossing origin resumed).
        What the plan names is what is resumed: state the copy merely holds
        is simulated over."""
        world = seeded_world(seed)
        copy = WorkingCopy(world.blob)
        every = tuple(world.model.prefix_by_origin.values())
        warm = WorkingCopy(world.blob, every, MODEL_DECISION_CONFIG)
        warm.network()
        planned = dataclasses.replace(world.context, converged_ahead=every)
        origins = len(world.model.prefix_by_origin)
        simulated = []
        for scenario in generate_depeer(world.model):
            with copy.perturbed() as network:
                outcome, count = engine_prefixes(scenario, network, world.context)
            simulated.append(count)
            for context, counts in ((planned, (0, count)), (world.context, (count, 0))):
                with warm.perturbed() as network:
                    assert engine_counts(
                        scenario.run, network, context, MODEL_DECISION_CONFIG, None
                    ) == (outcome, *counts)
            oracle = depeered_world(seed, scenario.asn_a, scenario.asn_b)
            assert outcome == {
                "kind": "depeer",
                "key": scenario.key,
                "params": {"asn_a": scenario.asn_a, "asn_b": scenario.asn_b},
                "removed_sessions": oracle.removed,
                "degraded": [],
                "diff": oracle.diff.to_dict(),
                "blast_radius": oracle.diff.blast_radius,
            }
        # The saving is real: most adjacencies carry a minority of origins.
        assert sum(simulated) < 0.7 * origins * len(simulated)
        assert min(simulated) < origins / 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_settled_pairs_are_counted_not_copied(self, seed):
        """The diff of crossing pairs alone, settled pairs counted unchanged,
        equals the whole-map diff: every origin's answers collected, the
        settled ones copied in from the baseline, every pair compared."""
        world = seeded_world(seed)
        every = tuple(world.model.prefix_by_origin.values())
        warm = WorkingCopy(world.blob, every, MODEL_DECISION_CONFIG)
        context = dataclasses.replace(world.context, converged_ahead=every)
        for scenario in generate_depeer(world.model):
            with warm.perturbed() as network:
                outcome = scenario.run(network, context, MODEL_DECISION_CONFIG, None)
                settled = context.origins.keys() - crossing_origins(
                    context, scenario.asn_a, scenario.asn_b
                )
                degraded = {
                    origin for origin, prefix in context.origins.items()
                    if str(prefix) in outcome["degraded"]
                }
                current = collect_path_map(
                    network, context.origins, context.observers,
                    skip_origins=degraded | settled,
                )
            for pair, paths in context.baseline_paths.items():
                if pair[0] in settled:
                    current[pair] = set(paths)
            whole = diff_path_maps(
                context.baseline_paths, current, context.excluded | degraded
            )
            assert outcome["diff"] == whole.to_dict(), scenario.key
            assert whole.unchanged_pairs >= sum(
                pair[0] in settled for pair in context.baseline_paths
            )

    def test_crossing_set_is_read_off_the_baseline_paths(self, model, context):
        # On the line, AS1's prefix reaches AS3 and AS4 over AS2-AS3 and
        # so does everyone else's: every origin crosses the middle edge.
        assert crossing_origins(context, 2, 3) == {
            1, 2, 3, 4
        }
        # Excluded (quarantined-at-compile) origins always cross.
        narrowed = dataclasses.replace(context, excluded=frozenset({4}))
        assert 4 in crossing_origins(narrowed, 1, 2)

    @pytest.mark.parametrize("breach", [
        "local-pref", "ibgp", "med-not-always-compared", "end-not-observed",
    ])
    def test_every_origin_crosses_when_a_precondition_fails(
        self, breach, monkeypatch
    ):
        """Same code, full set: asserted through the engine's own counter.
        The plan made for the breached model is what says so."""
        world = seeded_world(1)
        scenario = min(
            generate_depeer(world.model),
            key=lambda s: len(crossing_origins(world.context, s.asn_a, s.asn_b)),
        )
        origins = len(world.model.prefix_by_origin)
        network = pickle.loads(world.blob)
        context, config = world.context, MODEL_DECISION_CONFIG
        if breach == "local-pref":
            session = next(iter(network.sessions.values()))
            session.ensure_import_map().append(
                Clause(Match(prefix=Prefix("192.0.2.0/24")), set_local_pref=120)
            )
        elif breach == "ibgp":
            network.connect(
                network.add_router(scenario.asn_a),
                network.as_routers(scenario.asn_a)[0],
            )
        elif breach == "med-not-always-compared":
            config = dataclasses.replace(config, med_always_compare=False)
            monkeypatch.setattr(
                "repro.campaign.engine.MODEL_DECISION_CONFIG", config
            )
        else:
            context = dataclasses.replace(context, observers=tuple(
                asn for asn in context.observers if asn != scenario.asn_b
            ))
        context = plan_campaign(ASRoutingModel.from_network(network), [], context)
        assert context.unique_state == (breach == "end-not-observed")

        _, few = engine_prefixes(scenario, pickle.loads(world.blob), world.context)
        _, every = engine_prefixes(scenario, network, context, config)
        assert few < origins / 4 and every == origins

    def test_disagree_gadget_has_two_stable_states(self):
        """Why local-pref trips the guard: only a full re-simulation
        reports what the engine would answer on :func:`disagree_gadget`."""
        network = disagree_gadget()
        model = ASRoutingModel.from_network(network)
        artifact, _ = compile_artifact(model)
        context = context_from_artifact(artifact)
        network.clear_routing()

        assert context.baseline_paths[(1, 2)] == ((2, 4, 5, 1),)
        assert context.baseline_paths[(1, 3)] == ((3, 2, 4, 5, 1),)
        assert crossing_origins(context, 1, 2) == {1}
        result = run_scenario(model, EdgeFailureScenario(1, 2), context)
        _, oracle = from_scratch(dump_network(network), context, 1, 2)
        assert result["diff"] == oracle.to_dict()
        assert result["diff"]["changed"] == [[1, 2], [1, 3]]

        # The other stable state, reached by the same engine: cut AS1-AS2
        # first and both ends of the pair flip.
        cut = pickle.loads(dump_network(network))
        remove_adjacency(cut, 1, 2)
        simulate(cut, config=MODEL_DECISION_CONFIG)
        prefix = context.origins[1]
        assert selected_paths(cut, prefix, 2) == {(2, 3, 5, 1)}
        assert selected_paths(cut, prefix, 3) == {(3, 5, 1)}


class TestConvergeOnceResume:
    """``run_campaign`` converges ahead what two scenarios name, where it may."""

    def planned(self, world, scenarios):
        """(named by two or more, named by exactly one) of ``scenarios``."""
        names = [
            scenario.perturbed_origins(world.context)
            for scenario in scenarios
            if not isinstance(scenario, CatchmentScenario)
        ]
        once = {o for o in set().union(*names) if sum(o in n for n in names) == 1}
        return set().union(*names) - once, once

    def test_an_origin_is_converged_ahead_when_two_scenarios_name_it(self):
        world = seeded_world(1)
        origins = sorted(world.model.prefix_by_origin)
        depeers = generate_depeer(world.model)
        scenarios = [
            depeers[0], depeers[1], depeers[5],
            *generate_hijack(world.model, origins[0], attackers=origins[1:3]),
            HijackScenario(origins[3], origins[4]),
            *generate_catchment(world.model, origins[:2]),
        ]
        twice, once = self.planned(world, scenarios)
        assert origins[0] in twice and twice - {origins[0]} and once
        report, simulated, resumed = engine_counts(
            run_campaign, world.model, "mixed", scenarios, world.context
        )
        assert report.meta["origins_converged_ahead"] == len(twice)
        named = sum(
            len(s.perturbed_origins(world.context))
            for s in scenarios
            if not isinstance(s, CatchmentScenario)
        )
        assert resumed == named - len(once)
        # One convergence per origin named twice, one simulation per origin
        # named once; catchment: one for the base, in the plan, and one per
        # failed site.
        assert simulated == len(twice) + len(once) + 1 + 2
        assert not world.model.network._touched  # the model's own network: never

    def test_a_campaign_of_one_scenario_converges_nothing_ahead(self):
        """... and simulates exactly what it did before there was a plan."""
        world = seeded_world(1)
        scenario = generate_depeer(world.model)[3]
        crossing = scenario.perturbed_origins(world.context)
        report, simulated, resumed = engine_counts(
            run_campaign, world.model, "depeer", [scenario], world.context
        )
        assert report.meta["origins_converged_ahead"] == 0
        assert (simulated, resumed) == (len(crossing), 0)
        assert 0 < len(crossing) < len(world.model.prefix_by_origin)

    def test_a_campaign_that_names_no_origin_is_not_planned(self, monkeypatch):
        """Catchment scenarios read no part of the plan but their base
        catchment, so the walk over every route-map clause is not made for
        them."""
        world = seeded_world(1)
        scenarios = generate_catchment(
            world.model, sorted(world.model.prefix_by_origin)[:3]
        )
        alone = {
            scenario.key: run_scenario(world.model, scenario, world.context)
            for scenario in scenarios
        }
        planned = run_campaign(world.model, "catchment", scenarios, world.context)

        def walked(*args):
            raise AssertionError("stable_state_is_unique was evaluated")

        monkeypatch.setattr("repro.campaign.engine.stable_state_is_unique", walked)
        with pytest.raises(AssertionError, match="was evaluated"):
            run_campaign(
                world.model, "mixed",
                [*scenarios, generate_depeer(world.model)[0]], world.context,
            )
        report, simulated, resumed = engine_counts(
            run_campaign, world.model, "catchment", scenarios, world.context
        )
        assert {o.key: o.detail for o in report.outcomes} == alone
        assert report.to_dict(include_meta=False) == planned.to_dict(
            include_meta=False
        )
        assert report.meta["origins_converged_ahead"] == 0
        assert (simulated, resumed) == (1 + 3, 0)  # the base once, each failure

    def test_a_fully_resumed_campaign_is_not_planned(self, monkeypatch, tmp_path):
        """Nor is a campaign with nothing left to run."""
        world = seeded_world(1)
        scenarios = generate_depeer(world.model)[:2]
        path = tmp_path / "ck.json"
        full = run_campaign(
            world.model, "depeer", scenarios, world.context, checkpoint=path
        )
        monkeypatch.setattr(
            "repro.campaign.engine.stable_state_is_unique",
            lambda *args: pytest.fail("stable_state_is_unique was evaluated"),
        )
        resumed = run_campaign(
            world.model, "depeer", scenarios, world.context,
            checkpoint=path, resume=True,
        )
        assert resumed.meta["resumed"] == 2
        assert resumed.to_dict(include_meta=False) == full.to_dict(
            include_meta=False
        )

    @pytest.mark.parametrize("breach", [
        "local-pref", "ibgp", "med-not-always-compared", "disagree-gadget",
    ])
    def test_a_model_with_several_stable_states_is_never_resumed(
        self, breach, monkeypatch
    ):
        """Every origin is named by every depeer, and still nothing is held:
        each scenario simulates every origin from scratch, as the recipe does."""
        config = MODEL_DECISION_CONFIG
        if breach == "disagree-gadget":
            network = disagree_gadget()
            artifact, _ = compile_artifact(ASRoutingModel.from_network(network))
            network.clear_routing()
            context = context_from_artifact(artifact)
        else:
            network = pickle.loads(seeded_world(1).blob)
            context = seeded_world(1).context
        if breach == "local-pref":
            next(iter(network.sessions.values())).ensure_import_map().append(
                Clause(Match(prefix=Prefix("192.0.2.0/24")), set_local_pref=120)
            )
        elif breach == "ibgp":
            asn = min(network.ases)
            network.connect(network.add_router(asn), network.as_routers(asn)[0])
        elif breach == "med-not-always-compared":
            config = dataclasses.replace(config, med_always_compare=False)
            monkeypatch.setattr(
                "repro.campaign.engine.MODEL_DECISION_CONFIG", config
            )
        model = ASRoutingModel.from_network(network)
        scenarios = generate_depeer(model)[:3]
        report, simulated, resumed = engine_counts(
            run_campaign, model, "depeer", scenarios, context
        )
        assert report.meta["origins_converged_ahead"] == 0
        assert (simulated, resumed) == (3 * len(model.prefix_by_origin), 0)
        blob = dump_network(network)
        details = {outcome.key: outcome.detail for outcome in report.outcomes}
        for scenario in scenarios:
            removed, diff = from_scratch(
                blob, context, scenario.asn_a, scenario.asn_b, config
            )
            assert details[scenario.key]["removed_sessions"] == removed
            assert details[scenario.key]["diff"] == diff.to_dict(), scenario.key


@dataclass(frozen=True)
class HalfwayScenario:
    """Edits the copy, simulates, then fails: the recovery case."""

    key: str = "depeer:halfway"

    def run(self, network, context, config, max_messages) -> dict:
        session = next(iter(network.sessions.values()))
        network.disconnect(session.src, session.dst)
        network.originate(session.src, Prefix("240.0.0.0/24"))
        simulate(network, config=config, on_divergence="quarantine")
        raise TopologyError("failed halfway through")


@dataclass(frozen=True)
class StopsAfter:
    """Makes the first ``edits`` of a fixed run of primitive edits, then
    fails — after all of them, inside an edit that refuses."""

    edits: int
    kind: str = "depeer"

    STEPS = 9

    @property
    def key(self) -> str:
        return f"depeer:stops-after-{self.edits}"

    def run(self, network, context, config, max_messages) -> dict:
        session = next(iter(network.sessions.values()))
        a, b = session.src, session.dst
        anycast = Prefix("240.0.0.0/24")
        # A model prefix: one held converged ahead, where any is.
        own = next(iter(network._touched), next(iter(network.originations)))
        origin = network.routers[network.originations[own][0]]
        steps = [
            lambda: network.disconnect(a, b),
            lambda: network.originate(a, anycast),
            lambda: network.originate(b, anycast),
            lambda: simulate(
                network, [anycast], config, max_messages, on_divergence="quarantine"
            ),
            lambda: network.withdraw(a, anycast),
            lambda: network.withdraw(origin, own),
            lambda: network.clear_prefix(own),      # set aside, if it was held
            lambda: network.withdraw(b, anycast),   # the prefix leaves again
            lambda: network.withdraw(b, anycast),   # refused: TopologyError
        ]
        assert len(steps) == self.STEPS
        for step in steps[: self.edits]:
            step()
        raise TopologyError(f"stopped after {self.edits} edit(s)")


@dataclass(frozen=True)
class ProbeScenario:
    """Edits nothing: records the network the scenario before it left."""

    key: str
    seen: list = dataclasses.field(default_factory=list, compare=False)

    def run(self, network, context, config, max_messages) -> dict:
        found = structure(network)
        del found["open"]  # the lender's perturbation, open around every scenario
        self.seen.append(found)
        return {"blast_radius": 0}


class TestWorkingCopy:
    """One copy, exact undo: structurally a fresh unpickle after each use."""

    def scenarios(self, world):
        depeer = generate_depeer(world.model)[0]
        origins = sorted(world.model.prefix_by_origin)
        sites = tuple(origins[:3])
        return [
            depeer,
            dataclasses.replace(depeer, kind=KIND_LINK_FAILURE),
            HijackScenario(origins[0], origins[-1]),
            CatchmentScenario(sites, None),
            CatchmentScenario(sites, sites[1]),
        ]

    def held(self, world):
        """Converged ahead: what the scenarios above resume (the depeer's
        crossing origins, the hijack victim) and one they never touch."""
        origins = sorted(world.model.prefix_by_origin)
        depeer = generate_depeer(world.model)[0]
        named = crossing_origins(
            world.context, depeer.asn_a, depeer.asn_b
        ) | {origins[0]}
        named.add(next(origin for origin in origins if origin not in named))
        return [world.model.prefix_by_origin[origin] for origin in sorted(named)]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_copy_equals_a_fresh_unpickle_after_each_scenario_kind(self, warm):
        """Held prefixes get their pre-open RIBs back, no other prefix
        keeps any, and every topology position is as before."""
        world = seeded_world(2)
        held = self.held(world) if warm else []
        context = dataclasses.replace(world.context, converged_ahead=tuple(held))
        fresh = structure(WorkingCopy(world.blob, held, MODEL_DECISION_CONFIG).network())
        assert sorted(fresh["touched"]) == held and bool(fresh["ribs"]) == warm
        copy = WorkingCopy(world.blob, held, MODEL_DECISION_CONFIG)
        first = copy.network()
        for scenario in self.scenarios(world):
            with copy.perturbed() as network:
                _, simulated, resumed = engine_counts(
                    scenario.run, network, context, MODEL_DECISION_CONFIG, None
                )
                assert structure(network) != fresh
            assert copy.network() is first
            assert structure(first) == fresh, scenario.key
            if isinstance(scenario, CatchmentScenario):
                assert resumed == 0  # its prefix is its own: always from scratch
            else:
                assert (resumed > 0, simulated > 0) == (warm, not warm), scenario.key

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_copy_is_recovered_from_the_blob_after_a_scenario_raises(self, warm):
        """... and the next borrower finds the converged prefixes again."""
        world = seeded_world(2)
        held = self.held(world) if warm else []
        copy = WorkingCopy(world.blob, held, MODEL_DECISION_CONFIG)
        first = copy.network()
        with pytest.raises(TopologyError, match="halfway"):
            with copy.perturbed() as network:
                HalfwayScenario().run(
                    network, world.context, MODEL_DECISION_CONFIG, None
                )
        assert copy.network() is not first
        with copy.perturbed() as network:
            assert sorted(network._touched) == held
        assert structure(copy.network()) == structure(
            WorkingCopy(world.blob, held, MODEL_DECISION_CONFIG).network()
        )

    def test_routing_state_that_came_in_the_blob_is_dropped(self):
        """Nobody resumes it, so it would only be set aside and put back."""
        network = pickle.loads(seeded_world(2).blob)
        simulate(network, config=MODEL_DECISION_CONFIG)
        assert network._touched
        assert not WorkingCopy(dump_network(network)).network()._touched

    def test_undo_restores_positions_not_just_membership(self):
        """Withdraw the first of two originations, cut a middle session."""
        network = Network()
        hub, left, right = (network.add_router(asn) for asn in (1, 2, 3))
        network.connect(hub, left)
        network.connect(hub, right)
        network.connect(left, right)
        first, second = Prefix("10.1.0.0/24"), Prefix("10.2.0.0/24")
        for prefix in (first, second):
            network.originate(hub, prefix)
            network.originate(left, prefix)
        before = structure(network)
        network.open_perturbation()
        network.withdraw(hub, first)
        network.withdraw(left, first)      # the prefix leaves `originations`
        network.disconnect(hub, right)     # middle of hub.sessions_out
        network.originate(right, Prefix("10.3.0.0/24"))
        simulate(network)
        assert structure(network) != before
        network.close_perturbation()
        assert structure(network) == before
        assert "_undo" not in vars(network)  # pickles as if never perturbed

    def test_perturbations_do_not_nest(self):
        network = Network()
        network.open_perturbation()
        with pytest.raises(TopologyError, match="already open"):
            network.open_perturbation()
        network.close_perturbation()
        with pytest.raises(TopologyError, match="no perturbation"):
            network.close_perturbation()


class TestBorrowedNetwork:
    """A sequential campaign perturbs the model's own network — no copy is
    made — and hands it back as it was, but for holding no routing state."""

    def campaign(self, world, warm, scenarios, monkeypatch):
        """Run ``scenarios``, a probe after each, on ``world.model`` itself.

        Asserts that every probe found the network a fresh lender would
        lend and that the model came back; returns the report, the
        engine's counters and the context the scenarios ran under.
        """
        held = TestWorkingCopy().held(world) if warm else []
        context = dataclasses.replace(world.context, converged_ahead=tuple(held))
        monkeypatch.setattr(
            "repro.campaign.engine.plan_campaign", lambda *args, **kwargs: context
        )
        model, network = world.model, world.model.network
        before = structure(network)
        origins = dict(model.prefix_by_origin)
        assert not before["touched"] and before["open"] == (None, None)
        probes = [ProbeScenario(f"{scenario.key}~probe") for scenario in scenarios]
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            report = run_campaign(
                model, "mixed", [*scenarios, *probes], world.context
            )
        finally:
            set_registry(MetricsRegistry())
        assert [o.key for o in report.outcomes] == sorted(
            key for s in scenarios for key in (s.key, f"{s.key}~probe")
        )
        assert structure(network) == before
        assert "_undo" not in vars(network) and "_held" not in vars(network)
        assert model.prefix_by_origin == origins
        lent = structure(WorkingCopy(world.blob, held, MODEL_DECISION_CONFIG).network())
        del lent["open"]
        assert sorted(lent["touched"]) == held
        for scenario, probe in zip(scenarios, probes):
            assert probe.seen == [lent], scenario.key
        return report, registry.snapshot()["counters"], context

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_network_is_as_before_after_each_scenario_kind(self, warm, monkeypatch):
        """During the campaign the converged-ahead prefixes' state and
        nothing else; after it none; every topology position as before."""
        world = seeded_world(2)
        scenarios = TestWorkingCopy().scenarios(world)
        report, counters, context = self.campaign(world, warm, scenarios, monkeypatch)
        details = {o.key: o.detail for o in report.outcomes}
        for scenario in scenarios:
            assert details[scenario.key] == scenario.run(
                pickle.loads(world.blob), world.context, MODEL_DECISION_CONFIG, None
            ), scenario.key
        assert counters.get("engine.converged_ahead", 0) == len(context.converged_ahead)
        assert (counters.get("engine.resumes", 0) > 0) == warm

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_scenario_that_raises_anywhere_is_undone_exactly(self, warm, monkeypatch):
        """Poison, and the sweep goes on — on the same network, with the
        convergence it already paid for."""
        world = seeded_world(2)
        after = TestWorkingCopy().scenarios(world)[2]  # the hijack: sorts last
        failing = [
            HalfwayScenario(),
            *(StopsAfter(edits) for edits in range(StopsAfter.STEPS + 1)),
        ]
        report, counters, context = self.campaign(
            world, warm, [*failing, after], monkeypatch
        )
        outcomes = {o.key: o for o in report.outcomes}
        for scenario in failing:
            assert outcomes[scenario.key].status == POISON, scenario.key
        assert "stopped after 0 edit" in outcomes["depeer:stops-after-0"].failures[0]
        assert "does not originate" in outcomes["depeer:stops-after-9"].failures[0]
        assert report.counts()["quarantined"] == len(failing)
        assert outcomes[after.key].detail == after.run(
            pickle.loads(world.blob), world.context, MODEL_DECISION_CONFIG, None
        )
        assert counters.get("engine.converged_ahead", 0) == len(context.converged_ahead)
        assert counters.get("engine.resumes", 0) == (1 if warm else 0)


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


class TestCatchmentPlan:
    """A campaign simulates each base catchment once, and its scenarios
    answer as each does alone, simulating its own base."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_messages", [None, 8], ids=["converged", "degraded"])
    def test_a_planned_base_equals_a_base_per_scenario(self, workers, max_messages):
        world = seeded_world(1)
        scenarios = generate_catchment(
            world.model, sorted(world.model.prefix_by_origin)[:3]
        )
        alone = {}
        for scenario in scenarios:
            alone[scenario.key], simulated, _ = engine_counts(
                scenario.run, pickle.loads(world.blob), world.context,
                MODEL_DECISION_CONFIG, max_messages,
            )
            assert simulated == (1 if max_messages or scenario.failed_site is None else 2)
        degraded = max_messages is not None
        assert all(bool(detail["degraded"]) == degraded for detail in alone.values())
        report, simulated, _ = engine_counts(
            run_campaign, world.model, "catchment", scenarios, world.context,
            max_messages=max_messages,
            parallel=ParallelConfig(workers=workers) if workers > 1 else None,
        )
        assert {o.key: o.detail for o in report.outcomes} == alone
        # The base once; a failed site once more, unless the base degraded.
        assert simulated == 1 + (0 if degraded else len(scenarios) - 1)
        assert not world.model.network._touched


class TestPlannedOrigins:
    """The plan hands the scenarios the model's own prefix objects, not
    the equal ones a baseline read from disk parsed."""

    @pytest.mark.parametrize("kind", ["depeer", "catchment"])
    def test_planned_origins_are_the_models_prefixes(self, tmp_path, kind):
        model = line_model()
        compile_artifact(model)[0].save(tmp_path / "base.artifact")
        model.network.clear_routing()
        loaded = context_from_artifact(PredictionArtifact.load(tmp_path / "base.artifact"))
        own = model.prefix_by_origin
        assert loaded.origins == own
        assert all(loaded.origins[o] is not own[o] for o in own)
        scenarios = (
            generate_depeer(model) if kind == "depeer"
            else generate_catchment(model, [1, 4])
        )
        planned = plan_campaign(model, scenarios, loaded)
        assert planned.origins.keys() == own.keys()
        for origin in own:
            assert planned.origins[origin] is own[origin]


class TestModelRoundTrip:
    def test_scenario_model_rebuild_matches_origin_encoding(self, model):
        # A model loaded back from its network alone finds the table the
        # scenarios read from the context: who originates what.
        network = pickle.loads(pickle.dumps(model.network))
        rebuilt = ASRoutingModel.from_network(network)
        assert rebuilt.prefix_by_origin == model.prefix_by_origin


class TestNoModelRebuild:
    """Scenarios read the origin table from the context and the adjacency
    from the network they borrow: nothing rebuilds a model from it."""

    def test_campaigns_and_whatif_never_call_from_network(self, monkeypatch):
        model = line_model()
        context = context_from_artifact(compile_artifact(model)[0])
        sweeps = {
            "depeer": generate_depeer(model),
            "hijack": generate_hijack(model, 4),
            "catchment": generate_catchment(model, [1, 4]),
        }

        def answers():
            reports = [
                run_campaign(model, kind, scenarios, context).to_dict(include_meta=False)
                for kind, scenarios in sweeps.items()
            ]
            return reports, whatif(model, 2, 3).render()

        expected = answers()
        assert all(report["counts"]["quarantined"] == 0 for report in expected[0])

        def rebuild(network):
            raise AssertionError("a model was rebuilt from a lent network")

        monkeypatch.setattr(ASRoutingModel, "from_network", rebuild)
        assert answers() == expected
