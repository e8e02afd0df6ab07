"""Engine tests: determinism, quarantine, checkpoints, observability.

The acceptance criteria live here: a depeer campaign over every
removable session completes end to end and ranks identically whether it
ran sequentially, across 4 supervised workers, or was checkpointed and
resumed; poison scenarios are quarantined, never fatal.
"""

import dataclasses
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.bgp.engine import POISON
from repro.campaign import (
    CampaignReport,
    ScenarioOutcome,
    campaign_fingerprint,
    context_from_artifact,
    generate_catchment,
    generate_depeer,
    generate_hijack,
    load_checkpoint,
    plan_campaign,
    run_campaign,
    validate_baseline,
    write_checkpoint,
)
from repro.core.model import MODEL_DECISION_CONFIG
from repro.errors import ArtifactError, CheckpointError, TopologyError
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import EVENT_SCENARIO, RecordingTracer, tracing
from repro.parallel import ParallelConfig, WorkerFaults
from repro.parallel.worker import WorkingCopy
from repro.serve import compile_artifact
from tests.oracle import line_model, seeded_world, structure

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def model():
    return line_model()


@pytest.fixture(scope="module")
def artifact(model):
    compiled, _ = compile_artifact(model)
    model.network.clear_routing()
    return compiled


@pytest.fixture(scope="module")
def context(artifact):
    return context_from_artifact(artifact)


@dataclass(frozen=True)
class ExplodingScenario:
    """A scenario whose run always raises (the in-process poison case)."""

    kind: str = "depeer"

    @property
    def key(self) -> str:
        return "depeer:AS-exploding"

    def run(self, network, context, config, max_messages) -> dict:
        raise TopologyError("synthetic scenario failure")


@dataclass(frozen=True)
class UnreplayableScenario:
    """Leaves an inverse on the undo log that cannot be replayed."""

    key: str = "depeer:AS2-AS3~unreplayable"  # runs second of the line's four
    kind: str = "depeer"

    def run(self, network, context, config, max_messages) -> dict:
        def refuse():
            raise TopologyError("this inverse cannot be replayed")

        session = next(iter(network.sessions.values()))
        network.disconnect(session.src, session.dst)
        network._undo.append((refuse, ()))
        return {"blast_radius": 0}


class TestRunCampaign:
    def test_full_depeer_sweep_completes_and_ranks(self, model, context):
        report = run_campaign(
            model, "depeer", generate_depeer(model), context
        )
        assert report.counts() == {
            "scenarios": 3, "completed": 3, "quarantined": 0
        }
        ranked = report.ranked()
        assert [o.key for o in ranked][0] == "depeer:AS2-AS3"
        assert ranked[0].blast_radius == 8
        assert report.exit_code == 0

    def test_parallel_matches_sequential_bit_identical(self, model, context):
        scenarios = generate_depeer(model)
        sequential = run_campaign(model, "depeer", scenarios, context)
        parallel = run_campaign(
            model, "depeer", scenarios, context,
            parallel=ParallelConfig(workers=4),
        )
        assert parallel.to_json(include_meta=False) == sequential.to_json(
            include_meta=False
        )
        assert parallel.meta["supervision"]  # the pool actually ran

    def test_one_working_copy_in_any_order_equals_a_fresh_copy_each(self):
        """Mixed kinds, shuffled: exact undo makes scenario order irrelevant,
        which is also why sequential equals any placement on pool workers.
        The copy holds converged what two scenarios name, as a campaign's
        does, so the depeers and hijacks resume — and equal from scratch."""
        world = seeded_world(3)
        origins = sorted(world.model.prefix_by_origin)
        scenarios = [
            *generate_depeer(world.model)[:6],
            *generate_hijack(world.model, origins[2], attackers=origins[5:8]),
            *generate_catchment(world.model, origins[:3]),
        ]
        fresh = {
            scenario.key: scenario.run(
                pickle.loads(world.blob), world.context, MODEL_DECISION_CONFIG, None
            )
            for scenario in scenarios
        }
        planned = plan_campaign(world.model, scenarios, world.context)
        ahead = planned.converged_ahead
        assert 10 < len(ahead) < len(origins)  # some origin is named once
        copy = WorkingCopy(world.blob, ahead, MODEL_DECISION_CONFIG)
        for order_seed in (0, 1):
            shuffled = list(scenarios)
            random.Random(order_seed).shuffle(shuffled)
            assert [s.key for s in shuffled] != [s.key for s in scenarios]
            for scenario in shuffled:
                with copy.perturbed() as network:
                    value = scenario.run(
                        network, planned, MODEL_DECISION_CONFIG, None
                    )
                assert value == fresh[scenario.key], scenario.key

        def counted(**kwargs):
            registry = MetricsRegistry()
            set_registry(registry)
            try:
                report = run_campaign(
                    world.model, "mixed", scenarios, world.context, **kwargs
                )
                return report, registry.snapshot()["counters"]
            finally:
                set_registry(MetricsRegistry())

        sequential, one_copy = counted()
        assert {o.key: o.detail for o in sequential.outcomes} == fresh
        pooled, two_copies = counted(parallel=ParallelConfig(workers=2))
        assert pooled.to_json(include_meta=False) == sequential.to_json(
            include_meta=False
        )
        # Each of the two workers converges its own set: an origin has to
        # be named four times to be worth it there.
        per_worker = plan_campaign(
            world.model, scenarios, world.context, copies=2
        ).converged_ahead
        assert 0 < len(per_worker) < len(ahead)
        assert sequential.meta["origins_converged_ahead"] == len(ahead)
        assert pooled.meta["origins_converged_ahead"] == len(per_worker)
        # The counters read the same way in both modes: what was converged
        # ahead is counted apart (by every copy that reported ready), and
        # what the scenarios re-converged, either way, is the same total.
        assert one_copy["engine.converged_ahead"] == len(ahead)
        assert two_copies["engine.converged_ahead"] in (
            len(per_worker), 2 * len(per_worker)
        )
        assert len({
            c["engine.prefixes"] - c["engine.converged_ahead"] + c["engine.resumes"]
            for c in (one_copy, two_copies)
        }) == 1

    def test_sequential_poison_is_quarantined_not_fatal(self, model, context):
        scenarios = [*generate_depeer(model), ExplodingScenario()]
        report = run_campaign(model, "depeer", scenarios, context)
        assert report.counts()["quarantined"] == 1
        assert report.counts()["completed"] == 3
        bad = [o for o in report.outcomes if o.quarantined]
        assert bad[0].key == "depeer:AS-exploding"
        assert bad[0].status == POISON
        assert "synthetic scenario failure" in bad[0].failures[0]
        assert report.exit_code == 3

    def test_sequential_campaign_pickles_nothing(self, model, context, monkeypatch):
        """The scenarios perturb ``model.network`` itself, under exact undo."""
        scenarios = [
            *generate_depeer(model),
            *generate_hijack(model, 4, attackers=[1, 2]),
            *generate_catchment(model, [1, 4]),
        ]
        expected = run_campaign(
            model, "mixed", scenarios, context, parallel=ParallelConfig(workers=2)
        )
        before = structure(model.network)

        def refuse(*args, **kwargs):
            raise AssertionError("a sequential campaign made a copy")

        monkeypatch.setattr(pickle, "dumps", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        report = run_campaign(model, "mixed", scenarios, context)
        monkeypatch.undo()
        assert report.meta["origins_converged_ahead"] > 0  # and resumed from
        assert report.to_json(include_meta=False) == expected.to_json(
            include_meta=False
        )
        assert structure(model.network) == before

    def test_routing_state_held_on_entry_is_cleared_not_preserved(self, context):
        """The documented effect on the caller's model: it comes back cold."""
        model = line_model()
        model.simulate_all()
        assert model.network._touched
        cold = run_campaign(line_model(), "depeer", generate_depeer(model), context)
        report = run_campaign(model, "depeer", generate_depeer(model), context)
        assert not model.network._touched
        assert report.to_json(include_meta=False) == cold.to_json(include_meta=False)

    def test_an_undo_that_cannot_be_replayed_stops_the_campaign(
        self, context, tmp_path
    ):
        """... with that error, checkpoint written: the sweep never goes on
        on a network it could not put back (and does not call it poison)."""
        model = line_model()  # not handed back: its own
        scenarios = [*generate_depeer(model), UnreplayableScenario()]
        path = tmp_path / "ck.json"
        with pytest.raises(TopologyError, match="cannot be replayed"):
            run_campaign(model, "depeer", scenarios, context, checkpoint=path)
        fingerprint = campaign_fingerprint(
            "depeer", (s.key for s in scenarios), context.baseline_checksum
        )
        assert sorted(load_checkpoint(path, fingerprint)) == [
            "depeer:AS1-AS2", "depeer:AS2-AS3",
        ]
        assert not model.network._touched
        assert "_undo" not in vars(model.network)

    def test_worker_crash_is_quarantined_not_fatal(self, model, context):
        # The injected fault kills the worker the instant the scenario is
        # dispatched; resubmission exhausts and the scenario is poison.
        scenarios = generate_depeer(model)
        report = run_campaign(
            model, "depeer", scenarios, context,
            parallel=ParallelConfig(
                workers=2, max_resubmits=1, task_timeout=30,
                faults=WorkerFaults(
                    crash_prefixes=("depeer:AS1-AS2",)
                ),
            ),
        )
        by_key = {o.key: o for o in report.outcomes}
        assert by_key["depeer:AS1-AS2"].status == POISON
        assert not by_key["depeer:AS2-AS3"].quarantined
        assert report.exit_code == 3

    def test_campaign_metrics_are_emitted(self, model, context):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            run_campaign(
                model, "depeer",
                [*generate_depeer(model), ExplodingScenario()], context,
            )
            snap = registry.snapshot()
            assert snap["counters"]["campaign.scenarios_completed"] == 3
            assert snap["counters"]["campaign.scenarios_quarantined"] == 1
            assert snap["histograms"]["campaign.blast_radius"]["count"] == 3
        finally:
            set_registry(MetricsRegistry())

    def test_scenario_trace_events_in_key_order(self, model, context):
        tracer = RecordingTracer()
        with tracing(tracer):
            run_campaign(model, "depeer", generate_depeer(model), context)
        events = tracer.events(EVENT_SCENARIO)
        assert [e["key"] for e in events] == [
            "depeer:AS1-AS2", "depeer:AS2-AS3", "depeer:AS3-AS4"
        ]
        assert all("blast_radius" in e for e in events)
        assert events[0]["scenario_kind"] == "depeer"


class TestCheckpoint:
    def test_checkpoint_round_trip(self, tmp_path):
        outcome = ScenarioOutcome(
            key="depeer:AS1-AS2", kind="depeer", status="ok",
            blast_radius=3.0, detail={"x": 1},
        )
        path = tmp_path / "ck.json"
        write_checkpoint(path, "fp", {outcome.key: outcome})
        loaded = load_checkpoint(path, "fp")
        assert loaded == {outcome.key: outcome}

    def test_wrong_fingerprint_is_a_hard_error(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, "fp-a", {})
        with pytest.raises(CheckpointError, match="different campaign"):
            load_checkpoint(path, "fp-b")

    def test_corrupt_checkpoint_is_a_hard_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, "fp")

    def test_fingerprint_covers_kind_keys_and_baseline(self):
        base = campaign_fingerprint("depeer", ["a", "b"], "sum")
        assert campaign_fingerprint("depeer", ["b", "a"], "sum") == base
        assert campaign_fingerprint("hijack", ["a", "b"], "sum") != base
        assert campaign_fingerprint("depeer", ["a"], "sum") != base
        assert campaign_fingerprint("depeer", ["a", "b"], "other") != base

    def test_resume_skips_completed_and_matches_uninterrupted(
        self, model, context, tmp_path
    ):
        scenarios = generate_depeer(model)
        full = run_campaign(model, "depeer", scenarios, context)

        # Simulate an interrupted run: checkpoint holds one outcome.
        path = tmp_path / "ck.json"
        fingerprint = campaign_fingerprint(
            "depeer", (s.key for s in scenarios), context.baseline_checksum
        )
        first = next(
            o for o in full.outcomes if o.key == "depeer:AS1-AS2"
        )
        write_checkpoint(path, fingerprint, {first.key: first})

        resumed = run_campaign(
            model, "depeer", scenarios, context,
            checkpoint=path, resume=True,
        )
        assert resumed.meta["resumed"] == 1
        assert resumed.to_json(include_meta=False) == full.to_json(
            include_meta=False
        )
        # The final checkpoint now holds every outcome.
        assert len(load_checkpoint(path, fingerprint)) == 3

    def test_resume_with_changed_scenario_space_refuses(
        self, model, context, tmp_path
    ):
        scenarios = generate_depeer(model)
        path = tmp_path / "ck.json"
        write_checkpoint(path, "stale-fingerprint", {})
        with pytest.raises(CheckpointError, match="different campaign"):
            run_campaign(
                model, "depeer", scenarios, context,
                checkpoint=path, resume=True,
            )


class TestValidateBaseline:
    def test_matching_artifact_passes(self, model, artifact):
        validate_baseline(model, artifact)

    def test_foreign_artifact_is_rejected(self, model, artifact):
        other = line_model()
        compiled, _ = compile_artifact(other, observers=[1])
        # Same origins, but claim an observer the model lacks.
        foreign = dataclasses.replace(compiled, observers=(64999,))
        with pytest.raises(ArtifactError, match="64999"):
            validate_baseline(model, foreign)

    def test_artifact_with_another_origin_table_is_rejected(self, model, artifact):
        """Same ASes, but one origin's prefix differs: the table a context
        copies from the artifact would not be the model's."""
        origins = dict(artifact.origins)
        origin = min(origins)
        origins[origin] = Prefix("0.0.7.0/24")
        with pytest.raises(ArtifactError, match=f"AS {origin} the prefix 0.0.7.0/24"):
            validate_baseline(model, dataclasses.replace(artifact, origins=origins))

    def test_artifact_of_an_earlier_refinement_is_rejected(self, artifact):
        """Same ASes, same origins and observers — but one more quasi-router
        since the artifact was compiled, so its paths are another model's."""
        later = line_model()
        validate_baseline(later, artifact)
        later.network.duplicate_router(later.network.as_routers(2)[0])
        with pytest.raises(ArtifactError, match="routers=") as caught:
            validate_baseline(later, artifact)
        assert "recompile the baseline" in str(caught.value)
        # An artifact that recorded no stats is judged on its ASes alone.
        validate_baseline(later, dataclasses.replace(artifact, model_stats={}))


class TestReport:
    def test_ranked_orders_by_blast_then_key(self):
        report = CampaignReport(
            kind="depeer",
            outcomes=[
                ScenarioOutcome("b", "depeer", "ok", 1.0),
                ScenarioOutcome("a", "depeer", "ok", 5.0),
                ScenarioOutcome("c", "depeer", "ok", 5.0),
                ScenarioOutcome("z", "depeer", "poison", 0.0),
            ],
        )
        assert [o.key for o in report.ranked()] == ["a", "c", "b", "z"]
        assert report.exit_code == 3

    def test_render_caps_at_top(self):
        report = CampaignReport(
            kind="depeer",
            outcomes=[
                ScenarioOutcome(f"s{i}", "depeer", "ok", float(i))
                for i in range(5)
            ],
        )
        text = report.render(top=2)
        assert "... 3 more scenarios omitted" in text
        assert "5 scenario(s), 5 completed, 0 quarantined" in text

    def test_meta_excluded_json_is_deterministic(self):
        report = CampaignReport(kind="depeer", meta={"elapsed_seconds": 1.0})
        assert "elapsed" not in report.to_json(include_meta=False)
        assert "elapsed" in report.to_json()
