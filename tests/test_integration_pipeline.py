"""Full-pipeline integration test: the paper's headline claims, end to end.

dumps -> cleaning -> graph/classification/pruning -> split -> initial
model -> refinement -> prediction.  Asserts the three qualitative results
the paper leads with:

1. the refined model reproduces the training feeds *exactly*;
2. prediction for held-out feeds is matched down to the final tie-break
   far more often than either single-router baseline agrees;
3. the refined model needs multiple quasi-routers in a tail of core ASes.
"""

import pytest

from repro.core import (
    Refiner,
    build_initial_model,
    evaluate_model,
    split_by_observation_points,
)
from repro.core.metrics import AgreementCategory, evaluate_agreement
from repro.data.dumps import read_table_dump, write_table_dump
from repro.relationships import (
    apply_relationship_policies,
    infer_valley_free_relationships,
)
from repro.relationships.gao import enforce_acyclic_hierarchy


@pytest.fixture(scope="module")
def refined(mini_pipeline):
    pruned = mini_pipeline["pruned"]
    training, validation = split_by_observation_points(pruned.dataset, 0.5, seed=7)
    model = build_initial_model(pruned.dataset, pruned.graph.copy())
    result = Refiner(model, training).run()
    return model, result, training, validation


class TestHeadlineClaims:
    def test_training_matched_exactly(self, refined):
        model, result, training, _ = refined
        assert result.converged
        report = evaluate_model(model, training)
        assert report.rib_out_rate == 1.0

    def test_validation_beats_80_percent_tie_break(self, refined):
        model, _, _, validation = refined
        report = evaluate_model(model, validation)
        assert report.tie_break_or_better_rate > 0.8, (
            f"paper claims >80%, got {report.tie_break_or_better_rate:.1%}"
        )

    def test_model_beats_single_router_baselines(self, refined, mini_pipeline):
        model, _, _, validation = refined
        refined_report = evaluate_model(model, validation)

        pruned = mini_pipeline["pruned"]
        baseline = build_initial_model(pruned.dataset, pruned.graph.copy())
        baseline.simulate_all()
        agreement = evaluate_agreement(baseline, validation)
        baseline_rate = agreement[AgreementCategory.AGREE] / sum(agreement.values())
        assert refined_report.rib_out_rate > baseline_rate

    def test_policy_baseline_also_beaten(self, refined, mini_pipeline):
        model, _, _, validation = refined
        refined_report = evaluate_model(model, validation)
        pruned = mini_pipeline["pruned"]
        relationships = infer_valley_free_relationships(
            pruned.dataset, mini_pipeline["level1"]
        )
        enforce_acyclic_hierarchy(relationships)
        baseline = build_initial_model(pruned.dataset, pruned.graph.copy())
        apply_relationship_policies(baseline.network, relationships)
        baseline.simulate_all(tolerate_divergence=True)
        agreement = evaluate_agreement(baseline, validation)
        baseline_rate = agreement[AgreementCategory.AGREE] / sum(agreement.values())
        assert refined_report.rib_out_rate > baseline_rate

    def test_quasi_router_tail_exists(self, refined):
        model, _, _, _ = refined
        counts = model.quasi_router_counts()
        assert max(counts.values()) >= 2, "route diversity requires duplication"
        single = sum(1 for count in counts.values() if count == 1)
        assert single / len(counts) > 0.3  # most ASes stay simple


class TestDumpDrivenPipeline:
    def test_pipeline_reproducible_from_dump_file(self, mini_dataset, tmp_path):
        """Everything downstream works identically from a written dump."""
        dump_file = tmp_path / "snapshot.dump"
        write_table_dump(mini_dataset, dump_file)
        parsed = read_table_dump(dump_file).dataset.cleaned()
        assert parsed.unique_paths() == mini_dataset.unique_paths()

        training, validation = split_by_observation_points(parsed, 0.5, seed=1)
        model = build_initial_model(parsed)
        result = Refiner(model, training).run()
        assert result.converged
        report = evaluate_model(model, validation)
        assert report.tie_break_or_better_rate > 0.6
