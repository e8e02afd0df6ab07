"""Tests for the experiment harness (on a tiny workload)."""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.data.synthesis import SyntheticConfig
from repro.experiments import (
    EXPERIMENTS,
    ablations,
    fig2,
    fig3,
    fig8,
    prepare,
    scaling,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.report import ExperimentResult, format_table
from repro.experiments.workloads import Workload

TINY = Workload(
    name="tiny",
    config=SyntheticConfig(seed=2, n_level1=3, n_level2=5, n_other=8, n_stub=16),
    n_observation_ases=10,
    multi_point_fraction=0.5,
)


@pytest.fixture(scope="module")
def prepared():
    return prepare(TINY)


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["a", "bb"], [[1, 0.5], ["xx", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "50.0%" in text and "2.00" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_result_render_contains_everything(self):
        result = ExperimentResult("X1", "demo", headers=["k"], rows=[["v"]])
        result.metrics["m"] = 0.25
        result.note("hello")
        text = result.render()
        assert "X1" in text and "demo" in text and "25.0%" in text and "hello" in text


    def test_metrics_print_as_numbers_and_rates_as_percentages(self):
        """A sub-second timing and a zero count are not percentages."""
        result = ExperimentResult("X2", "units", headers=["rate"], rows=[[0.25]])
        result.metrics.update(seconds_x1=0.25, count=0, rate=0.25, full_ms=0.5)
        text = result.render()
        assert "seconds_x1 = 0.250" in text
        assert "full_ms = 0.500" in text
        assert "count = 0\n" in text
        assert "rate = 25.0%" in text
        assert text.count("25.0%") == 2  # the metric and the table cell


class TestRegistry:
    def test_ids_are_unique_and_in_the_documented_order(self):
        assert [e.id for e in EXPERIMENTS] == [
            "FIG2", "TAB1", "FIG3", "TAB2", "TAB3", "TAB4", "TAB5", "FIG8",
            "EXT1", "ABL1", "ABL2", "SCAL", "LINT", "OBS", "SERVE-RESILIENCE",
        ]

    def test_record_files_are_unique_and_only_system_experiments_have_one(self):
        records = [e.record for e in EXPERIMENTS if e.record is not None]
        assert len(records) == len(set(records)) == 3
        assert [e.id for e in EXPERIMENTS if e.record] == [
            "LINT", "OBS", "SERVE-RESILIENCE",
        ]

    @pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
    def test_run_returns_the_entrys_own_result(self, experiment):
        result = experiment.run(TINY)
        assert result.experiment_id == experiment.id
        if experiment.record is None:  # the verdict table quotes it
            assert any(note.startswith("paper:") for note in result.notes)
        record = json.loads(json.dumps(result.to_record({"workload": "tiny"})))
        assert record["experiment"] == experiment.id
        assert record["metrics"] == result.metrics

    def test_a_failed_verdict_names_the_claim(self):
        by_id = {e.id: e for e in EXPERIMENTS}
        result = ExperimentResult("TAB4", "below the bar")
        result.metrics["validation_tie_break_or_better"] = 0.79
        with pytest.raises(AssertionError, match="79.0%.*80%"):
            by_id["TAB4"].verdict(result)
        result.metrics["validation_tie_break_or_better"] = 0.81
        by_id["TAB4"].verdict(result)


def running(pid: int) -> bool:
    """Whether ``pid`` is a live (not merely unreaped) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.slow
@pytest.mark.timeout(120)
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestServeChaosHarness:
    def test_a_campaign_that_fails_leaves_no_server_process_behind(
        self, monkeypatch
    ):
        """The supervisor is SIGKILLed on the way out and cannot stop its
        workers then; the harness kills the whole tree."""
        from repro.experiments import serve_chaos

        servers, workers = [], set()
        spawn = serve_chaos._spawn_server

        def recording_spawn(*args):
            servers.append(spawn(*args))
            return servers[-1]

        def failing_phase(config, result, address, load):
            deadline = time.monotonic() + 10.0
            while len(workers) < config.workers and time.monotonic() < deadline:
                status, _, body = serve_chaos._request(address, "/healthz")
                if status is not None:
                    workers.add(body["pid"])
            raise AssertionError("injected: the campaign fails here")

        monkeypatch.setattr(serve_chaos, "_spawn_server", recording_spawn)
        monkeypatch.setattr(serve_chaos, "_phase_worker_kill", failing_phase)
        tree: set[int] = set()
        try:
            with pytest.raises(AssertionError, match="injected"):
                serve_chaos.run()
            tree = workers | {server.pid for server in servers}
            assert len(workers) == 2 and len(tree) == 3
            deadline = time.monotonic() + 10.0
            while any(map(running, tree)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in sorted(tree) if running(pid)]
        finally:
            for pid in tree | workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestPrepare:
    def test_caches(self):
        assert prepare(TINY) is prepare(TINY)

    def test_pipeline_artifacts(self, prepared):
        assert prepared.dataset.summary()["routes"] > 0
        assert prepared.level1
        assert prepared.training.observation_points()
        assert prepared.validation.observation_points()
        assert not (
            set(prepared.training.observation_points())
            & set(prepared.validation.observation_points())
        )


class TestSection3Experiments:
    def test_fig2_fractions_sum_to_one(self, prepared):
        result = fig2.run(prepared)
        assert abs(sum(row[2] for row in result.rows) - 1.0) < 1e-9
        assert 0.0 <= result.metrics["fraction_multipath"] <= 1.0

    def test_table1_quantiles_monotone(self, prepared):
        result = table1.run(prepared)
        values = [row[1] for row in result.rows]
        assert values == sorted(values)

    def test_fig3_extracts_most_diverse(self, prepared):
        result = fig3.run(prepared)
        assert result.metrics["distinct_paths"] >= 1
        assert len(result.rows) == result.metrics["distinct_paths"]


class TestTable2:
    def test_rows_cover_all_categories(self, prepared):
        result = table2.run(prepared)
        labels = {row[0] for row in result.rows}
        assert "AS-paths which agree" in labels
        assert "  AS-path not available" in labels
        # measured shares sum to 1 across the exclusive categories
        exclusive = [
            row for row in result.rows if row[0] != "AS-paths which disagree"
        ]
        assert abs(sum(row[1] for row in exclusive) - 1.0) < 1e-9

    def test_policy_baseline_not_better_at_availability(self, prepared):
        """Relationship filters can only remove routes, never add them."""
        result = table2.run(prepared)
        by_label = {row[0]: row for row in result.rows}
        shortest_na = by_label["  AS-path not available"][1]
        policies_na = by_label["  AS-path not available"][3]
        assert policies_na >= shortest_na - 1e-9


class TestRefinementExperiments:
    def test_table3_training_converges(self, prepared):
        result = table3.run(prepared)
        assert result.metrics["converged"] == 1.0
        assert result.metrics["final_training_rib_out"] == 1.0

    def test_table4_validation_beats_baselines(self, prepared):
        baseline = table2.run(prepared)
        result = table4.run(prepared)
        assert (
            result.metrics["validation_rib_out"]
            > baseline.metrics["shortest_agree"] - 0.2
        )
        assert result.metrics["validation_tie_break_or_better"] > 0.5

    def test_table5_origin_split_runs(self, prepared):
        result = table5.run(prepared)
        assert result.metrics["converged"] == 1.0
        assert 0.0 <= result.metrics["validation_rib_out"] <= 1.0

    def test_fig8_distribution(self, prepared):
        result = fig8.run(prepared)
        assert result.metrics["single_router_fraction"] > 0.3
        assert result.metrics["max_quasi_routers"] >= 1
        total = sum(row[1] for row in result.rows)
        assert total == result.metrics["ases"]


class TestAblations:
    def test_observation_point_sweep_monotone_trend(self, prepared):
        result = ablations.observation_points(prepared, fractions=(0.3, 1.0))
        assert len(result.rows) == 2
        low, high = result.rows[0][3], result.rows[1][3]
        assert high >= low - 0.1  # allow noise, expect improvement

    def test_mechanism_ablation_full_wins_training(self, prepared):
        result = ablations.policy_mechanisms(prepared)
        rates = {row[0]: row[3] for row in result.rows}
        assert rates["full (paper)"] == 1.0
        assert rates["no policies"] < 1.0
        assert rates["no duplication"] < 1.0


class TestScaling:
    def test_scaling_rows(self):
        result = scaling.run(TINY, factors=(0.5, 1.0))
        assert len(result.rows) == 2
        # larger topology, more messages
        assert result.rows[1][5] > result.rows[0][5]


class TestDeflection:
    def test_ground_truth_is_forwarding_consistent(self, prepared):
        from repro.experiments import deflection

        result = deflection.run(prepared, samples=500)
        assert result.metrics["loop_rate"] == 0.0
        assert result.metrics["agreement"] > 0.95
