"""Tests for RunHealth reporting, the chaos pipeline, and the CLI wiring."""

import json
from types import SimpleNamespace

from repro.bgp.engine import DIVERGED, UNSAFE, EngineStats, Quarantine
from repro.cli import main
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.net.prefix import Prefix
from repro.resilience.faults import FaultConfig
from repro.resilience.health import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_UNCONVERGED,
    UNMATCHED_LIMIT,
    RunHealth,
)

FAST_CHAOS = ChaosConfig(
    seed=0,
    scale=0.12,
    points=6,
    refine_iterations=4,
    faults=FaultConfig(
        seed=0,
        dispute_wheels=2,
        corrupt_line_fraction=0.1,
        truncate_line_fraction=0.05,
        session_flaps=1,
        message_budget=20_000,
    ),
)


def diverged_stats(prefix: Prefix) -> EngineStats:
    return EngineStats(
        prefixes=1, messages=2001, budget_exhaustions=1,
        quarantined=[Quarantine(prefix, DIVERGED, 2001, 2000)],
    )


def refinement_result(converged: bool) -> SimpleNamespace:
    return SimpleNamespace(
        iteration_count=4, converged=converged, final_match_rate=0.75
    )


class TestRunHealth:
    def test_clean_run_is_exit_ok(self):
        health = RunHealth()
        health.record_refinement(refinement_result(converged=True))
        assert health.exit_code == EXIT_OK
        assert health.diverged_prefixes == []

    def test_stall_is_exit_unconverged(self):
        health = RunHealth()
        health.record_refinement(refinement_result(converged=False))
        assert health.exit_code == EXIT_UNCONVERGED

    def test_divergence_outranks_stall(self):
        health = RunHealth()
        health.record_refinement(refinement_result(converged=False))
        health.record_simulation(diverged_stats(Prefix("10.0.0.0/24")))
        assert health.diverged_prefixes == ["10.0.0.0/24"]
        assert health.exit_code == EXIT_DIVERGED

    def test_errors_outrank_everything(self):
        health = RunHealth()
        health.record_simulation(diverged_stats(Prefix("10.0.0.0/24")))
        health.record_error("dump is mostly garbage")
        assert health.exit_code == EXIT_DATA

    def test_phase_timer_accumulates(self):
        health = RunHealth()
        with health.phase("parse"):
            pass
        first = health.phases["parse"]
        with health.phase("parse"):
            pass
        assert health.phases["parse"] >= first
        assert set(health.phases) == {"parse"}

    def test_phase_records_even_on_exception(self):
        health = RunHealth()
        try:
            with health.phase("refine"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "refine" in health.phases

    def test_unmatched_diagnostics_truncated_but_counted(self):
        health = RunHealth()
        unmatched = [(asn, (asn, 99)) for asn in range(UNMATCHED_LIMIT + 10)]
        health.record_refinement(refinement_result(converged=False), unmatched)
        assert health.refinement["unmatched_total"] == UNMATCHED_LIMIT + 10
        assert len(health.refinement["unmatched"]) == UNMATCHED_LIMIT
        assert health.refinement["unmatched"][0] == {"origin": 0, "path": [0, 99]}

    def test_report_is_json_and_written(self, tmp_path):
        health = RunHealth()
        health.record_simulation(diverged_stats(Prefix("10.0.0.0/24")))
        path = tmp_path / "health.json"
        health.write(path)
        document = json.loads(path.read_text())
        assert document == health.to_dict()
        assert document["exit_code"] == EXIT_DIVERGED
        assert document["simulation"]["diverged"] == ["10.0.0.0/24"]


class TestExitCodeEdgeCases:
    def test_empty_health_is_exit_ok(self):
        health = RunHealth()
        assert health.exit_code == EXIT_OK
        assert health.diverged_prefixes == []

    def test_unsafe_only_prefixes_map_to_diverged(self):
        health = RunHealth()
        stats = EngineStats(quarantined=[Quarantine(Prefix("10.0.0.0/24"), UNSAFE)])
        health.record_simulation(stats)
        assert health.diverged_prefixes == ["10.0.0.0/24"]
        assert health.exit_code == EXIT_DIVERGED

    def test_divergence_outranks_converged_refinement(self):
        health = RunHealth()
        health.record_refinement(refinement_result(converged=True))
        health.record_simulation(diverged_stats(Prefix("10.0.0.0/24")))
        assert health.exit_code == EXIT_DIVERGED

    def test_clean_simulation_keeps_exit_ok(self):
        health = RunHealth()
        health.record_simulation(EngineStats())
        assert health.exit_code == EXIT_OK

    def test_error_outranks_divergence_even_recorded_later(self):
        health = RunHealth()
        health.record_error(RuntimeError("boom"))
        health.record_simulation(diverged_stats(Prefix("10.0.0.0/24")))
        assert health.exit_code == EXIT_DATA
        assert health.to_dict()["errors"] == ["boom"]

    def test_metrics_and_meta_default_and_serialise(self):
        health = RunHealth()
        health.record_metrics()  # defaults to the global registry
        health.record_meta()  # defaults to run_metadata()
        document = health.to_dict()
        assert set(document["metrics"]) == {"counters", "gauges", "histograms"}
        assert document["meta"]["repro_version"]
        assert isinstance(document["meta"]["argv"], list)


class TestChaosPipeline:
    def test_faulted_run_quarantines_and_reports(self):
        health = run_chaos(FAST_CHAOS)
        document = health.to_dict()
        # a wheel diverged: quarantined after one bounded attempt, named in
        # the report
        assert health.exit_code == EXIT_DIVERGED
        assert health.diverged_prefixes
        for outcome in document["simulation"]["outcomes"]:
            if outcome["status"] == "diverged":
                assert outcome["attempts"] == 1
                assert outcome["final_budget"] == FAST_CHAOS.faults.message_budget
        # dump corruption surfaced as parse skips, not a crash
        assert document["faults"]["corrupted_lines"] > 0
        assert document["parse"]["skipped_malformed"] >= document["faults"][
            "corrupted_lines"
        ]
        # every phase ran and was timed
        assert set(document["phases_seconds"]) == {
            "synthesize", "inject-faults", "simulate", "dump", "parse", "refine",
        }
        assert document["refinement"] is not None
        assert document["errors"] == []

    def test_chaos_is_deterministic(self):
        first = run_chaos(FAST_CHAOS)
        second = run_chaos(FAST_CHAOS)
        assert first.diverged_prefixes == second.diverged_prefixes
        assert first.to_dict()["parse"] == second.to_dict()["parse"]
        assert first.to_dict()["faults"] == second.to_dict()["faults"]

    def test_total_corruption_is_a_data_error(self):
        config = ChaosConfig(
            seed=0,
            scale=0.12,
            points=6,
            faults=FaultConfig(seed=0, corrupt_line_fraction=1.0),
        )
        health = run_chaos(config)
        assert health.exit_code == EXIT_DATA
        assert health.errors
        assert health.to_dict()["refinement"] is None


class TestCLI:
    def test_chaos_subcommand_writes_health_report(self, tmp_path, capsys):
        report = tmp_path / "health.json"
        code = main([
            "chaos", "--seed", "0", "--scale", "0.12", "--points", "6",
            "--refine-iterations", "4",
            "--flap-sessions", "1", "--message-budget", "2000",
            "--health-report", str(report),
        ])
        assert code == EXIT_DIVERGED
        document = json.loads(report.read_text())
        assert document["exit_code"] == EXIT_DIVERGED
        assert document["simulation"]["diverged"]
        assert "chaos:" in capsys.readouterr().err

    def test_chaos_without_report_prints_json(self, capsys):
        code = main([
            "chaos", "--seed", "2", "--scale", "0.12", "--points", "6",
            "--refine-iterations", "10",
            "--dispute-wheels", "0", "--flap-sessions", "0",
            "--corrupt-fraction", "0", "--truncate-fraction", "0",
        ])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["simulation"]["diverged"] == []

    def test_refine_health_report_and_checkpoint(self, tmp_path, capsys):
        dump = tmp_path / "dump.txt"
        code = main([
            "synthesize", "--seed", "7", "--scale", "0.12", "--points", "6",
            "--out", str(dump),
        ])
        assert code == 0
        capsys.readouterr()
        report = tmp_path / "health.json"
        checkpoint = tmp_path / "refine.ckpt"
        code = main([
            "refine", str(dump), "--max-iterations", "6",
            "--checkpoint", str(checkpoint),
            "--health-report", str(report),
        ])
        assert code == EXIT_OK
        assert checkpoint.exists()
        document = json.loads(report.read_text())
        assert document["refinement"]["converged"] is True
        assert document["exit_code"] == EXIT_OK
        assert {"parse", "refine", "evaluate"} <= set(document["phases_seconds"])

    def test_refine_corrupt_checkpoint_is_exit_data(self, tmp_path, capsys):
        dump = tmp_path / "dump.txt"
        assert main([
            "synthesize", "--seed", "7", "--scale", "0.12", "--points", "6",
            "--out", str(dump),
        ]) == 0
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{not json")
        report = tmp_path / "health.json"
        code = main([
            "refine", str(dump), "--checkpoint", str(bad),
            "--health-report", str(report),
        ])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert json.loads(report.read_text())["errors"]

    def test_refine_unusable_dump_is_exit_data(self, tmp_path, capsys):
        dump = tmp_path / "garbage.txt"
        dump.write_text("garbage|line\n" * 20)
        report = tmp_path / "health.json"
        code = main(["refine", str(dump), "--health-report", str(report)])
        assert code == EXIT_DATA
        document = json.loads(report.read_text())
        assert document["exit_code"] == EXIT_DATA
        assert document["errors"]
