"""Tests for the perf-regression gate: bench-diff and ``repro --profile``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import DatasetError
from repro.obs.benchdiff import (
    diff_files,
    diff_metrics,
    load_metrics,
    metric_direction,
)

DIRTY_FEED = Path(__file__).parent / "fixtures" / "dirty_feed.dump"


class TestMetricDirection:
    def test_costs_are_lower_is_better(self):
        for name in ("wall_seconds", "phase.engine.decision.cpu_seconds",
                     "counter.engine.messages", "mem_peak_bytes"):
            assert metric_direction(name) == "lower"

    def test_benefits_are_higher_is_better(self):
        for name in ("speedup_vs_sequential", "serve.query_qps",
                     "coverage", "cache.hit_rate", "ingest.accepted"):
            assert metric_direction(name) == "higher"


class TestDiffMetrics:
    def test_identical_runs_have_no_regressions(self):
        metrics = {"wall_seconds": 2.0, "counter.engine.messages": 100}
        diff = diff_metrics(metrics, dict(metrics))
        assert diff.exit_code == 0
        assert not diff.regressions
        assert not diff.improvements
        assert len(diff.deltas) == 2

    def test_twenty_percent_cost_growth_regresses(self):
        diff = diff_metrics({"wall_seconds": 1.0}, {"wall_seconds": 1.25})
        assert diff.exit_code == 1
        assert diff.regressions[0].name == "wall_seconds"
        assert diff.regressions[0].change_pct == pytest.approx(25.0)

    def test_shrinking_benefit_regresses(self):
        diff = diff_metrics({"speedup": 4.0}, {"speedup": 2.0})
        assert diff.exit_code == 1

    def test_growing_benefit_improves(self):
        diff = diff_metrics({"speedup": 2.0}, {"speedup": 4.0})
        assert diff.exit_code == 0
        assert diff.improvements[0].name == "speedup"

    def test_change_within_threshold_is_ok(self):
        diff = diff_metrics({"wall_seconds": 1.0}, {"wall_seconds": 1.1})
        assert diff.exit_code == 0
        assert not diff.regressions

    def test_per_metric_threshold_override(self):
        base = {"counter.engine.messages": 100}
        current = {"counter.engine.messages": 101}
        strict = diff_metrics(
            base, current, thresholds={"counter.engine.messages": 0.0}
        )
        assert strict.exit_code == 1
        default = diff_metrics(base, current)
        assert default.exit_code == 0

    def test_skip_globs_exclude_metrics(self):
        diff = diff_metrics(
            {"wall_seconds": 1.0, "counter.x": 5},
            {"wall_seconds": 99.0, "counter.x": 5},
            skip=["*seconds*"],
        )
        assert diff.exit_code == 0
        assert diff.skipped == ["wall_seconds"]

    def test_missing_and_added_are_bookkept_not_failed(self):
        diff = diff_metrics({"old": 1.0}, {"new": 2.0})
        assert diff.missing == ["old"]
        assert diff.added == ["new"]
        assert diff.exit_code == 0

    def test_zero_base_nonzero_current_is_infinite_regression(self):
        diff = diff_metrics({"errors": 0.0}, {"errors": 3.0})
        assert diff.exit_code == 1
        assert diff.deltas[0].change_pct == float("inf")

    def test_zero_base_zero_current_is_ok(self):
        diff = diff_metrics({"errors": 0.0}, {"errors": 0.0})
        assert diff.exit_code == 0

    def test_render_and_to_json(self):
        diff = diff_metrics({"wall_seconds": 1.0}, {"wall_seconds": 2.0})
        text = diff.render()
        assert "REGRESSED" in text
        assert "1 regression(s)" in text
        payload = json.loads(diff.to_json())
        assert payload["regressions"] == ["wall_seconds"]
        assert payload["exit_code"] == 1


class TestLoadMetrics:
    def test_loads_flat_numeric_metrics(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({
            "metrics": {"wall_seconds": 1.5, "note": "text", "n": 3},
            "meta": {"git_sha": "abc"},
        }))
        metrics, meta = load_metrics(path)
        assert metrics == {"wall_seconds": 1.5, "n": 3.0}
        assert meta["git_sha"] == "abc"

    def test_missing_file_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError):
            load_metrics(tmp_path / "nope.json")

    def test_invalid_json_raises_dataset_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            load_metrics(path)

    def test_document_without_metrics_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(DatasetError):
            load_metrics(path)

    def test_diff_files_end_to_end(self, tmp_path):
        base = tmp_path / "base.json"
        current = tmp_path / "current.json"
        base.write_text(json.dumps({"metrics": {"wall_seconds": 1.0}}))
        current.write_text(json.dumps({"metrics": {"wall_seconds": 1.3}}))
        assert diff_files(base, current).exit_code == 1


@pytest.fixture(scope="module")
def dump_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("profile") / "snapshot.dump"
    assert main([
        "synthesize", "--seed", "5", "--scale", "0.15", "--points", "8",
        "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def profile_json(dump_file, tmp_path_factory):
    """One profiled refine run, shared by the CLI-gate tests below."""
    profile_path = tmp_path_factory.mktemp("profile-out") / "PROFILE.json"
    code = main([
        "--profile", str(profile_path),
        "refine", str(dump_file), "--max-iterations", "10",
    ])
    assert code == 0
    return profile_path, profile_path.with_suffix(".folded")


class TestProfileCommand:
    """``repro --profile PATH <command>``: the spine profiles the command."""

    def test_writes_versioned_profile_with_high_coverage(self, profile_json):
        profile_path, _ = profile_json
        document = json.loads(profile_path.read_text())
        assert document["schema"] == 1
        assert document["workload"]["name"] == "refine"
        # the acceptance bar: named phases own >= 90% of the wall-clock
        assert document["coverage"] >= 0.90
        assert "engine.decision" in document["phases"]
        assert "parse" in document["phases"]
        assert document["metrics"]["counter.engine.messages"] > 0

    def test_folded_file_is_valid_collapsed_stacks(self, profile_json):
        _, folded_path = profile_json
        lines = folded_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) >= 1
            assert all(":" in frame for frame in stack.split(";"))

    def test_sampling_summary_recorded(self, profile_json):
        profile_path, folded_path = profile_json
        document = json.loads(profile_path.read_text())
        assert document["sampling"]["samples"] > 0
        assert document["sampling"]["folded"] == str(folded_path)

    def test_unreadable_dump_exits_4(self, tmp_path, capsys):
        profile_path = tmp_path / "PROFILE.json"
        code = main([
            "--profile", str(profile_path),
            "refine", str(tmp_path / "missing.dump"),
        ])
        assert code == 4
        assert "error" in capsys.readouterr().err
        # A failed run still leaves its profile.
        assert json.loads(profile_path.read_text())["workload"]["name"] == "refine"

    def test_stdout_is_the_commands_own(self, tmp_path, capsys):
        """The profile table goes to stderr: ``--json`` stays parseable and
        byte-identical to the same run without ``--profile``."""
        argv = ["ingest", str(DIRTY_FEED), "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(["--profile", str(tmp_path / "P.json"), *argv]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain
        assert json.loads(profiled.out)["lines"] == 23
        assert "wrote profile to" in profiled.err


class TestBenchDiffCommand:
    def test_identical_run_exits_0(self, profile_json, capsys):
        profile_path, _ = profile_json
        code = main(["bench-diff", str(profile_path), str(profile_path)])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_1(self, profile_json, tmp_path, capsys):
        profile_path, _ = profile_json
        document = json.loads(profile_path.read_text())
        document["metrics"]["counter.engine.messages"] = (
            document["metrics"]["counter.engine.messages"] * 1.25
        )
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(document))
        code = main(["bench-diff", str(profile_path), str(regressed)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "counter.engine.messages" in out

    def test_skip_and_threshold_flags(self, profile_json, tmp_path):
        profile_path, _ = profile_json
        document = json.loads(profile_path.read_text())
        document["metrics"]["wall_seconds"] *= 10
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps(document))
        assert main(["bench-diff", str(profile_path), str(slower)]) == 1
        assert main([
            "bench-diff", str(profile_path), str(slower),
            "--skip", "*seconds*", "--skip", "coverage",
        ]) == 0

    def test_json_output(self, profile_json, capsys):
        profile_path, _ = profile_json
        code = main([
            "bench-diff", str(profile_path), str(profile_path), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0

    def test_bad_threshold_spec_is_usage_error(self, profile_json, capsys):
        profile_path, _ = profile_json
        assert main([
            "bench-diff", str(profile_path), str(profile_path),
            "--threshold", "nonsense",
        ]) == 2
        assert main([
            "bench-diff", str(profile_path), str(profile_path),
            "--threshold", "wall_seconds=abc",
        ]) == 2

    def test_missing_document_exits_4(self, tmp_path, capsys):
        assert main([
            "bench-diff", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 4
