"""End-to-end tests for the observability CLI surface:
``repro explain``, ``repro stats``, ``--trace`` and the logging flags."""

import json

import pytest

from repro.cbgp.parse import parse_script
from repro.cli import main
from repro.resilience.health import EXIT_DATA


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A refined model + health report + trace produced through the CLI."""
    root = tmp_path_factory.mktemp("obs_cli")
    dump = root / "snapshot.dump"
    assert main(
        ["synthesize", "--seed", "5", "--scale", "0.12", "--points", "8",
         "--out", str(dump)]
    ) == 0
    model = root / "model.cbgp"
    health = root / "health.json"
    trace = root / "trace.jsonl"
    assert main(
        ["refine", str(dump), "--max-iterations", "20", "--out", str(model),
         "--health-report", str(health), "--trace", str(trace)]
    ) == 0
    # pick a real (prefix, observer) pair out of the exported model
    with open(model, encoding="utf-8") as handle:
        network = parse_script(handle)
    prefix = sorted(network.prefixes(), key=str)[0]
    origin = prefix.network >> 16
    observer = sorted(asn for asn in network.ases if asn != origin)[0]
    return {
        "dump": dump,
        "model": model,
        "health": health,
        "trace": trace,
        "prefix": str(prefix),
        "observer": observer,
    }


class TestTraceFlag:
    def test_trace_file_is_jsonl(self, workspace):
        lines = workspace["trace"].read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds <= {"span-start", "span-end", "event"}
        assert "event" in kinds

    def test_trace_contains_refine_iteration_spans(self, workspace):
        names = {
            json.loads(line).get("name")
            for line in workspace["trace"].read_text().splitlines()
        }
        assert "refine-iteration" in names


class TestHealthReportContents:
    def test_metrics_snapshot_recorded(self, workspace):
        document = json.loads(workspace["health"].read_text())
        counters = document["metrics"]["counters"]
        assert counters["engine.prefixes"] > 0
        assert "engine.messages_per_prefix" in document["metrics"]["histograms"]

    def test_meta_stamp_recorded(self, workspace):
        document = json.loads(workspace["health"].read_text())
        assert document["meta"]["repro_version"]
        assert document["meta"]["seed"] == 0  # default --split-seed
        assert "refine" in " ".join(document["meta"]["argv"])


class TestStats:
    def test_text_rendering(self, workspace, capsys):
        assert main(["stats", str(workspace["health"])]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "engine.messages" in out
        assert "repro_version" in out

    def test_json_rendering(self, workspace, capsys):
        assert main(["stats", str(workspace["health"]), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["counters"]["engine.prefixes"] > 0
        assert document["meta"]["repro_version"]

    def test_missing_report_is_exit_data(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_exit_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["stats", str(bad)]) == EXIT_DATA


class TestExplain:
    def test_text_explanation_names_step(self, workspace, capsys):
        prefix = workspace["prefix"]
        assert main(["explain", str(workspace["model"]), prefix]) == 0
        out = capsys.readouterr().out
        assert "selected by step:" in out
        assert prefix in out

    def test_json_explanation(self, workspace, capsys):
        prefix = workspace["prefix"]
        assert main(
            ["explain", str(workspace["model"]), prefix, "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["prefix"] == prefix
        assert document["replay"]["status"] == "converged"
        assert document["hops"]

    def test_observer_walk(self, workspace, capsys):
        observer = workspace["observer"]
        assert main(
            ["explain", str(workspace["model"]), workspace["prefix"],
             "--observer", str(observer), "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["observer"] == observer
        assert document["hops"][0]["asn"] == observer

    def test_unknown_prefix_is_exit_data(self, workspace, capsys):
        assert main(
            ["explain", str(workspace["model"]), "203.0.113.0/24"]
        ) == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_bad_prefix_text_is_exit_data(self, workspace, capsys):
        assert main(
            ["explain", str(workspace["model"]), "not-a-prefix"]
        ) == EXIT_DATA

    def test_unknown_observer_is_exit_data(self, workspace, capsys):
        assert main(
            ["explain", str(workspace["model"]), workspace["prefix"],
             "--observer", "99999"]
        ) == EXIT_DATA

    def test_missing_model_is_exit_data(self, tmp_path, capsys):
        assert main(
            ["explain", str(tmp_path / "no.cbgp"), "10.0.0.0/24"]
        ) == EXIT_DATA


class TestLoggingFlags:
    def test_log_level_flag_accepted(self, workspace, capsys):
        assert main(
            ["--log-level", "info", "stats", str(workspace["health"])]
        ) == 0

    def test_log_json_flag_accepted(self, workspace, capsys):
        assert main(
            ["--log-json", "--log-level", "debug", "stats",
             str(workspace["health"])]
        ) == 0

    def test_bad_level_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--log-level", "loud", "stats", "x.json"])
        assert excinfo.value.code == 2
