"""Tests for logging config, run metadata, stats rendering and the
clause-provenance (``iter N``) dialect round-trip."""

import io
import json
import logging

import pytest

from repro.bgp import Network
from repro.bgp.policy import Action, Clause, Match
from repro.cbgp.export import export_network
from repro.cbgp.parse import parse_script
from repro.errors import DatasetError
from repro.net.prefix import Prefix
from repro.obs.logs import JsonFormatter, configure_logging, held_records
from repro.obs.meta import git_sha, run_metadata
from repro.obs.stats import health_stats, load_health_report, render_stats
from repro.resilience.health import RunHealth

P = Prefix("10.0.0.0/24")


class TestLogging:
    def teardown_method(self):
        configure_logging(level="warning")

    def test_sets_level_on_repro_root(self):
        configure_logging(level="debug")
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_idempotent_handler_install(self):
        configure_logging(level="info")
        configure_logging(level="info")
        assert len(logging.getLogger("repro").handlers) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_json_formatter_emits_json(self):
        stream = io.StringIO()
        configure_logging(level="info", json_format=True, stream=stream)
        logging.getLogger("repro.test").info("hello %s", "world")
        record = json.loads(stream.getvalue())
        assert record["message"] == "hello world"
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"

    def test_json_formatter_includes_exception(self):
        import sys

        formatter = JsonFormatter()
        try:
            raise ValueError("boom")
        except ValueError:
            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "failed", (),
                sys.exc_info(),
            )
        document = json.loads(formatter.format(record))
        assert document["message"] == "failed"
        assert "ValueError: boom" in document["exception"]

    def test_held_records_arrive_after_the_block_or_not_at_all(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        logger = logging.getLogger("repro.test")
        with held_records():
            logger.warning("kept")
            assert stream.getvalue() == ""
        with pytest.raises(RuntimeError), held_records():
            logger.warning("moot")
            raise RuntimeError("refused")
        logger.info("after")
        assert stream.getvalue() == (
            "WARNING repro.test: kept\nINFO repro.test: after\n"
        )
        assert len(logging.getLogger("repro").handlers) == 1


class TestRunMetadata:
    def test_keys_and_seed(self):
        meta = run_metadata(argv=["refine", "d.dump"], seed=7)
        assert meta["argv"] == ["refine", "d.dump"]
        assert meta["seed"] == 7
        assert meta["repro_version"]
        assert meta["python"].count(".") == 2

    def test_git_sha_in_this_checkout(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_sha_outside_git(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None


class TestStatsRendering:
    def _report(self):
        health = RunHealth()
        health.record_meta(run_metadata(argv=["chaos"], seed=1))
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("engine.messages").inc(42)
        registry.gauge("refine.match_rate").set(0.75)
        registry.histogram("engine.messages_per_prefix").observe(42)
        health.record_metrics(registry)
        health.phases["simulate"] = 1.5
        return health.to_dict()

    def test_health_to_dict_carries_metrics_and_meta(self):
        report = self._report()
        assert report["metrics"]["counters"]["engine.messages"] == 42
        assert report["meta"]["seed"] == 1

    def test_render_stats_shows_everything(self):
        text = render_stats(self._report())
        assert "engine.messages" in text
        assert "42" in text
        assert "refine.match_rate" in text
        assert "simulate" in text
        assert "p95" in text

    def test_health_stats_slice(self):
        document = health_stats(self._report())
        assert document["metrics"]["gauges"]["refine.match_rate"] == 0.75
        assert document["phases_seconds"]["simulate"] == 1.5

    def test_render_without_metrics_says_so(self):
        assert "none recorded" in render_stats({"exit_code": 0})

    def test_load_health_report_errors(self, tmp_path):
        with pytest.raises(DatasetError):
            load_health_report(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DatasetError):
            load_health_report(bad)
        array = tmp_path / "array.json"
        array.write_text("[1,2]")
        with pytest.raises(DatasetError):
            load_health_report(array)

    def test_load_health_report_round_trip(self, tmp_path):
        path = tmp_path / "health.json"
        health = RunHealth()
        health.record_metrics(None)  # defaults to the global registry
        health.write(path)
        assert load_health_report(path)["exit_code"] == 0


class TestIterationProvenanceRoundTrip:
    def _network_with_provenance(self):
        net = Network()
        r1, r2 = net.add_router(1), net.add_router(2)
        net.connect(r1, r2)
        session = net.get_session(r1, r2)
        session.ensure_import_map().append(
            Clause(
                Match(prefix=P),
                Action.PERMIT,
                set_med=50,
                tag="refine-rank",
                iteration=3,
            )
        )
        session.ensure_export_map().append(
            Clause(Match(prefix=P, path_len_lt=2), Action.DENY,
                   tag="refine-filter", iteration=2)
        )
        net.originate(r2, P)
        return net

    def test_iter_line_round_trips(self):
        net = self._network_with_provenance()
        buffer = io.StringIO()
        export_network(net, buffer)
        assert "iter 3" in buffer.getvalue()
        clone = parse_script(io.StringIO(buffer.getvalue()))
        iterations = {
            clause.tag: clause.iteration
            for s in clone.sessions.values()
            for route_map in (s.import_map, s.export_map)
            if route_map is not None
            for clause in route_map.clauses()
        }
        assert iterations == {"refine-rank": 3, "refine-filter": 2}

    def test_clause_without_iteration_still_parses(self):
        net = Network()
        r1, r2 = net.add_router(1), net.add_router(2)
        net.connect(r1, r2)
        session = net.get_session(r1, r2)
        session.ensure_import_map().append(
            Clause(Match(prefix=P), Action.PERMIT, set_med=10)
        )
        net.originate(r2, P)
        buffer = io.StringIO()
        export_network(net, buffer)
        assert "iter" not in buffer.getvalue()
        clone = parse_script(io.StringIO(buffer.getvalue()))
        clause = next(
            clause
            for s in clone.sessions.values()
            if s.import_map is not None
            for clause in s.import_map.clauses()
        )
        assert clause.iteration is None


class TestSupervisionStats:
    def _parallel_report(self):
        from repro.net.prefix import Prefix
        from repro.resilience.retry import (
            POISON,
            TIMEOUT,
            PrefixOutcome,
            ResilienceStats,
        )

        health = RunHealth()
        stats = ResilienceStats(supervision={
            "workers": 2, "spawned": 5, "deaths": 3, "restarts": 3,
            "task_timeouts": 1, "resubmits": 2, "drained": False,
        })
        stats.outcomes.append(
            PrefixOutcome.supervised_failure(Prefix("10.0.0.0/24"), POISON, 2, 1.0)
        )
        stats.outcomes.append(
            PrefixOutcome.supervised_failure(Prefix("10.1.0.0/24"), TIMEOUT, 2, 1.0)
        )
        health.record_simulation(stats)
        return health.to_dict()

    def test_health_stats_slice_has_outcomes_and_supervision(self):
        document = health_stats(self._parallel_report())
        assert document["simulation"]["outcomes"]["poison"] == 1
        assert document["simulation"]["outcomes"]["timeout"] == 1
        assert document["simulation"]["supervision"]["deaths"] == 3

    def test_render_shows_poison_and_supervision_counters(self):
        text = render_stats(self._parallel_report())
        assert "poison" in text
        assert "timeout" in text
        assert "supervision:" in text
        assert "deaths" in text
        assert "task_timeouts" in text

    def test_render_marks_interrupted_runs(self):
        report = self._parallel_report()
        report["interrupted"] = True
        assert "graceful shutdown" in render_stats(report)
