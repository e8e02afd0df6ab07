"""Tests for phase profiling, stack sampling, and PROFILE documents."""

import json
import re
import time

import pytest

from repro.bgp import Clause, Match, Network, simulate
from repro.command import json_text
from repro.core.model import MODEL_DECISION_CONFIG
from repro.net.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import (
    ENGINE_PHASES,
    PHASE_DECISION,
    PHASE_DISPATCH,
    NullProfiler,
    PhaseProfiler,
    build_profile_document,
    get_profiler,
    profiling,
    render_profile,
    set_profiler,
)
from repro.obs.sampling import StackSampler
from repro.runstate import atomic_write


def _spin(seconds: float) -> None:
    """Burn CPU (not sleep) so both clocks advance."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestPhaseProfiler:
    def test_exclusive_attribution_no_double_counting(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            _spin(0.02)
            with profiler.phase("inner"):
                _spin(0.02)
            _spin(0.01)
        outer = profiler.phases["outer"]
        inner = profiler.phases["inner"]
        # inner's time must NOT also appear in outer (self-time only)
        assert inner.wall_seconds == pytest.approx(0.02, abs=0.01)
        assert outer.wall_seconds == pytest.approx(0.03, abs=0.01)
        assert profiler.attributed_wall_seconds == pytest.approx(
            0.05, abs=0.02
        )

    def test_switch_replaces_top_of_stack(self):
        profiler = PhaseProfiler()
        profiler.push("a")
        _spin(0.01)
        profiler.switch("b")
        _spin(0.01)
        profiler.pop()
        assert profiler.phases["a"].entries == 1
        assert profiler.phases["b"].entries == 1
        assert profiler.phases["a"].wall_seconds == pytest.approx(
            0.01, abs=0.008
        )
        assert profiler.phases["b"].wall_seconds == pytest.approx(
            0.01, abs=0.008
        )

    def test_coverage_is_attributed_over_total(self):
        profiler = PhaseProfiler()
        with profiler.phase("work"):
            _spin(0.02)
        assert 0.0 < profiler.coverage() <= 1.0
        # against an explicit wall-clock equal to the attributed time
        assert profiler.coverage(
            profiler.attributed_wall_seconds
        ) == pytest.approx(1.0)
        assert profiler.coverage(0.0) == 0.0

    def test_time_outside_any_phase_is_unattributed(self):
        profiler = PhaseProfiler()
        _spin(0.02)  # no phase active
        with profiler.phase("work"):
            _spin(0.01)
        assert profiler.coverage() < 0.9

    def test_report_sorted_by_wall_clock(self):
        profiler = PhaseProfiler()
        with profiler.phase("small"):
            _spin(0.005)
        with profiler.phase("big"):
            _spin(0.03)
        assert list(profiler.report()) == ["big", "small"]

    def test_null_profiler_is_disabled_noop(self):
        profiler = NullProfiler()
        assert not profiler.enabled
        profiler.push("x")
        profiler.switch("y")
        profiler.pop()
        with profiler.phase("z"):
            pass
        assert profiler.phases == {}

    def test_default_global_profiler_is_null(self):
        assert isinstance(get_profiler(), NullProfiler)

    def test_profiling_context_installs_and_restores(self):
        profiler = PhaseProfiler()
        before = get_profiler()
        with profiling(profiler) as installed:
            assert installed is profiler
            assert get_profiler() is profiler
        assert get_profiler() is before

    def test_set_profiler_none_restores_null(self):
        set_profiler(PhaseProfiler())
        set_profiler(None)
        assert isinstance(get_profiler(), NullProfiler)


class TestEngineIntegration:
    def _diamond(self):
        net = Network("diamond")
        routers = {asn: net.add_router(asn) for asn in (1, 2, 3, 4)}
        net.connect(routers[1], routers[2])
        net.connect(routers[1], routers[3])
        net.connect(routers[2], routers[4])
        net.connect(routers[3], routers[4])
        net.originate(routers[4], Prefix("10.0.0.0/24"))
        return net

    def test_simulation_attributes_engine_phases(self):
        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
        try:
            with profiling(PhaseProfiler()) as profiler:
                simulate(self._diamond())
        finally:
            set_registry(previous_registry)
        for phase in (PHASE_DISPATCH, PHASE_DECISION):
            assert phase in profiler.phases
            assert profiler.phases[phase].entries > 0
        assert set(profiler.phases) <= set(ENGINE_PHASES)
        # per-prefix hot-path counters appear only under a profiler
        counters = registry.snapshot()["counters"]
        assert 'engine.prefix.messages{prefix="10.0.0.0/24"}' in counters
        assert counters["engine.messages"] > 0
        assert counters["engine.decisions"] > 0

    def test_unprofiled_simulation_registers_no_prefix_counters(self):
        registry = MetricsRegistry()
        previous_registry = set_registry(registry)
        try:
            simulate(self._diamond())
        finally:
            set_registry(previous_registry)
        counters = registry.snapshot()["counters"]
        assert not any(name.startswith("engine.prefix.") for name in counters)
        assert counters["engine.messages"] > 0

    def test_profiled_and_unprofiled_runs_agree(self):
        plain = self._diamond()
        simulate(plain)
        profiled = self._diamond()
        with profiling(PhaseProfiler()):
            simulate(profiled)
        prefix = Prefix("10.0.0.0/24")
        for rid in plain.routers:
            a = plain.routers[rid].best(prefix)
            b = profiled.routers[rid].best(prefix)
            assert (a.as_path if a else None) == (b.as_path if b else None)

    def test_incremental_decisions_stay_inside_the_decision_phase(self):
        """Profiling does not force the full scan (no observer does), and a
        message settled against the standing best alone is still one entry
        of ``engine.decision``."""

        def clique():
            net = Network("clique")
            routers = [net.add_router(asn) for asn in range(1, 9)]
            for index, a in enumerate(routers):
                for b in routers[index + 1:]:
                    net.connect(a, b)
            net.originate(routers[0], Prefix("10.0.0.0/24"))
            return net

        plain = simulate(clique(), config=MODEL_DECISION_CONFIG)
        with profiling(PhaseProfiler()) as profiler:
            profiled = simulate(clique(), config=MODEL_DECISION_CONFIG)
        assert profiled == plain  # every counter, candidates_ranked included
        assert plain.candidates_ranked < 2 * plain.decisions
        assert profiler.phases[PHASE_DECISION].entries == plain.decisions
        assert set(profiler.phases) <= set(ENGINE_PHASES)
        assert profiler._stack == []

    def test_raising_import_map_leaves_the_phase_stack_balanced(self):
        """An exception on the import side must not strand ``engine.dispatch``
        on the stack: every later phase would be charged to it."""
        net = self._diamond()
        for session in net.sessions.values():
            session.ensure_import_map().append(Clause(Match(path_regex="(")))
        with profiling(PhaseProfiler()) as profiler:
            with pytest.raises(re.error):
                simulate(net)
            profiler.push("after")
            _spin(0.002)
            profiler.pop()
        assert profiler._stack == []
        assert profiler.phases["after"].wall_seconds >= 0.002


class TestStackSampler:
    def test_thread_mode_samples_the_calling_thread(self):
        with StackSampler(interval=0.001) as sampler:
            _spin(0.06)
        assert sampler.samples > 0
        assert sampler.stacks
        joined = " ".join(
            ";".join(stack) for stack in sampler.stacks
        )
        assert "test_obs_profile:_spin" in joined

    def test_folded_output_format(self, tmp_path):
        sampler = StackSampler(interval=0.001)
        with sampler:
            _spin(0.05)
        path = tmp_path / "stacks.folded"
        lines_written = sampler.write_folded(path)
        lines = path.read_text().splitlines()
        assert lines_written == len(lines) > 0
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack  # frames present
            assert int(count) >= 1
            for frame in stack.split(";"):
                assert ":" in frame  # module:function tokens
        # counts add up to the sample total
        assert sum(int(l.rpartition(" ")[2]) for l in lines) == sampler.samples

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            StackSampler(interval=-1.0)
        with pytest.raises(ValueError):
            StackSampler(interval=0.0)

    def test_double_start_refused_stop_idempotent(self):
        sampler = StackSampler(interval=0.01)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()
        sampler.stop()

    def test_summary_describes_the_run(self):
        sampler = StackSampler(interval=0.002)
        with sampler:
            _spin(0.02)
        summary = sampler.summary("out.folded")
        assert summary["mode"] == "thread"
        assert summary["samples"] == sampler.samples
        assert summary["folded"] == "out.folded"


class TestProfileDocument:
    def _document(self):
        registry = MetricsRegistry()
        registry.counter("engine.messages").inc(42)
        profiler = PhaseProfiler()
        with profiler.phase("parse"):
            _spin(0.01)
        return build_profile_document(
            profiler,
            wall_seconds=0.02,
            cpu_seconds=0.02,
            workload={"name": "refine", "dump": "x.dump"},
            meta={"git_sha": "abc"},
            registry=registry,
        )

    def test_schema_and_flat_metrics(self):
        document = self._document()
        assert document["schema"] == 2
        assert document["workload"]["name"] == "refine"
        assert "metrics" not in document
        assert document["counters"]["engine.messages"] == 42
        assert "wall_seconds" in document["phases"]["parse"]
        assert 0.0 <= document["coverage"] <= 1.0
        assert document["meta"]["git_sha"] == "abc"

    def test_write_and_reload(self, tmp_path):
        """The document survives the way ``repro --profile`` writes it."""
        document = self._document()
        path = tmp_path / "PROFILE.json"
        atomic_write(path, json_text(document) + "\n")
        assert json.loads(path.read_text()) == document

    def test_render_mentions_phases_and_coverage(self):
        text = render_profile(self._document())
        assert "workload=refine" in text
        assert "parse" in text
        assert "coverage=" in text
