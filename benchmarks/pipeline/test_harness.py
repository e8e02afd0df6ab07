"""Tests of the benchmark's own arithmetic (``pytest benchmarks/pipeline``).

Outside the tier-1 ``testpaths`` on purpose: these check the instrument,
not the program.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    highest_supported_percentile,
    median_and_tail,
    nearest_rank,
    self_seconds,
    stage_coverage,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def make_spans() -> list[Span]:
    return [
        Span(0, None, "workload", "w", 0.0, 10.0),
        Span(1, 0, "stage.ingest", "w", 0.0, 4.0),
        Span(2, 1, "data.dump_read", "w", 0.5, 2.5),
        Span(3, 1, "data.clean", "w", 2.5, 3.5),
        Span(4, 0, "stage.model", "w", 4.0, 9.75),
    ]


def test_self_time_is_span_minus_children():
    own = self_seconds(make_spans())
    assert own == {0: 0.25, 1: 1.0, 2: 2.0, 3: 1.0, 4: 5.75}
    assert sum(own.values()) == 10.0  # self times partition the root


def test_stage_coverage_is_children_over_root():
    assert stage_coverage(make_spans()) == 0.975


def test_recorder_nests_and_sums_by_name():
    recorder = Recorder("w")
    with recorder.span("workload"):
        with recorder.span("stage.a"):
            assert recorder.call("layer.f", lambda x: x + 1, 1) == 2
            recorder.call("layer.f", lambda: None)
    parents = [span.parent for span in recorder.spans]
    assert parents == [None, 0, 1, 1]
    assert len(recorder.durations("layer.f")) == 2
    assert recorder.seconds("layer.f") <= recorder.seconds("stage.a")
    assert all(span.workload == "w" for span in recorder.spans)


def test_stage_scales_itself_and_its_children_to_reference_seconds(monkeypatch):
    samples = iter([spans.REFERENCE_SECONDS / 2, spans.REFERENCE_SECONDS / 2,
                    spans.REFERENCE_SECONDS * 2])
    monkeypatch.setattr(spans, "calibrate", lambda: next(samples))
    recorder = Recorder("w")
    with recorder.span("workload"):
        with recorder.stage("fast"):  # the loop ran twice as fast as the reference
            recorder.call("layer.f", lambda: None)
        with recorder.stage("mixed"):  # shares the sample after "fast"
            pass
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["stage.fast"].speed == by_name["layer.f"].speed == 2.0
    assert by_name["stage.mixed"].speed == 1 / 1.25
    assert by_name["workload"].speed == by_name["calibrate"].speed == 1.0
    fast = by_name["stage.fast"]
    assert fast.seconds == fast.raw_seconds * 2.0
    assert [s.name for s in recorder.spans].count("calibrate") == 3


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(199) == 90.0
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(300) == 95.0  # the query chunks
    assert highest_supported_percentile(527) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(10000) == 99.9


def test_median_and_tail():
    samples = [float(i) for i in range(1, 201)]
    assert nearest_rank(samples, 95.0) == 190.0
    assert median_and_tail(samples) == (100.5, 95.0, 190.0)
    assert median_and_tail([3.0, 1.0, 2.0]) == (2.0, 100.0, 3.0)


SPEC = {"end_to_end": [{"name": "model_s", "bound": 0.10}, {"name": "wall_s", "bound": 0.10}]}


def record(model_s: list[float], messages: int = 1000) -> dict:
    end_to_end = {
        metric["name"]: {"samples": [10.0, 10.1, 9.9]}
        for metric in report.load_spec()["end_to_end"]
    }
    end_to_end["model_s"] = {"samples": model_s}
    return {
        "workloads": {
            "dense-obs": {
                "exact": {"bgp.truth_messages": messages, "serve.pairs": 1936},
                "end_to_end": end_to_end,
            }
        }
    }


def verdicts(parent: dict, change: dict) -> dict[str, str]:
    return {name: outcome for _, name, outcome, _ in compare.compare(parent, change, SPEC)}


def test_compare_same_runs_are_ok_and_equal():
    base = record([5.0, 5.05, 4.95])
    outcome = verdicts(base, copy.deepcopy(base))
    assert set(outcome.values()) == {compare.OK, compare.EQUAL}
    assert len(outcome) == 4  # one row per exact statistic and per metric


def test_compare_flags_injected_12_percent_model_regression():
    outcome = verdicts(record([5.0, 5.05, 4.95]), record([5.6, 5.65, 5.55]))
    assert outcome["model_s"] == compare.WORSE
    assert outcome["wall_s"] == compare.OK


def test_compare_within_bound_is_ok():
    outcome = verdicts(record([5.0, 5.05, 4.95]), record([5.3, 5.35, 5.25]))
    assert outcome["model_s"] == compare.OK  # +6% < 10%


def test_compare_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = record([5.0, 6.0, 4.4])
    assert verdicts(noisy, record([5.6, 5.0, 6.2]))["model_s"] == compare.UNRESOLVED
    assert verdicts(noisy, record([4.0, 4.3, 3.8]))["model_s"] == compare.OK


def test_compare_flags_changed_message_count(tmp_path, capsys):
    parent, change = record([5.0, 5.05, 4.95]), record([5.0, 5.05, 4.95], messages=1001)
    outcome = verdicts(parent, change)
    assert outcome["bgp.truth_messages"] == compare.CHANGED
    assert outcome["serve.pairs"] == compare.EQUAL
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "1000 -> 1001" in capsys.readouterr().out


def test_benchmark_json_meets_the_contract():
    spec = report.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/pipeline"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(report.PROFILER_ROWS) <= per_layer


def test_benchmark_json_names_the_pinned_workloads():
    from workloads import WORKLOADS

    spec = report.load_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    pinned = WORKLOADS["dense-obs"]
    moved = pinned.offset(3)
    assert (moved.world.seed, moved.observation_seed, moved.split_seed) == (
        pinned.world.seed + 3, pinned.observation_seed + 3, pinned.split_seed + 3,
    )
    assert replace(moved.world, seed=pinned.world.seed) == pinned.world
