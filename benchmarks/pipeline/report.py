"""Named metrics from pass results, checked against ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one list of metric
names, units and regression bounds; this module computes a value for
every name in it and refuses to report if the two ever drift apart.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

PROFILER_ROWS = {
    "bgp.phase.dispatch_s": "engine.dispatch",
    "bgp.phase.rib_merge_s": "engine.rib-merge",
    "bgp.phase.decision_s": "engine.decision",
    "bgp.phase.export_s": "engine.export",
    "bgp.phase.route_map_s": "engine.route-map",
    "core.phase.grade_s": "refine.grade",
    "core.phase.resimulate_s": "refine.resimulate",
}
"""Per-layer metric -> the shipped ``PhaseProfiler`` phase it reports."""


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def units(spec: dict, section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def end_to_end(result, import_seconds: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    stage = result.stage_seconds
    return {
        "setup_s": import_seconds
        + statistics.median(result.recorder.durations("stage.setup")),
        "wall_s": result.wall_seconds,
        "peak_rss_mb": peak_rss_mb,
        "truth_sim_s": stage("truth"),
        "ingest_s": stage("ingest"),
        "model_s": stage("model"),
        "validate_s": stage("validate"),
        "compile_s": stage("compile"),
        "query_us": result.values["query_us"],
        "campaign_s": stage("campaign"),
    }


def per_layer(result, names: list[str], untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    A name the pass recorded directly is taken as is; any other
    ``layer.call_s`` is the total time of the spans named ``layer.call``.
    """
    recorder, values = result.recorder, dict(result.values)
    seconds = recorder.seconds
    # The profiler reads wall-clock; bring its rows to the pass's mean speed.
    speed = recorder.speed()
    for name, phase in PROFILER_ROWS.items():
        values[name] = result.phases.get(phase, 0.0) * speed
    values["data.synth_s"] = statistics.median(recorder.durations("data.synth"))
    values["data.routes_per_s"] = values["data.dump_routes"] / (
        seconds("data.dump_read") + seconds("data.clean")
    )
    values["bgp.truth_msgs_per_s"] = values["bgp.truth_messages"] / result.stage_seconds(
        "truth"
    )
    values["campaign.scenarios_per_min"] = (
        values["campaign.scenarios"] * 60.0 / result.stage_seconds("campaign")
    )
    values["parallel.speedup_w2"] = seconds("serve.compile") / seconds(
        "parallel.compile_w2"
    )
    values["obs.profile_overhead_frac"] = result.wall_seconds / untraced_wall - 1.0
    metrics = {}
    for name in names:
        if name in values:
            metrics[name] = values[name]
        elif name.endswith("_s") and recorder.durations(name[:-2]):
            metrics[name] = seconds(name[:-2])
        else:
            raise KeyError(f"BENCHMARK.json names {name!r} but the pass did not measure it")
    return metrics


def median_of_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of every metric; peak memory is the maximum."""
    merged = {
        name: statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    merged["peak_rss_mb"] = max(values["peak_rss_mb"] for values in per_pass)
    return merged


def aggregate(documents: list[dict], section: str) -> dict[str, dict]:
    """Per metric of ``section``: the median over runs and every sample."""
    merged = {}
    for name in documents[0][section]:
        samples = [document[section][name] for document in documents]
        merged[name] = {"value": statistics.median(samples), "samples": samples}
    return merged


def render(title: str, stats: dict[str, dict], unit_of: dict[str, str]) -> str:
    """One ``name median unit`` line per metric; min, max and count of several runs."""
    width = max(len(name) for name in stats)
    lines = [title]
    for name, stat in stats.items():
        line = f"  {name:<{width}}  {stat['value']:>14.6g} {unit_of[name]}"
        samples = stat["samples"]
        if len(samples) > 1:
            line += f"  (min {min(samples):.6g}, max {max(samples):.6g}, n={len(samples)})"
        lines.append(line)
    return "\n".join(lines)
