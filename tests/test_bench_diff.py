"""Tests for ``repro --profile PATH``: the spine profiles the command."""

import json
from pathlib import Path

import pytest

from repro.cli import main

DIRTY_FEED = Path(__file__).parent / "fixtures" / "dirty_feed.dump"


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
    """One profiled refine run, shared by the tests below."""
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
        assert document["schema"] == 2
        assert document["workload"]["name"] == "refine"
        # the acceptance bar: named phases own >= 90% of the wall-clock
        assert document["coverage"] >= 0.90
        assert "engine.decision" in document["phases"]
        assert "parse" in document["phases"]
        assert document["counters"]["engine.messages"] > 0
        assert "metrics" not in document

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

    def test_stdout_is_the_commands_own(self, dump_file, tmp_path, capsys):
        """The profile table goes to stderr: stdout (``--json`` included)
        is byte-identical to the same run without ``--profile``."""
        outputs = []
        for argv in (
            ["ingest", str(DIRTY_FEED), "--json"],
            ["refine", str(dump_file), "--max-iterations", "10"],
        ):
            assert main(argv) == 0
            plain = capsys.readouterr().out
            assert main(["--profile", str(tmp_path / "P.json"), *argv]) == 0
            profiled = capsys.readouterr()
            assert profiled.out == plain, argv
            assert "wrote profile to" in profiled.err
            outputs.append(profiled.out)
        assert json.loads(outputs[0])["lines"] == 23
        assert outputs[1].startswith("refinement: ")
