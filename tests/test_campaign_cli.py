"""End-to-end tests for ``repro campaign``.

Covers the acceptance criteria at the CLI surface: the full depeer sweep
over a synthetic fixture ranks identically for ``--workers 1`` and
``--workers 4``, usage errors exit 2 naming the problem, and a
SIGTERM'd campaign resumes from its checkpoint to a bit-identical
report (the PR-6 subprocess pattern).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main

pytestmark = pytest.mark.timeout(600)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Synthetic dump, refined model and compiled baseline artifact."""
    path = tmp_path_factory.mktemp("campaign")
    assert main(
        ["synthesize", "--seed", "5", "--scale", "0.2", "--points", "12",
         "--out", str(path / "snap.dump")]
    ) == 0
    assert main(
        ["refine", str(path / "snap.dump"), "--out", str(path / "model.cbgp")]
    ) == 0
    assert main(
        ["compile-artifact", str(path / "model.cbgp"),
         "--out", str(path / "pred.artifact")]
    ) == 0
    return path


def campaign(fixture_dir, *extra):
    return main(
        ["campaign", *extra[:1], str(fixture_dir / "model.cbgp"),
         "--baseline", str(fixture_dir / "pred.artifact"), *extra[1:]]
    )


class TestCampaignCli:
    def test_depeer_smoke_ranks_and_exits_zero(self, fixture_dir, capsys):
        code = campaign(fixture_dir, "depeer", "--max-scenarios", "3")
        captured = capsys.readouterr()
        assert code == 0
        assert "campaign depeer: 3 scenario(s), 3 completed" in captured.out
        assert "blast" in captured.out
        assert "dropped by --max-scenarios" in captured.err

    def test_workers_report_bit_identical_to_sequential(
        self, fixture_dir, capsys
    ):
        assert campaign(
            fixture_dir, "depeer", "--max-scenarios", "4", "--json"
        ) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert campaign(
            fixture_dir, "depeer", "--max-scenarios", "4", "--json",
            "--workers", "4",
        ) == 0
        parallel = json.loads(capsys.readouterr().out)
        sequential.pop("meta")
        parallel.pop("meta")
        assert parallel == sequential

    def test_report_file_written(self, fixture_dir, tmp_path, capsys):
        report = tmp_path / "campaign.json"
        assert campaign(
            fixture_dir, "depeer", "--max-scenarios", "2",
            "--report", str(report),
        ) == 0
        capsys.readouterr()
        document = json.loads(report.read_text())
        assert document["kind"] == "depeer"
        assert document["counts"]["scenarios"] == 2
        assert "meta" in document

    def test_stats_reads_the_report_resumes_and_origins_converged_ahead(
        self, fixture_dir, tmp_path, capsys
    ):
        report = tmp_path / "campaign.json"
        assert campaign(
            fixture_dir, "depeer", "--max-scenarios", "4", "--report", str(report),
        ) == 0
        meta = json.loads(report.read_text())["meta"]
        counters = meta["metrics"]["counters"]
        assert meta["origins_converged_ahead"] > 0
        assert counters["engine.resumes"] > 0 and counters["engine.prefixes"] > 0
        assert counters["engine.converged_ahead"] == meta["origins_converged_ahead"]
        capsys.readouterr()
        assert main(["stats", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, value in (
            ("origins_converged_ahead", meta["origins_converged_ahead"]),
            ("engine.resumes", counters["engine.resumes"]),
            ("campaign.scenarios_completed", 4),
        ):
            assert [line.split() for line in lines if name in line] == [
                [name, str(value)]
            ]

    def test_hijack_requires_victim(self, fixture_dir, capsys):
        code = campaign(fixture_dir, "hijack")
        assert code == 2
        assert "--victim" in capsys.readouterr().err

    def test_catchment_requires_two_sites(self, fixture_dir, capsys):
        code = campaign(fixture_dir, "catchment", "--sites", "10")
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_unknown_as_is_usage_error_naming_it(self, fixture_dir, capsys):
        code = campaign(fixture_dir, "depeer", "--ases", "64999")
        assert code == 2
        assert "AS 64999" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, tmp_path, capsys):
        code = main(["campaign", "depeer", str(tmp_path / "nope.cbgp")])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_hijack_reports_capture(self, fixture_dir, capsys):
        code = campaign(
            fixture_dir, "hijack", "--victim", "10",
            "--attackers", "100", "--json",
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        scenario = document["scenarios"][0]
        assert scenario["key"] == "hijack:AS100->AS10"
        assert scenario["detail"]["capture_fraction"] > 0


class TestSigtermResume:
    """Acceptance: SIGTERM mid-campaign, then --resume, equals uninterrupted."""

    def _spawn(self, args):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign", *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigterm_says_what_was_left_in_a_noun_that_fits_scenarios(
        self, fixture_dir, tmp_path, capsys, monkeypatch
    ):
        """One interrupt line: the ``ShutdownRequested`` says it, ``main``
        prints that text and adds where to resume from.  The signal is a
        real one, raised as the first scenario finishes."""
        from repro.campaign import EdgeFailureScenario, commands
        from repro.errors import ShutdownRequested

        run, run_campaign, raised = EdgeFailureScenario.run, commands.run_campaign, []

        def run_then_sigterm(scenario, *args):
            value = run(scenario, *args)
            os.kill(os.getpid(), signal.SIGTERM)
            return value

        def recording(*args, **kwargs):
            try:
                return run_campaign(*args, **kwargs)
            except ShutdownRequested as shutdown:
                raised.append(shutdown)
                raise

        monkeypatch.setattr(EdgeFailureScenario, "run", run_then_sigterm)
        monkeypatch.setattr(commands, "run_campaign", recording)
        ckpt = tmp_path / "run.ckpt"
        code = campaign(
            fixture_dir, "depeer", "--max-scenarios", "3", "--checkpoint", str(ckpt)
        )
        assert code == 5
        shutdown, = raised
        assert len(shutdown.pending) == 2
        assert str(shutdown) == (
            f"interrupted by signal {int(signal.SIGTERM)}: "
            "2 unit(s) of work unfinished"
        )
        interrupt_line = capsys.readouterr().err.splitlines()[-1]
        assert "prefix" not in interrupt_line
        assert interrupt_line == (
            f"{shutdown}; checkpoint saved to {ckpt}; "
            "rerun with --resume to continue"
        )

    def test_sigterm_then_resume_matches_uninterrupted(
        self, fixture_dir, tmp_path
    ):
        base_args = [
            "depeer", str(fixture_dir / "model.cbgp"),
            "--baseline", str(fixture_dir / "pred.artifact"),
            "--max-scenarios", "8",
        ]

        # Baseline: uninterrupted run.
        process = self._spawn(
            [*base_args, "--report", str(tmp_path / "base.json"),
             "--checkpoint", str(tmp_path / "base.ckpt")]
        )
        assert process.wait(timeout=300) == 0

        # Interrupted run: SIGTERM once the first checkpoint write lands.
        ckpt = tmp_path / "run.ckpt"
        run_args = [
            *base_args, "--report", str(tmp_path / "run.json"),
            "--checkpoint", str(ckpt),
        ]
        process = self._spawn(run_args)
        try:
            deadline = time.time() + 120
            while not ckpt.exists() and time.time() < deadline:
                time.sleep(0.01)
                if process.poll() is not None:
                    break
            assert ckpt.exists(), "no checkpoint appeared before the deadline"
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
        if code == 5:
            partial = json.loads(ckpt.read_text())
            assert 0 < len(partial["completed"]) < 8
        else:
            # The race is legal: the campaign may have finished before
            # the signal landed; the resume still has to be a no-op.
            assert code == 0

        # Resume and compare against the baseline.
        process = self._spawn([*run_args, "--resume"])
        assert process.wait(timeout=300) == 0
        resumed = json.loads((tmp_path / "run.json").read_text())
        base = json.loads((tmp_path / "base.json").read_text())
        assert resumed["meta"]["resumed"] > 0 or code == 0
        resumed.pop("meta")
        base.pop("meta")
        assert resumed == base
