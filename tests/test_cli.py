"""End-to-end tests for the ``repro`` command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.bgp.network import Network
from repro.cbgp.export import export_network
from repro.cli import build_parser, main
from repro.command import parallel_config
from repro.net.prefix import prefix_for_asn
from repro.resilience.faults import inject_dispute_wheel


@pytest.fixture(scope="module")
def dump_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "snapshot.dump"
    code = main(
        [
            "synthesize",
            "--seed",
            "5",
            "--scale",
            "0.2",
            "--points",
            "12",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def wheel_config(tmp_path):
    """A saved 4-AS model whose only prefix sits on a dispute wheel."""
    net = Network("gadget")
    spokes = {asn: net.add_router(asn) for asn in (1, 2, 3)}
    hub = net.add_router(4)
    prefix = prefix_for_asn(4)
    net.originate(hub, prefix)
    for router in spokes.values():
        net.connect(router, hub)
    for a, b in ((1, 2), (2, 3), (3, 1)):
        net.connect(spokes[a], spokes[b])
    inject_dispute_wheel(net, prefix, (1, 2, 3))
    config = tmp_path / "wheel.cbgp"
    with open(config, "w", encoding="ascii") as handle:
        export_network(net, handle)
    return config


class TestSynthesize:
    def test_writes_dump_and_prints_seeds(self, dump_file, capsys):
        assert dump_file.exists()
        assert dump_file.read_text().startswith("TABLE_DUMP2|")

    def test_writes_ground_truth_config(self, tmp_path):
        dump = tmp_path / "d.dump"
        config = tmp_path / "gt.cbgp"
        code = main(
            [
                "synthesize", "--seed", "3", "--scale", "0.15",
                "--points", "8", "--out", str(dump), "--cbgp", str(config),
            ]
        )
        assert code == 0
        assert "net add node" in config.read_text()


class TestIngestPrune:
    def test_json_stdout_is_the_report_alone(self, dump_file, capsys):
        """``--prune``'s summary is progress on stderr, as ``--format
        as-rel``'s is, so ``--json`` stdout parses."""
        code = main(["ingest", str(dump_file), "--synthetic", "--prune", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["accepted"] > 0
        assert "pruned:" in captured.err


class TestAnalyze:
    def test_reports_dataset_and_diversity(self, dump_file, capsys):
        code = main(["analyze", str(dump_file), "--seeds", "10", "11"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "level-1 clique" in captured
        assert "multipath pairs" in captured
        assert "table 1 quantiles" in captured

    def test_defaults_seed_to_highest_degree(self, dump_file, capsys):
        assert main(["analyze", str(dump_file)]) == 0


class TestRefineAndWhatIf:
    def test_refine_reports_and_saves_model(self, dump_file, tmp_path, capsys):
        model_path = tmp_path / "model.cbgp"
        code = main(["refine", str(dump_file), "--out", str(model_path)])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "converged=True" in captured
        assert "validation" in captured
        assert model_path.exists()

    def test_whatif_on_saved_model(self, dump_file, tmp_path, capsys):
        model_path = tmp_path / "model.cbgp"
        assert main(["refine", str(dump_file), "--out", str(model_path)]) == 0
        capsys.readouterr()
        code = main(["whatif", str(model_path), "--remove", "10", "11"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "changed pairs" in captured


class TestLint:
    @pytest.fixture(scope="class")
    def model_file(self, dump_file, tmp_path_factory):
        path = tmp_path_factory.mktemp("lint") / "model.cbgp"
        assert main(["refine", str(dump_file), "--out", str(path)]) == 0
        return path

    def test_clean_model_exits_zero(self, model_file, capsys):
        code = main(["lint", str(model_file)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0 errors" in captured

    def test_dump_enables_dataset_rules(self, model_file, dump_file, capsys):
        code = main(["lint", str(model_file), "--dump", str(dump_file)])
        captured = capsys.readouterr().out
        assert code == 0, captured

    def test_json_report_is_machine_readable(self, model_file, capsys):
        import json

        code = main(["lint", str(model_file), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == payload["exit_code"] == 0
        assert set(payload["passes"]) == {"safety", "policy", "topology"}

    def test_wheel_config_exits_nonzero_and_names_the_wheel(
        self, wheel_config, capsys
    ):
        code = main(["lint", str(wheel_config)])
        captured = capsys.readouterr().out
        assert code == 1
        assert "safety-dispute-wheel" in captured
        assert str(prefix_for_asn(4)) in captured

    def test_missing_model_is_a_data_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "nope.cbgp")])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_unknown_pass_is_a_usage_error(self, model_file, capsys):
        code = main(["lint", str(model_file), "--passes", "sorcery"])
        assert code == 2
        assert "unknown analysis passes" in capsys.readouterr().err

    def test_refine_lint_gate_flag_is_accepted(self, dump_file, capsys):
        assert main(["refine", str(dump_file), "--lint-gate"]) == 0


def option_surface(action: argparse.Action) -> dict:
    """What a user, a script or ``--help`` can see of one argument."""
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "metavar": action.metavar,
        "required": action.required,
        "help": action.help,
    }


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """The global options, then every subcommand's, in ``--help`` order
    (each subcommand's module imported, as a run of it would)."""
    options = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    surface = {"options": [
        option_surface(a) for a in options
        if not isinstance(a, argparse._SubParsersAction)
    ]}
    for action in options:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for subparser in action.choices.values():
                subparser.load()
            surface["commands"] = [
                {"name": name, "help": helps[name], **cli_surface(subparser)}
                for name, subparser in action.choices.items()
            ]
    return json.loads(json.dumps(surface))  # tuples read back as lists


class TestParser:
    def test_the_tree_is_the_one_cli_py_built_before_the_commands_moved(self):
        """``fixtures/cli_surface.json`` is ``cli_surface(build_parser())``.

        It was first taken at c0365e9, when ``cli.py`` held all 15
        ``add_parser`` sites, so the move beside the subsystems changed
        nothing a user sees.  Regenerated since only on purpose: parse-time
        validators on ten values, ``repro profile``'s nine settable values
        replaced by the one global ``--profile PATH``, and the PROFILE.json
        comparator command deleted (``compare.py`` judges performance)."""
        expected = json.loads(
            (Path(__file__).parent / "fixtures" / "cli_surface.json").read_text()
        )
        commands = {command["name"]: command for command in expected["commands"]}
        assert len(commands) == 13
        assert sum(len(c["options"]) for c in commands.values()) == 117
        assert [o["flags"] for o in expected["options"]] == [
            ["--log-level"], ["--log-json"], ["--profile"],
        ]
        assert cli_surface(build_parser()) == expected

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_chaos_points_must_be_positive(self, points, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["chaos", "--points", points])
        assert refused.value.code == 2
        assert "error: argument --points: must be 1 or more" in capsys.readouterr().err

    def test_whatif_max_changes_must_not_be_negative(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["whatif", "m.cbgp", "--remove", "1", "2", "--max-changes", "-1"])
        assert refused.value.code == 2
        assert "error: argument --max-changes: must be 0 or more" in capsys.readouterr().err

    def test_no_subcommand_shows_help(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["refine", "absent.txt", "--train-fraction", "1.5"],
            ["refine", "absent.txt", "--train-fraction", "0"],
            ["campaign", "depeer", "absent.cfg", "--baseline", "absent.artifact",
             "--max-scenarios", "-1"],
            ["serve", "absent.artifact", "--cache-size", "0"],
            ["synthesize", "--out", "unwritten.dump", "--points", "0"],
            ["synthesize", "--out", "unwritten.dump", "--scale", "-1"],
            ["chaos", "--scale", "0"],
            # the supervised-pool flags: no value is reinterpreted
            ["refine", "absent.txt", "--workers", "0"],
            ["chaos", "--workers", "-3"],
            ["compile-artifact", "absent.cfg", "--out", "unwritten.artifact",
             "--max-resubmits", "-1"],
            ["campaign", "depeer", "absent.cfg", "--baseline", "absent.artifact",
             "--task-timeout", "-5"],
            ["serve", "absent.artifact", "--workers", "-1"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_an_out_of_range_value_is_a_usage_error(self, argv, capsys):
        # The inputs do not exist: the value is refused before anything is
        # read, not by a ValueError (or a wrong slice) deep in the run.
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        error = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be" in error


class TestParallelFlags:
    def test_a_zero_task_timeout_disables_the_watchdog(self):
        args = build_parser().parse_args(
            ["refine", "absent.txt", "--workers", "2", "--task-timeout", "0"]
        )
        assert parallel_config(args).task_timeout is None

    def test_refine_with_workers_matches_sequential(
        self, dump_file, tmp_path, capsys
    ):
        seq_report = tmp_path / "seq.json"
        par_report = tmp_path / "par.json"
        assert main(
            ["refine", str(dump_file), "--max-iterations", "5",
             "--health-report", str(seq_report)]
        ) in (0, 1)
        assert main(
            ["refine", str(dump_file), "--max-iterations", "5",
             "--workers", "2", "--health-report", str(par_report)]
        ) in (0, 1)
        capsys.readouterr()
        import json

        seq = json.loads(seq_report.read_text())
        par = json.loads(par_report.read_text())
        assert par["refinement"] == seq["refinement"]
        assert par["exit_code"] == seq["exit_code"]
        assert par["simulation"]["supervision"]["workers"] == 2

    def test_chaos_worker_faults_exit_diverged(self, tmp_path, capsys):
        report = tmp_path / "health.json"
        code = main(
            ["chaos", "--scale", "0.1", "--points", "6",
             "--dispute-wheels", "0", "--flap-sessions", "0",
             "--corrupt-fraction", "0", "--truncate-fraction", "0",
             "--workers", "2", "--kill-prefixes", "1",
             "--max-resubmits", "1", "--health-report", str(report)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "poison" in captured.err
        import json

        health = json.loads(report.read_text())
        assert health["simulation"]["poison"] == (
            health["faults"]["worker_crash_prefixes"]
        )
        assert health["simulation"]["supervision"]["deaths"] >= 2

    def test_worker_fault_flags_require_workers(self, capsys):
        assert main(["chaos", "--kill-prefixes", "1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sigterm_drains_to_exit_5(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        report = tmp_path / "health.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "chaos",
             "--scale", "0.15", "--points", "8",
             "--dispute-wheels", "0", "--flap-sessions", "0",
             "--workers", "2", "--hang-prefixes", "1",
             "--task-timeout", "600",
             "--health-report", str(report)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            time.sleep(5.0)  # well into the simulate phase
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 5
        health = json.loads(report.read_text())
        assert health["interrupted"] is True
        assert health["exit_code"] == 5
        assert health["simulation"]["supervision"]["drained"] is True


class TestWhatIfValidation:
    @pytest.fixture(scope="class")
    def model_file(self, dump_file, tmp_path_factory):
        path = tmp_path_factory.mktemp("whatif") / "model.cbgp"
        assert main(["refine", str(dump_file), "--out", str(path)]) == 0
        return path

    def test_unknown_asn_is_a_usage_error_naming_it(
        self, model_file, capsys
    ):
        code = main(["whatif", str(model_file), "--remove", "10", "64999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "AS 64999" in captured.err
        assert "changed pairs" not in captured.out

    def test_unknown_edge_between_known_ases_is_usage_error(
        self, model_file, capsys
    ):
        # Both ASNs exist but may not peer; either way never exit 0 with
        # a silent "nothing changed" report for bad input.
        code = main(["whatif", str(model_file), "--remove", "10", "11"])
        assert code in (0, 2)

    def test_missing_model_is_a_data_error(self, tmp_path, capsys):
        code = main(
            ["whatif", str(tmp_path / "nope.cbgp"), "--remove", "1", "2"]
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_divergent_model_is_exit_3_not_a_traceback(
        self, wheel_config, capsys
    ):
        code = main(["whatif", str(wheel_config), "--remove", "1", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")
        assert "did not converge for 0.4.0.0/24" in captured.err
        assert "changed pairs" not in captured.out


class TestRefineDivergence:
    def test_divergent_model_is_quarantined_and_reported(
        self, tmp_path, capsys, monkeypatch
    ):
        """A refinement run never aborts on a divergent prefix: it is
        quarantined, left out of the evaluation, named in the health
        report, and the run exits 3."""
        import json

        from repro.core import commands
        from repro.data.dumps import write_table_dump
        from repro.net.aspath import ASPath
        from repro.topology.dataset import ObservedRoute, PathDataset

        tails = ((1, 4), (2, 4), (3, 4), (1, 2, 4), (2, 3, 4), (3, 1, 4))
        dump = tmp_path / "dump.txt"
        write_table_dump(
            PathDataset([
                ObservedRoute(
                    f"p{observer}", observer, prefix_for_asn(4),
                    ASPath((observer,) + tail),
                )
                for observer in (8, 9)
                for tail in tails
            ]),
            dump,
        )
        build = commands.build_initial_model

        def build_with_wheel(dataset, graph):
            model = build(dataset, graph)
            inject_dispute_wheel(
                model.network, model.canonical_prefix(4), (1, 2, 3)
            )
            return model

        monkeypatch.setattr(commands, "build_initial_model", build_with_wheel)
        report = tmp_path / "health.json"
        code = main(["refine", str(dump), "--health-report", str(report)])
        assert code == 3
        assert "quarantined diverged prefixes: 0.4.0.0/24" in capsys.readouterr().err
        document = json.loads(report.read_text())
        assert document["exit_code"] == 3
        assert document["simulation"]["diverged"] == ["0.4.0.0/24"]


class TestServeCLI:
    @pytest.fixture(scope="class")
    def artifact_file(self, dump_file, tmp_path_factory):
        base = tmp_path_factory.mktemp("artifact")
        model = base / "model.cbgp"
        artifact = base / "pred.artifact"
        assert main(["refine", str(dump_file), "--out", str(model)]) == 0
        assert main(
            ["compile-artifact", str(model), "--out", str(artifact)]
        ) == 0
        return artifact

    def test_compile_artifact_writes_loadable_file(
        self, artifact_file, capsys
    ):
        from repro.serve import PredictionArtifact

        artifact = PredictionArtifact.load(artifact_file)
        assert artifact.pair_count > 0
        assert artifact.meta["argv"]  # run-metadata stamp present

    def test_compile_artifact_unknown_observer_exits_2(
        self, dump_file, tmp_path, capsys
    ):
        model = tmp_path / "model.cbgp"
        assert main(["refine", str(dump_file), "--out", str(model)]) == 0
        capsys.readouterr()
        code = main(
            ["compile-artifact", str(model), "--out",
             str(tmp_path / "a.artifact"), "--observers", "64999"]
        )
        assert code == 2
        assert "64999" in capsys.readouterr().err

    def test_query_paths(self, artifact_file, capsys):
        code = main(
            ["query", str(artifact_file), "--origin", "10",
             "--observer", "11"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "AS11 -> AS10" in captured

    def test_query_json_matches_live_schema(self, artifact_file, capsys):
        import json

        code = main(
            ["query", str(artifact_file), "--origin", "10",
             "--observer", "11", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["origin"] == 10
        assert payload["reachable"] is True

    def test_query_unknown_origin_exits_2_naming_it(
        self, artifact_file, capsys
    ):
        code = main(
            ["query", str(artifact_file), "--origin", "64999",
             "--observer", "11"]
        )
        assert code == 2
        assert "64999" in capsys.readouterr().err

    def test_query_requires_exactly_one_question(self, artifact_file, capsys):
        assert main(
            ["query", str(artifact_file), "--observer", "11"]
        ) == 2
        assert main(
            ["query", str(artifact_file), "--origin", "10",
             "--lookup", "0.10.0.1", "--observer", "11"]
        ) == 2

    def test_query_diversity_with_lookup_is_a_usage_error(
        self, tmp_path, capsys
    ):
        # The artifact does not exist: a usage error is decided before
        # the load, so this is exit 2, not 4.
        code = main(
            ["query", str(tmp_path / "missing.artifact"),
             "--lookup", "0.10.0.1", "--observer", "11", "--diversity"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --diversity needs --origin "
            "(it does not combine with --lookup)\n"
        )

    def test_query_corrupt_artifact_exits_4(self, tmp_path, capsys):
        bogus = tmp_path / "bad.artifact"
        bogus.write_bytes(b"definitely not an artifact")
        code = main(
            ["query", str(bogus), "--origin", "10", "--observer", "11"]
        )
        assert code == 4
        assert "artifact" in capsys.readouterr().err
