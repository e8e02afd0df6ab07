"""Tests for static report diffing and ``repro lint --diff``."""

import json

import pytest

from repro.analysis.diffing import diff_reports
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.cli import main
from repro.core.build import build_initial_model
from repro.data.synthesis import prefix_for_asn
from repro.net.aspath import ASPath
from repro.resilience.faults import inject_dispute_wheel
from repro.topology.dataset import ObservedRoute, PathDataset


def report_of(*findings):
    report = AnalysisReport()
    report.extend(findings, "test")
    return report


def finding(rule="r", severity=Severity.WARNING, message="m"):
    return Finding(rule=rule, severity=severity, message=message)


class TestDiffReports:
    def test_identical_reports_are_all_unchanged(self):
        a = report_of(finding(), finding(rule="s"))
        b = report_of(finding(rule="s"), finding())
        diff = diff_reports(a, b)
        assert diff.counts() == {"new": 0, "resolved": 0, "unchanged": 2}
        assert diff.exit_code == 0

    def test_new_and_resolved_are_separated(self):
        base = report_of(finding(rule="old"))
        current = report_of(finding(rule="new", severity=Severity.ERROR))
        diff = diff_reports(base, current)
        assert [f.rule for f in diff.new] == ["new"]
        assert [f.rule for f in diff.resolved] == ["old"]
        assert diff.exit_code == 1

    def test_resolved_errors_alone_exit_zero(self):
        base = report_of(finding(severity=Severity.ERROR))
        diff = diff_reports(base, report_of())
        assert diff.counts() == {"new": 0, "resolved": 1, "unchanged": 0}
        assert diff.exit_code == 0

    def test_multiset_semantics(self):
        base = report_of(finding(), finding())
        current = report_of(finding(), finding(), finding())
        diff = diff_reports(base, current)
        assert diff.counts() == {"new": 1, "resolved": 0, "unchanged": 2}
        reverse = diff_reports(current, base)
        assert reverse.counts() == {"new": 0, "resolved": 1, "unchanged": 2}

    def test_changed_clauses_show_as_resolved_plus_new(self):
        base = report_of(
            Finding(rule="r", severity=Severity.WARNING, message="m",
                    clauses=("a",))
        )
        current = report_of(
            Finding(rule="r", severity=Severity.WARNING, message="m",
                    clauses=("b",))
        )
        diff = diff_reports(base, current)
        assert diff.counts() == {"new": 1, "resolved": 1, "unchanged": 0}

    def test_render_and_json(self):
        base = report_of(finding(rule="gone"))
        current = report_of(finding(rule="fresh", severity=Severity.ERROR))
        diff = diff_reports(base, current)
        text = diff.render()
        assert any(line.startswith("+ ") for line in text.splitlines())
        assert any(line.startswith("- ") for line in text.splitlines())
        assert "diff: 1 new, 1 resolved, 0 unchanged" in text
        document = json.loads(diff.to_json())
        assert document["counts"] == diff.counts()
        assert document["exit_code"] == 1


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Two saved model configs: clean, and with an injected dispute wheel."""
    directory = tmp_path_factory.mktemp("lintdiff")
    routes = [
        ObservedRoute("p9", 9, prefix_for_asn(4), ASPath(path))
        for path in ((9, 1, 4), (9, 2, 4), (9, 3, 4),
                     (9, 1, 2, 4), (9, 2, 3, 4), (9, 3, 1, 4))
    ]
    from repro.cbgp.export import export_network

    clean_model = build_initial_model(PathDataset(routes))
    clean = directory / "clean.cfg"
    with open(clean, "w", encoding="ascii") as handle:
        export_network(clean_model.network, handle)

    wheel_model = build_initial_model(PathDataset(routes))
    inject_dispute_wheel(
        wheel_model.network, wheel_model.canonical_prefix(4), (1, 2, 3)
    )
    wheel = directory / "wheel.cfg"
    with open(wheel, "w", encoding="ascii") as handle:
        export_network(wheel_model.network, handle)
    return clean, wheel


class TestLintDiffCli:
    def test_new_wheel_is_a_new_error_and_exits_one(self, models, capsys):
        clean, wheel = models
        code = main(["lint", str(wheel), "--diff", str(clean)])
        out = capsys.readouterr().out
        assert code == 1
        assert "+ error   safety-dispute-wheel" in out
        assert "0 resolved" in out

    def test_fixed_wheel_is_resolved_and_exits_zero(self, models, capsys):
        clean, wheel = models
        code = main(["lint", str(clean), "--diff", str(wheel)])
        out = capsys.readouterr().out
        assert code == 0
        assert "- error   safety-dispute-wheel" in out
        assert "0 new" in out

    def test_self_diff_is_empty(self, models, capsys):
        clean, _wheel = models
        code = main(["lint", str(clean), "--diff", str(clean)])
        out = capsys.readouterr().out
        assert code == 0
        assert "diff: 0 new, 0 resolved," in out

    def test_json_diff(self, models, capsys):
        clean, wheel = models
        code = main(["lint", str(wheel), "--diff", str(clean), "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["counts"]["new"] >= 1
        assert all(
            "rule" in entry and "severity" in entry
            for entry in document["new"]
        )

    def test_missing_base_exits_with_data_error(self, models, capsys):
        clean, _ = models
        code = main(["lint", str(clean), "--diff", "/nonexistent/base.cfg"])
        assert code == 4
        assert "error" in capsys.readouterr().err


class TestArtifactDiff:
    def test_artifact_vs_its_own_model_diffs_empty(self, models, tmp_path,
                                                   capsys):
        clean, _wheel = models
        artifact = tmp_path / "clean.artifact"
        assert main(["compile-artifact", str(clean),
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        code = main(["lint", str(clean), "--diff", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "diff: 0 new, 0 resolved," in out

    def test_wheel_model_vs_clean_artifact_reports_new_error(
        self, models, tmp_path, capsys
    ):
        clean, wheel = models
        artifact = tmp_path / "clean.artifact"
        assert main(["compile-artifact", str(clean),
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        code = main(["lint", str(wheel), "--diff", str(artifact)])
        out = capsys.readouterr().out
        assert code == 1
        assert "+ error   safety-dispute-wheel" in out

    def test_artifact_lint_uses_embedded_certificates(self, models, tmp_path,
                                                      capsys):
        _clean, wheel = models
        artifact = tmp_path / "wheel.artifact"
        # the wheel prefix is quarantined at compile time (exit 3), but its
        # certificate still records the static findings
        assert main(["compile-artifact", str(wheel),
                     "--out", str(artifact)]) == 3
        capsys.readouterr()
        code = main(["lint", str(artifact)])
        out = capsys.readouterr().out
        assert code == 1
        assert "safety-dispute-wheel" in out
