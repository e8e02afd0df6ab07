"""Tests for the policy-lint and topology-lint passes and the report API."""

import json

import pytest

from repro.analysis import analyze_network
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.policy_lint import (
    RULE_BLOCKING_FILTER,
    RULE_CONTRADICTORY,
    RULE_SHADOWED,
    RULE_STALE_REFINE,
    RULE_UNSATISFIABLE,
    analyze_policies,
)
from repro.analysis.topology_lint import (
    RULE_ISOLATED,
    RULE_REDUNDANT,
    RULE_UNREACHABLE,
    analyze_topology,
)
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.core.refine import FILTER_TAG
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, prefix_for_asn
from repro.topology.dataset import ObservedRoute, PathDataset


def line_network():
    """AS1 -- AS2, with AS2 originating its canonical prefix."""
    net = Network("line")
    one = net.add_router(1)
    two = net.add_router(2)
    net.connect(one, two)
    prefix = prefix_for_asn(2)
    net.originate(two, prefix)
    return net, one, two, prefix


class TestShadowedClauses:
    def test_generic_clause_shadows_later_prefix_clause(self):
        net, one, two, prefix = line_network()
        imports = net.get_session(two, one).ensure_import_map()
        imports.append(Clause(Match(), Action.DENY))
        imports.append(Clause(Match(prefix=prefix), Action.PERMIT))
        findings = analyze_policies(net)
        shadowed = [f for f in findings if f.rule == RULE_SHADOWED]
        assert len(shadowed) == 1
        assert shadowed[0].prefix == prefix
        assert "clause #1" in shadowed[0].message

    def test_prefix_clause_shadows_narrower_same_prefix_clause(self):
        net, one, two, prefix = line_network()
        imports = net.get_session(two, one).ensure_import_map()
        imports.append(Clause(Match(prefix=prefix), Action.PERMIT))
        imports.append(
            Clause(Match(prefix=prefix, path_len_lt=4), Action.DENY)
        )
        findings = analyze_policies(net)
        assert [f.rule for f in findings] == [RULE_SHADOWED]

    def test_disjoint_prefix_clauses_do_not_shadow(self):
        net, one, two, prefix = line_network()
        imports = net.get_session(two, one).ensure_import_map()
        imports.append(Clause(Match(prefix=prefix), Action.DENY))
        imports.append(
            Clause(Match(prefix=Prefix("99.0.0.0/24")), Action.DENY)
        )
        assert analyze_policies(net) == []


class TestUnsatisfiableAndContradictory:
    def test_contradictory_length_bounds_are_flagged(self):
        net, one, two, prefix = line_network()
        exports = net.get_session(two, one).ensure_export_map()
        exports.append(
            Clause(
                Match(prefix=prefix, path_len_lt=2, path_len_gt=3), Action.DENY
            )
        )
        findings = analyze_policies(net)
        assert [f.rule for f in findings] == [RULE_UNSATISFIABLE]

    def test_contradictory_rankings_same_prefix_same_session(self):
        net, one, two, prefix = line_network()
        imports = net.get_session(two, one).ensure_import_map()
        imports.append(Clause(Match(prefix=prefix), set_med=0))
        imports.append(Clause(Match(prefix=prefix), set_med=50))
        findings = analyze_policies(net)
        assert [f.rule for f in findings] == [RULE_CONTRADICTORY]
        assert findings[0].severity is Severity.WARNING

    def test_identical_repeated_ranking_is_plain_shadowing(self):
        net, one, two, prefix = line_network()
        imports = net.get_session(two, one).ensure_import_map()
        imports.append(Clause(Match(prefix=prefix), set_med=0))
        imports.append(Clause(Match(prefix=prefix), set_med=0))
        findings = analyze_policies(net)
        assert [f.rule for f in findings] == [RULE_SHADOWED]


class TestBlockingFilters:
    def _dataset(self):
        return PathDataset(
            [ObservedRoute("p1", 1, prefix_for_asn(2), ASPath((1, 2)))]
        )

    def test_filter_exceeding_all_observed_lengths_is_an_error(self):
        net, one, two, prefix = line_network()
        exports = net.get_session(two, one).ensure_export_map()
        exports.append(
            Clause(Match(prefix=prefix, path_len_lt=3), Action.DENY)
        )
        findings = analyze_policies(net, self._dataset(), {2: prefix})
        blocking = [f for f in findings if f.rule == RULE_BLOCKING_FILTER]
        assert len(blocking) == 1
        assert blocking[0].severity is Severity.ERROR
        assert blocking[0].prefix == prefix
        assert blocking[0].routers == (one.router_id,)

    def test_matching_threshold_is_not_blocking(self):
        net, one, two, prefix = line_network()
        exports = net.get_session(two, one).ensure_export_map()
        # Observed announced path (2,) has length 1; < 1 denies nothing seen.
        exports.append(
            Clause(Match(prefix=prefix, path_len_lt=1), Action.DENY)
        )
        findings = analyze_policies(net, self._dataset(), {2: prefix})
        assert [f for f in findings if f.rule == RULE_BLOCKING_FILTER] == []

    def test_unfiltered_evidence_session_clears_the_router(self):
        # AS1 hears the prefix from AS2 (filtered too aggressively) and
        # from AS3 (unfiltered): some observed route still gets through,
        # so the per-quasi-router rule must NOT fire — this is exactly the
        # shape the Section 4.6 refiner produces on sibling quasi-routers.
        net = Network("tri")
        one = net.add_router(1)
        two = net.add_router(2)
        three = net.add_router(3)
        net.connect(one, two)
        net.connect(one, three)
        net.connect(two, three)
        prefix = prefix_for_asn(2)
        net.originate(two, prefix)
        net.get_session(two, one).ensure_export_map().append(
            Clause(Match(prefix=prefix, path_len_lt=3), Action.DENY)
        )
        dataset = PathDataset(
            [
                ObservedRoute("p1", 1, prefix, ASPath((1, 2))),
                ObservedRoute("p1", 1, prefix, ASPath((1, 3, 2))),
            ]
        )
        findings = analyze_policies(net, dataset, {2: prefix})
        assert [f for f in findings if f.rule == RULE_BLOCKING_FILTER] == []

    def test_dataset_rules_need_the_model_table(self):
        net, _, _, _ = line_network()
        with pytest.raises(ValueError, match="prefix_by_origin"):
            analyze_policies(net, self._dataset())

    def test_shadowed_filter_does_not_block(self):
        net, one, two, prefix = line_network()
        exports = net.get_session(two, one).ensure_export_map()
        exports.append(Clause(Match(prefix=prefix), Action.PERMIT))
        exports.append(
            Clause(Match(prefix=prefix, path_len_lt=3), Action.DENY)
        )
        findings = analyze_policies(net, self._dataset(), {2: prefix})
        assert [f for f in findings if f.rule == RULE_BLOCKING_FILTER] == []


class TestStaleRefineClauses:
    def test_refine_tag_for_unknown_prefix_is_flagged(self):
        net, one, two, prefix = line_network()
        stale = prefix_for_asn(5)  # no AS in the dataset originates this
        net.get_session(two, one).ensure_export_map().append(
            Clause(Match(prefix=stale, path_len_lt=2), Action.DENY,
                   tag=FILTER_TAG)
        )
        dataset = PathDataset(
            [ObservedRoute("p1", 1, prefix, ASPath((1, 2)))]
        )
        findings = analyze_policies(net, dataset, {2: prefix})
        stale_findings = [f for f in findings if f.rule == RULE_STALE_REFINE]
        assert len(stale_findings) == 1
        assert stale_findings[0].prefix == stale

    def test_refine_tag_for_dataset_prefix_is_fine(self):
        net, one, two, prefix = line_network()
        net.get_session(two, one).ensure_export_map().append(
            Clause(Match(prefix=prefix, path_len_lt=1), Action.DENY,
                   tag=FILTER_TAG)
        )
        dataset = PathDataset(
            [ObservedRoute("p1", 1, prefix, ASPath((1, 2)))]
        )
        findings = analyze_policies(net, dataset, {2: prefix})
        assert [f for f in findings if f.rule == RULE_STALE_REFINE] == []


class TestTopologyLint:
    def test_isolated_router_is_flagged(self):
        net, *_ = line_network()
        loner = net.add_router(7)
        findings = analyze_topology(net)
        isolated = [f for f in findings if f.rule == RULE_ISOLATED]
        assert len(isolated) == 1
        assert isolated[0].routers == (loner.router_id,)

    def test_duplicated_router_is_a_merge_candidate(self):
        net, one, two, prefix = line_network()
        clone = net.duplicate_router(one)
        findings = analyze_topology(net)
        redundant = [f for f in findings if f.rule == RULE_REDUNDANT]
        assert len(redundant) == 1
        assert set(redundant[0].routers) == {one.router_id, clone.router_id}
        assert redundant[0].severity is Severity.INFO

    def test_diverged_policies_are_not_redundant(self):
        net, one, two, prefix = line_network()
        clone = net.duplicate_router(one)
        session = net.get_session(two, clone)
        session.ensure_import_map().append(Clause(Match(prefix=prefix), set_med=7))
        findings = analyze_topology(net)
        assert [f for f in findings if f.rule == RULE_REDUNDANT] == []

    def test_unreachable_as_needs_observers(self):
        net, *_ = line_network()
        island_a = net.add_router(8)
        island_b = net.add_router(9)
        net.connect(island_a, island_b)
        assert analyze_topology(net) == []  # no observers, rule disabled
        findings = analyze_topology(net, observer_asns={1})
        unreachable = [f for f in findings if f.rule == RULE_UNREACHABLE]
        assert len(unreachable) == 1
        assert set(unreachable[0].asns) == {8, 9}


class TestAnalyzerAndReport:
    def test_unknown_pass_raises(self):
        net, *_ = line_network()
        with pytest.raises(ValueError, match="unknown analysis passes"):
            analyze_network(net, passes=("safety", "sorcery"))

    def test_pass_selection_limits_rules(self):
        net, *_ = line_network()
        net.add_router(7)  # isolated
        report = analyze_network(net, passes=("policy",))
        assert report.passes == ["policy"]
        assert report.findings == []
        report = analyze_network(net, passes=("topology",))
        assert [f.rule for f in report.findings] == [RULE_ISOLATED]

    def test_report_json_round_trips(self):
        net, one, two, prefix = line_network()
        exports = net.get_session(two, one).ensure_export_map()
        exports.append(
            Clause(
                Match(prefix=prefix, path_len_lt=2, path_len_gt=3), Action.DENY
            )
        )
        report = analyze_network(net)
        payload = json.loads(report.to_json())
        assert payload["counts"]["warning"] == 1
        assert payload["exit_code"] == 0
        assert payload["findings"][0]["rule"] == RULE_UNSATISFIABLE
        assert set(payload["passes"]) == {"safety", "policy", "topology"}

    def test_exit_code_nonzero_only_for_errors(self):
        report = AnalysisReport()
        report.add(Finding("some-rule", Severity.WARNING, "meh"))
        assert report.exit_code == 0
        report.add(Finding("other-rule", Severity.ERROR, "bad"))
        assert report.exit_code == 1

    def test_unsafe_prefixes_only_counts_safety_errors(self):
        prefix = Prefix("10.0.0.0/24")
        report = AnalysisReport()
        report.add(
            Finding(RULE_BLOCKING_FILTER, Severity.ERROR, "x", prefix=prefix)
        )
        assert report.unsafe_prefixes() == []
        report.add(
            Finding("safety-dispute-wheel", Severity.ERROR, "x", prefix=prefix)
        )
        assert report.unsafe_prefixes() == [prefix]

    def test_render_orders_by_severity_and_caps(self):
        report = AnalysisReport()
        report.extend(
            [
                Finding("a-rule", Severity.INFO, "note"),
                Finding("b-rule", Severity.ERROR, "broken"),
                Finding("c-rule", Severity.WARNING, "meh"),
            ],
            "policy",
        )
        text = report.render(max_findings=2)
        lines = text.splitlines()
        assert lines[0].startswith("error")
        assert lines[1].startswith("warning")
        assert "1 more findings omitted" in lines[2]
        assert "1 errors, 1 warnings, 1 notes" in lines[-1]
