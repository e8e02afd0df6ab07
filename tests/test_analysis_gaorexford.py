"""Tests for the static Gao-Rexford compliance pass and provider cycles."""

from repro.analysis.analyzer import analyze_network
from repro.analysis.topology_lint import provider_customer_cycles
from repro.analysis.gaorexford import RULE_VALLEY_EXPORT, analyze_gao_rexford
from repro.analysis.findings import Severity
from repro.analysis.topology_lint import (
    RULE_PROVIDER_CYCLE,
    provider_cycle_findings,
)
from repro.bgp.network import Network
from repro.bgp.policy import Action, Clause, Match
from repro.relationships.policies import (
    TAG_FROM_PEER,
    TAG_FROM_PROVIDER,
    apply_relationship_policies,
)
from repro.relationships.types import Relationship, RelationshipMap


def hierarchy():
    """AS1 provider of AS2 and AS3; AS2--AS3 peers; AS4 customer of AS3."""
    rels = RelationshipMap()
    rels.set(1, 2, Relationship.CUSTOMER)
    rels.set(1, 3, Relationship.CUSTOMER)
    rels.set(2, 3, Relationship.PEER)
    rels.set(3, 4, Relationship.CUSTOMER)
    net = Network("gao")
    routers = {asn: net.add_router(asn) for asn in (1, 2, 3, 4)}
    for a, b in ((1, 2), (1, 3), (2, 3), (3, 4)):
        net.connect(routers[a], routers[b])
    return net, rels


class TestValleyExport:
    def test_bare_network_leaks_on_every_restricted_session(self):
        net, rels = hierarchy()
        findings = analyze_gao_rexford(net, rels)
        assert findings
        assert all(f.rule == RULE_VALLEY_EXPORT for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)
        # sessions towards customers are unrestricted: no finding names a
        # customer-facing announcer/receiver direction like 1 -> 2
        flagged_pairs = {tuple(f.asns) for f in findings}
        assert (2, 3) in flagged_pairs  # peer to peer
        assert (1, 2) in flagged_pairs  # 2 exporting up to its provider 1

    def test_relationship_policies_certify_clean(self):
        net, rels = hierarchy()
        apply_relationship_policies(net, rels)
        assert analyze_gao_rexford(net, rels) == []

    def test_single_missing_deny_is_named(self):
        net, rels = hierarchy()
        apply_relationship_policies(net, rels)
        # break exactly one direction: AS2's export towards its peer AS3
        two = net.as_routers(2)[0]
        three = net.as_routers(3)[0]
        session = net.get_session(two, three)
        session.export_map.remove_if(
            lambda clause: clause.match.community == TAG_FROM_PROVIDER
        )
        findings = analyze_gao_rexford(net, rels)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.asns == (2, 3)
        assert "provider-learned" in finding.message
        assert "peer-learned" not in finding.message
        assert any(f"{TAG_FROM_PROVIDER:#x}" in c for c in finding.clauses)

    def test_permit_before_deny_is_a_violation(self):
        net, rels = hierarchy()
        apply_relationship_policies(net, rels)
        two = net.as_routers(2)[0]
        three = net.as_routers(3)[0]
        session = net.get_session(two, three)
        # a catch-all permit ahead of the denies decides tagged routes
        session.export_map.prepend(Clause(Match(), Action.PERMIT))
        findings = analyze_gao_rexford(net, rels)
        assert any(f.asns == (2, 3) for f in findings)

    def test_sibling_and_unknown_sessions_are_not_flagged(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.SIBLING)
        net = Network("siblings")
        one = net.add_router(1)
        two = net.add_router(2)
        net.connect(one, two)
        three = net.add_router(3)
        net.connect(two, three)  # 2--3 stays UNKNOWN
        assert analyze_gao_rexford(net, rels) == []


class TestProviderCycles:
    def cyclic(self):
        rels = RelationshipMap()
        rels.set(1, 2, Relationship.CUSTOMER)  # 2 buys from 1
        rels.set(2, 3, Relationship.CUSTOMER)  # 3 buys from 2
        rels.set(3, 1, Relationship.CUSTOMER)  # 1 buys from 3: cycle
        rels.set(1, 9, Relationship.CUSTOMER)  # acyclic spur
        return rels

    def test_cycle_is_detected_and_sorted(self):
        assert provider_customer_cycles(self.cyclic()) == [[1, 2, 3]]

    def test_acyclic_hierarchy_has_no_cycles(self):
        _net, rels = hierarchy()
        assert provider_customer_cycles(rels) == []
        assert provider_cycle_findings(rels) == []

    def test_cycle_finding_is_an_error_naming_the_ases(self):
        findings = provider_cycle_findings(self.cyclic())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == RULE_PROVIDER_CYCLE
        assert finding.severity is Severity.ERROR
        assert finding.asns == (1, 2, 3)
        assert "provider-customer cycle" in finding.message

    def test_gao_pass_reports_cycles_first(self):
        net = Network("cycle")
        routers = {asn: net.add_router(asn) for asn in (1, 2, 3)}
        net.connect(routers[1], routers[2])
        findings = analyze_gao_rexford(net, self.cyclic())
        assert findings[0].rule == RULE_PROVIDER_CYCLE


class TestAnalyzerIntegration:
    def test_gao_pass_needs_relationships(self):
        net, rels = hierarchy()
        without = analyze_network(net, passes=("gao",))
        assert without.findings == []
        with_rels = analyze_network(net, passes=("gao",), relationships=rels)
        assert with_rels.findings
        assert {f.rule for f in with_rels.findings} == {RULE_VALLEY_EXPORT}

    def test_all_passes_include_gao_when_relationships_given(self):
        net, rels = hierarchy()
        apply_relationship_policies(net, rels)
        report = analyze_network(net, relationships=rels)
        assert not any(
            f.rule == RULE_VALLEY_EXPORT for f in report.findings
        )
        assert "gao" in report.passes

    def test_tags_cover_both_restricted_directions(self):
        # the import side sets the tags the export denies rely on
        assert TAG_FROM_PEER != TAG_FROM_PROVIDER
