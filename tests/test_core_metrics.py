"""Unit tests for the Section 4.2 match metrics and Table 2 agreement."""

import pickle

import pytest

from repro.bgp.decision import Step, run_decision
from repro.bgp.policy import Action, Clause, Match
from repro.core.build import build_initial_model
from repro.core.metrics import (
    AgreementCategory,
    MatchKind,
    MatchReport,
    classify_agreement,
    classify_route_match,
    evaluate_agreement,
    evaluate_dataset,
    unique_cases,
)
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.oracle import seeded_world

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


@pytest.fixture
def diamond_model():
    """AS1 - {AS2, AS3} - AS4 diamond as an initial model, simulated."""
    ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
    model = build_initial_model(ds)
    model.simulate_all()
    return model


class TestClassifyRouteMatch:
    def test_rib_out_for_chosen_branch(self, diamond_model):
        # lowest router-id branch is via AS2
        assert (
            classify_route_match(diamond_model, 1, (1, 2, 4)) is MatchKind.RIB_OUT
        )

    def test_potential_rib_out_for_tie_lost_branch(self, diamond_model):
        assert (
            classify_route_match(diamond_model, 1, (1, 3, 4))
            is MatchKind.POTENTIAL_RIB_OUT
        )

    def test_rib_in_when_longer_path_observed(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 2, 4))
        model = build_initial_model(ds)
        model.simulate_all()
        assert classify_route_match(model, 1, (1, 3, 2, 4)) is MatchKind.RIB_IN

    def test_none_when_route_filtered(self, diamond_model):
        prefix = diamond_model.canonical_prefix(4)
        router_1 = diamond_model.quasi_routers(1)[0]
        router_3 = diamond_model.quasi_routers(3)[0]
        session = diamond_model.network.get_session(router_3, router_1)
        session.ensure_export_map().append(Clause(Match(prefix=prefix), Action.DENY))
        diamond_model.simulate_origin(4)
        assert classify_route_match(diamond_model, 1, (1, 3, 4)) is MatchKind.NONE

    def test_origin_observation_is_rib_out(self, diamond_model):
        assert classify_route_match(diamond_model, 4, (4,)) is MatchKind.RIB_OUT

    def test_rejects_path_not_starting_at_observer(self, diamond_model):
        with pytest.raises(ValueError):
            classify_route_match(diamond_model, 1, (2, 4))


class TestClassifyAgreement:
    def test_agree(self, diamond_model):
        assert (
            classify_agreement(diamond_model, 1, (1, 2, 4))
            is AgreementCategory.AGREE
        )

    def test_tie_break_category(self, diamond_model):
        assert (
            classify_agreement(diamond_model, 1, (1, 3, 4))
            is AgreementCategory.TIE_BREAK
        )

    def test_shorter_exists_category(self):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 2, 4))
        model = build_initial_model(ds)
        model.simulate_all()
        assert (
            classify_agreement(model, 1, (1, 3, 2, 4))
            is AgreementCategory.SHORTER_EXISTS
        )

    def test_not_available_category(self, diamond_model):
        prefix = diamond_model.canonical_prefix(4)
        router_1 = diamond_model.quasi_routers(1)[0]
        router_3 = diamond_model.quasi_routers(3)[0]
        session = diamond_model.network.get_session(router_3, router_1)
        session.ensure_export_map().append(Clause(Match(prefix=prefix), Action.DENY))
        diamond_model.simulate_origin(4)
        assert (
            classify_agreement(diamond_model, 1, (1, 3, 4))
            is AgreementCategory.NOT_AVAILABLE
        )


class TestAggregation:
    def test_unique_cases_dedupe(self):
        ds = PathDataset(
            [
                ObservedRoute("a", 1, P, ASPath((1, 2, 4))),
                ObservedRoute("b", 1, P, ASPath((1, 2, 4))),
                ObservedRoute("a", 1, Prefix("10.0.1.0/24"), ASPath((1, 2, 4))),
            ]
        )
        assert unique_cases(ds) == [(1, (1, 2, 4))]

    def test_evaluate_dataset_counts(self, diamond_model):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        report = evaluate_dataset(diamond_model, ds)
        assert report.total == 2
        assert report.counts[MatchKind.RIB_OUT] == 1
        assert report.counts[MatchKind.POTENTIAL_RIB_OUT] == 1
        assert report.tie_break_or_better_rate == 1.0

    def test_coverage_by_origin(self, diamond_model):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        report = evaluate_dataset(diamond_model, ds)
        matched, total = report.coverage_by_origin[4]
        assert (matched, total) == (1, 2)
        assert report.prefixes_with_coverage(0.5) == 1
        assert report.prefixes_with_coverage(1.0) == 0

    def test_report_rates_empty(self):
        report = MatchReport()
        assert report.rib_out_rate == 0.0
        assert report.rib_in_or_better_rate == 0.0

    def test_evaluate_agreement_totals(self, diamond_model):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        counts = evaluate_agreement(diamond_model, ds)
        assert sum(counts.values()) == 2


class TestMatchReportHelpers:
    """Direct coverage of the rate/coverage arithmetic (no model needed)."""

    @staticmethod
    def report(rib_out=0, potential=0, rib_in=0, none=0):
        report = MatchReport()
        report.counts[MatchKind.RIB_OUT] = rib_out
        report.counts[MatchKind.POTENTIAL_RIB_OUT] = potential
        report.counts[MatchKind.RIB_IN] = rib_in
        report.counts[MatchKind.NONE] = none
        return report

    def test_rate_per_kind(self):
        report = self.report(rib_out=2, potential=1, rib_in=1, none=4)
        assert report.total == 8
        assert report.rate(MatchKind.RIB_OUT) == 0.25
        assert report.rate(MatchKind.NONE) == 0.5

    def test_tie_break_or_better_combines_two_kinds(self):
        report = self.report(rib_out=3, potential=1, rib_in=4)
        assert report.tie_break_or_better_rate == 0.5

    def test_rib_in_or_better_is_complement_of_none(self):
        report = self.report(rib_out=1, rib_in=1, none=2)
        assert report.rib_in_or_better_rate == 0.5

    def test_empty_report_rates_are_zero_not_nan(self):
        report = self.report()
        assert report.total == 0
        assert report.rate(MatchKind.RIB_OUT) == 0.0
        assert report.tie_break_or_better_rate == 0.0
        assert report.rib_in_or_better_rate == 0.0

    def test_coverage_thresholds(self):
        report = self.report()
        report.coverage_by_origin = {
            4: (2, 2),   # 100%
            5: (9, 10),  # 90%
            6: (1, 2),   # 50%
            7: (0, 3),   # 0%
        }
        assert report.origin_count == 4
        assert report.prefixes_with_coverage(1.0) == 1
        assert report.prefixes_with_coverage(0.9) == 2
        assert report.prefixes_with_coverage(0.5) == 3
        assert report.prefixes_with_coverage(0.0) == 4

    def test_coverage_ignores_empty_origins(self):
        report = self.report()
        report.coverage_by_origin = {4: (0, 0)}
        assert report.prefixes_with_coverage(0.0) == 0


def reference_steps(router, prefix, target):
    """``run_decision``'s elimination step of every candidate with ``target``."""
    candidates = router.candidates(prefix)
    outcome = run_decision(candidates, MODEL_DECISION_CONFIG)
    return {
        outcome.elimination_step(route)
        for route in candidates
        if route.as_path == target
    }


def reference_grades(model, observer, path):
    """Both classifiers' grades, with each step replayed by ``run_decision``."""
    prefix = model.canonical_prefix(path[-1])
    target = path[1:]
    match = MatchKind.NONE
    agreement = None
    for router in model.quasi_routers(observer):
        best = router.best(prefix)
        steps = reference_steps(router, prefix, target)
        if best is not None and best.as_path == target:
            grade, category = MatchKind.RIB_OUT, AgreementCategory.AGREE
        elif not steps:
            grade, category = MatchKind.NONE, AgreementCategory.NOT_AVAILABLE
        elif Step.ROUTER_ID in steps:
            grade, category = MatchKind.POTENTIAL_RIB_OUT, AgreementCategory.TIE_BREAK
        elif Step.PATH_LENGTH in steps:
            grade, category = MatchKind.RIB_IN, AgreementCategory.SHORTER_EXISTS
        else:
            grade, category = MatchKind.RIB_IN, AgreementCategory.OTHER
        if agreement is None:
            agreement = category
        if grade is MatchKind.RIB_OUT:
            return grade, agreement
        if grade is not MatchKind.NONE and match is not MatchKind.POTENTIAL_RIB_OUT:
            match = grade
    return match, agreement or AgreementCategory.NOT_AVAILABLE


class TestGradingAgainstTheReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_case_grades_as_run_decision_does(self, seed):
        network = pickle.loads(seeded_world(seed).blob)
        model = ASRoutingModel.from_network(network)
        model.simulate_all()
        # Every path some quasi-router learned, seen from its AS: each
        # grade but "none" occurs, and each decision step that lost.
        cases = {
            (router.asn, (router.asn, *route.as_path))
            for prefix in network.prefixes()
            for router in network.routers.values()
            for route in router.candidates(prefix)
        }
        seen = set()
        for observer, path in sorted(cases):
            match, agreement = reference_grades(model, observer, path)
            assert classify_route_match(model, observer, path) is match, path
            assert classify_agreement(model, observer, path) is agreement, path
            seen |= {match, agreement}
        assert seen >= {
            MatchKind.POTENTIAL_RIB_OUT, MatchKind.RIB_IN,
            AgreementCategory.TIE_BREAK, AgreementCategory.SHORTER_EXISTS,
            AgreementCategory.OTHER,
        }
