"""Tests for the incremental safety-certification engine.

The load-bearing property: after ANY sequence of tracked model edits,
the incrementally maintained certificate store is bit-for-bit identical
(findings, report JSON, store fingerprint) to a store built from scratch
over the final network.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import certify as certify_module
from repro.analysis.analyzer import analyze_network
from repro.analysis.certify import (
    GLOBAL_KEY,
    CertificateStore,
    _clause_token,
    certify_network,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.policy_lint import lint_map
from repro.bgp.engine import UNSAFE
from repro.bgp.policy import Action, Clause, Match
from repro.core.build import build_initial_model
from repro.core.refine import Refiner, RefinementConfig
from repro.data.synthesis import SyntheticConfig, prefix_for_asn, synthesize_internet
from repro.errors import CertificateError
from repro.net.aspath import ASPath
from repro.obs.metrics import get_registry
from repro.resilience.checkpoint import certificate_store_path
from repro.resilience.faults import inject_dispute_wheel
from repro.topology.dataset import ObservedRoute, PathDataset
from tests.oracle import seeded_world


def small_internet():
    internet = synthesize_internet(
        SyntheticConfig(seed=11, n_level1=3, n_level2=5, n_other=8, n_stub=20)
    )
    return internet.network


def refine_style_edit(network, router, prefix, tag):
    """Install refine-shaped clauses on every eBGP session into ``router``."""
    installed = 0
    for session in router.sessions_in:
        if not session.is_ebgp:
            continue
        session.ensure_import_map().append(
            Clause(Match(prefix=prefix), Action.PERMIT,
                   set_med=10 + installed, tag=tag)
        )
        session.ensure_export_map().append(
            Clause(Match(prefix=prefix, path_len_lt=4), Action.DENY, tag=tag)
        )
        installed += 1
    return installed


class TestFullCertification:
    def test_matches_the_analyzer_passes(self):
        network = small_internet()
        store = certify_network(network)
        direct = analyze_network(network, passes=("safety", "policy"))
        certified = {json.dumps(f.to_dict(), sort_keys=True)
                     for f in store.report().findings}
        analyzed = {json.dumps(f.to_dict(), sort_keys=True)
                    for f in direct.findings}
        assert certified == analyzed

    def test_two_fresh_stores_are_bit_identical(self):
        network = small_internet()
        a, b = certify_network(network), certify_network(network)
        assert a.store_fingerprint() == b.store_fingerprint()
        assert a.report().to_json() == b.report().to_json()

    def test_recertify_without_changes_is_all_reuse(self):
        network = small_internet()
        store = certify_network(network)
        total = store.last_stats.total
        store.certify(network)
        assert store.last_stats.candidates == 0
        assert store.last_stats.reused == total

    def test_every_prefix_and_the_global_key_are_certified(self):
        network = small_internet()
        store = certify_network(network)
        keys = set(store.certificates)
        assert GLOBAL_KEY in keys
        assert {str(p) for p in network.prefixes()} <= keys


class TestWorkPerCall:
    """One fresh certification does each piece of work once."""

    # store_fingerprint() of the three oracle worlds' refined models; any
    # drift in the hashed bytes (clause or edge tokens, key text, map
    # headers) changes these.
    GOLDEN = {
        1: "59c3077b806a00c51c0e385a367a4c0d475a1e39c06575ee318f9615ee17a8eb",
        2: "5500dc67f9dfdf2faf6623ec45032e734f645b29db6e0115f46e23ed75fab97b",
        3: "dd1447aed062240e8c8835b83e2609acb67e6686dcceb6d8dfbc10191222e2ca",
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_installed_map_is_linted_once(self, seed, monkeypatch):
        network = seeded_world(seed).model.network
        linted = []

        def counting_lint(session, direction, route_map):
            linted.append(id(route_map))
            return lint_map(session, direction, route_map)

        monkeypatch.setattr(certify_module, "lint_map", counting_lint)
        certify_network(network)
        installed = [
            id(route_map)
            for session in network.sessions.values()
            for route_map in (session.import_map, session.export_map)
            if route_map is not None
        ]
        assert sorted(linted) == sorted(installed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_clause_is_tokenised_once(self, seed, monkeypatch):
        tokenised = []

        def counting_token(position, clause, *rest):
            tokenised.append((position, id(clause)))
            return _clause_token(position, clause, *rest)

        monkeypatch.setattr(certify_module, "_clause_token", counting_token)
        certify_network(seeded_world(seed).model.network)
        assert tokenised and len(tokenised) == len(set(tokenised))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_store_fingerprint_is_pinned(self, seed):
        store = certify_network(seeded_world(seed).model.network)
        assert store.store_fingerprint() == self.GOLDEN[seed]

    def test_lint_findings_keep_the_per_key_order(self):
        network = small_internet()
        prefixes = network.prefixes()[:2]
        sessions = sorted(network.sessions.values(), key=lambda s: s.session_id)
        for session in sessions[:6]:
            for prefix in prefixes:
                # A per-prefix clause shadowed by an earlier one.
                route_map = session.ensure_import_map()
                route_map.append(Clause(Match(prefix=prefix), Action.PERMIT,
                                        set_med=5))
                route_map.append(Clause(Match(prefix=prefix, path_len_lt=3),
                                        Action.PERMIT, set_med=7))
            # A generic clause that can never match.
            session.ensure_export_map().append(
                Clause(Match(path_len_lt=2, path_len_gt=4), Action.DENY)
            )
        store = certify_network(network)

        def linted(key):
            return [
                finding
                for finding in store.certificates[key].findings
                if finding.rule.startswith("policy-")
            ]

        def per_map(prefix):
            return [
                finding
                for session in sessions
                for direction, route_map in (
                    ("import", session.import_map),
                    ("export", session.export_map),
                )
                if route_map is not None
                for finding in lint_map(session, direction, route_map)
                if finding.prefix == prefix
            ]

        for prefix in prefixes:
            assert len(per_map(prefix)) == 6
            assert linted(str(prefix)) == per_map(prefix)
        assert len(per_map(None)) > 6
        assert linted(GLOBAL_KEY) == per_map(None)


class TestIncrementalInvalidation:
    def test_one_install_recertifies_only_the_touched_prefix(self):
        network = small_internet()
        store = certify_network(network)
        prefix = sorted(network.prefixes())[0]
        router = max(
            (s.dst for s in network.ebgp_sessions()),
            key=lambda r: len(list(r.sessions_in)),
        )
        assert refine_style_edit(network, router, prefix, "edit-0") > 0
        store.invalidate_policy(router.router_id, prefix)
        store.certify(network)
        stats = store.last_stats
        assert stats.misses >= 1
        assert stats.invalidated_fraction < 0.5
        fresh = certify_network(network)
        assert store.store_fingerprint() == fresh.store_fingerprint()
        assert store.report().to_json() == fresh.report().to_json()

    def test_unrelated_certificates_survive_as_objects(self):
        network = small_internet()
        store = certify_network(network)
        untouched_key = sorted(
            k for k in store.certificates if k != GLOBAL_KEY
        )[-1]
        before = store.certificates[untouched_key]
        prefix = sorted(network.prefixes())[0]
        assert str(prefix) != untouched_key
        router = next(iter(network.ebgp_sessions())).dst
        refine_style_edit(network, router, prefix, "edit-1")
        store.invalidate_policy(router.router_id, prefix)
        store.certify(network)
        assert store.certificates[untouched_key] is before

    def test_over_invalidation_is_settled_by_fingerprints(self):
        network = small_internet()
        store = certify_network(network)
        # dirty everything without changing anything: every candidate must
        # land as a fingerprint hit, zero recomputes
        store.invalidate_all()
        store.certify(network)
        assert store.last_stats.misses == 0
        assert store.last_stats.hits == store.last_stats.total

    def test_dispute_wheel_appears_and_resolves_incrementally(self):
        routes = [
            ObservedRoute(f"p9-{i}", 9, prefix_for_asn(4), ASPath(path))
            for i, path in enumerate(
                ((9, 1, 4), (9, 2, 4), (9, 3, 4),
                 (9, 1, 2, 4), (9, 2, 3, 4), (9, 3, 1, 4))
            )
        ]
        model = build_initial_model(PathDataset(routes))
        network = model.network
        store = certify_network(network)
        assert store.report().unsafe_prefixes() == []
        wheel_prefix = model.canonical_prefix(4)
        inject_dispute_wheel(network, wheel_prefix, (1, 2, 3))
        # the injection touches the import maps of the wheel ASes
        for asn in (1, 2, 3):
            for router in network.as_routers(asn):
                store.invalidate_policy(router.router_id, wheel_prefix)
        store.certify(network)
        assert store.report().unsafe_prefixes() == [wheel_prefix]
        fresh = certify_network(network)
        assert store.report().to_json() == fresh.report().to_json()


class TestSameKeyClauseChange:
    def test_removing_one_of_two_same_prefix_clauses_is_detected(self):
        # Regression: a per-prefix clause edit used to be invisible when
        # the session kept ANOTHER clause for the same prefix — the
        # session's key set did not change, so the key was never
        # re-fingerprinted and its certificate went stale.  Found by
        # hypothesis as edits=[(0, 0, 0), (1, 0, 1)]: install tagged
        # clauses for prefix A, then remove them while invalidating a
        # DIFFERENT prefix.
        network = small_internet()
        store = certify_network(network)
        prefixes = sorted(network.prefixes())
        routers = sorted(
            {s.dst.router_id: s.dst for s in network.ebgp_sessions()}.items()
        )
        router = routers[0][1]
        prefix_a, prefix_b = prefixes[0], prefixes[1]

        refine_style_edit(network, router, prefix_a, "edit-0")
        store.invalidate_policy(router.router_id, prefix_a)
        store.certify(network)
        assert (
            store.store_fingerprint()
            == certify_network(network).store_fingerprint()
        )

        for session in router.sessions_in:
            if session.import_map is not None:
                session.import_map.remove_if(
                    lambda clause: clause.tag is not None
                    and clause.tag.startswith("edit-")
                )
        store.invalidate_policy(router.router_id, prefix_b)
        store.certify(network)
        fresh = certify_network(network)
        assert store.store_fingerprint() == fresh.store_fingerprint()
        assert store.report().to_json() == fresh.report().to_json()


NUM_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # op
        st.integers(min_value=0, max_value=10**6),  # router pick
        st.integers(min_value=0, max_value=10**6),  # prefix pick
    ),
    min_size=1,
    max_size=6,
)


class TestEditSequenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(edits=NUM_EDITS)
    def test_incremental_always_equals_from_scratch(self, edits):
        network = small_internet()
        store = certify_network(network)
        prefixes = sorted(network.prefixes())
        for step, (op, router_pick, prefix_pick) in enumerate(edits):
            routers = sorted(
                {s.dst.router_id: s.dst for s in network.ebgp_sessions()}.items()
            )
            router = routers[router_pick % len(routers)][1]
            prefix = prefixes[prefix_pick % len(prefixes)]
            tag = f"edit-{step}"
            if op == 0:
                refine_style_edit(network, router, prefix, tag)
                store.invalidate_policy(router.router_id, prefix)
            elif op == 1:
                for session in router.sessions_in:
                    if session.import_map is not None:
                        session.import_map.remove_if(
                            lambda clause: clause.tag is not None
                            and clause.tag.startswith("edit-")
                        )
                store.invalidate_policy(router.router_id, prefix)
            elif op == 2:
                # prefix-agnostic local-pref clause: joins EVERY prefix graph
                for session in router.sessions_in:
                    if session.is_ebgp:
                        session.ensure_import_map().append(
                            Clause(Match(), Action.PERMIT,
                                   set_local_pref=200 + step, tag=tag)
                        )
                        break
                store.invalidate_policy(router.router_id, None)
            else:
                clone = network.duplicate_router(router)
                store.invalidate_router(clone)
            store.certify(network)
            fresh = certify_network(network)
            assert store.store_fingerprint() == fresh.store_fingerprint(), (
                f"diverged after step {step} op {op}"
            )
            assert store.report().to_json() == fresh.report().to_json()


class TestPersistence:
    def test_save_load_round_trip_preserves_fingerprints(self, tmp_path):
        network = small_internet()
        store = certify_network(network)
        path = tmp_path / "model.certs"
        store.save(path)
        loaded = CertificateStore.load(path)
        assert loaded.store_fingerprint() == store.store_fingerprint()
        assert loaded.report().to_json() == store.report().to_json()
        # a loaded store is fully dirty but settles to all-hits
        loaded.certify(network)
        assert loaded.last_stats.misses == 0
        assert loaded.store_fingerprint() == store.store_fingerprint()

    def test_load_rejects_garbage_and_wrong_format(self, tmp_path):
        path = tmp_path / "bad.certs"
        path.write_text("not json")
        with pytest.raises(CertificateError):
            CertificateStore.load(path)
        path.write_text(json.dumps({"format": "something/else/v9"}))
        with pytest.raises(CertificateError):
            CertificateStore.load(path)


class TestMetrics:
    def test_hits_misses_and_invalidations_are_counted(self):
        registry = get_registry()
        registry.reset()
        network = small_internet()
        store = certify_network(network)
        assert registry.counter("certify.misses").value > 0
        store.invalidate_all()
        store.certify(network)
        assert registry.counter("certify.hits").value >= store.last_stats.total
        prefix = sorted(network.prefixes())[0]
        store.invalidate_policy(1, prefix)
        assert registry.counter("certify.invalidations").value > 0


class TestRefinerIntegration:
    def _training(self):
        routes = []
        for path in ((9, 1, 4), (9, 2, 4), (9, 3, 4),
                     (9, 1, 2, 4), (9, 2, 3, 4), (9, 3, 1, 4)):
            routes.append(
                ObservedRoute("p9", 9, prefix_for_asn(4), ASPath(path))
            )
        return PathDataset(routes)

    def test_lint_gate_persists_and_resumes_certificates(self, tmp_path):
        checkpoint = tmp_path / "refine.ckpt"
        model = build_initial_model(self._training())
        wheel = model.canonical_prefix(4)
        inject_dispute_wheel(model.network, wheel, (1, 2, 3))
        refiner = Refiner(
            model, self._training(),
            RefinementConfig(lint_gate=True, checkpoint_every=1),
        )
        result = refiner.run(checkpoint=checkpoint)
        assert result.converged
        assert [
            q.prefix for q in refiner.stats.quarantined if q.reason == UNSAFE
        ] == [wheel]
        store_path = certificate_store_path(checkpoint)
        assert store_path.exists()
        saved_fingerprint = CertificateStore.load(
            store_path
        ).store_fingerprint()

        model2 = build_initial_model(self._training())
        inject_dispute_wheel(model2.network, model2.canonical_prefix(4),
                             (1, 2, 3))
        refiner2 = Refiner(
            model2, self._training(),
            RefinementConfig(lint_gate=True, checkpoint_every=1),
        )
        result2 = refiner2.run(checkpoint=checkpoint)
        assert result2.converged
        assert refiner2.certificates is not None
        assert refiner2.certificates.store_fingerprint() == saved_fingerprint

    def test_gate_certificates_match_a_fresh_pass_after_refinement(self):
        model = build_initial_model(self._training())
        refiner = Refiner(
            model, self._training(), RefinementConfig(lint_gate=True)
        )
        refiner.run()
        assert refiner.certificates is not None
        refiner.certificates.certify(refiner.model.network)
        fresh = certify_network(refiner.model.network)
        assert (refiner.certificates.store_fingerprint()
                == fresh.store_fingerprint())
        assert (refiner.certificates.report().to_json()
                == fresh.report().to_json())


class TestOmittedCount:
    def _big_cycle_findings(self):
        from repro.analysis.safety import (
            PreferenceEdge,
            local_pref_findings_for_prefix,
        )

        prefix = prefix_for_asn(1)
        count = 15
        edges = [
            PreferenceEdge(
                prefix=prefix,
                router_id=i + 1,
                asn=i + 1,
                neighbor_router_id=(i + 1) % count + 1,
                neighbor_asn=(i + 1) % count + 1,
                kind="local-pref",
                clause=f"clause {i} prefers AS{(i + 1) % count + 1}",
            )
            for i in range(count)
        ]
        return local_pref_findings_for_prefix(prefix, edges)

    def test_truncated_clause_lists_carry_omitted_count(self):
        findings = self._big_cycle_findings()
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert len(finding.clauses) == 12
        assert finding.omitted_count == 3

    def test_text_and_json_renderers_show_the_omission(self):
        finding = self._big_cycle_findings()[0]
        assert "(+3 more not shown)" in finding.render()
        assert finding.to_dict()["omitted_count"] == 3

    def test_finding_round_trips_through_json(self):
        finding = self._big_cycle_findings()[0]
        clone = Finding.from_dict(
            json.loads(json.dumps(finding.to_dict()))
        )
        assert clone == finding

    def test_short_clause_lists_omit_nothing(self):
        finding = Finding(
            rule="x", severity=Severity.INFO, message="m", clauses=("a",)
        )
        assert finding.omitted_count == 0
        assert "not shown" not in finding.render()
        assert finding.to_dict()["omitted_count"] == 0
