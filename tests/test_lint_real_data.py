"""End-to-end lint coverage over real (CAIDA as-rel) ingested data.

Drives the checked-in ``tests/fixtures/sample.as-rel`` fixture through
the same code paths a real CAIDA snapshot takes: CLI ingest, model
construction with Gao-Rexford policies, certification against the
relationship map, and certificate-store persistence.
"""

import json
from pathlib import Path

from repro.analysis.certify import CertificateStore, certify_network
from repro.cbgp.export import export_network
from repro.cli import main
from repro.core.build import build_relationship_model
from repro.data.caida import read_as_rel
from repro.relationships.policies import TAG_FROM_PROVIDER

FIXTURE = Path(__file__).parent / "fixtures" / "sample.as-rel"


def ingested():
    return read_as_rel(FIXTURE)


class TestIngestCli:
    def test_ingest_as_rel_fixture_succeeds(self, capsys):
        code = main(["ingest", str(FIXTURE), "--format", "as-rel"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted:    12" in out
        assert "quarantined: 1" in out

    def test_ingest_report_accounts_for_the_malformed_line(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "ingest", str(FIXTURE), "--format", "as-rel",
            "--report", str(report_path), "--json",
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accepted"] == 12
        assert report["total_quarantined"] == 1


class TestRelationshipModel:
    def test_model_covers_every_ingested_as(self):
        result = ingested()
        model = build_relationship_model(result.graph, result.relationships)
        assert set(model.network.ases) == set(result.graph.ases())
        assert len(model.prefix_by_origin) == result.graph.num_ases()

    def test_ingested_model_certifies_clean(self):
        result = ingested()
        model = build_relationship_model(result.graph, result.relationships)
        store = certify_network(
            model.network, relationships=result.relationships
        )
        report = store.report()
        assert report.errors == []
        assert "gao" in report.passes

    def test_store_round_trips_with_identical_fingerprints(self, tmp_path):
        result = ingested()
        model = build_relationship_model(result.graph, result.relationships)
        store = certify_network(
            model.network, relationships=result.relationships
        )
        path = tmp_path / "real.certs"
        store.save(path)
        loaded = CertificateStore.load(
            path, relationships=result.relationships
        )
        assert loaded.store_fingerprint() == store.store_fingerprint()
        assert {
            key: cert.fingerprint for key, cert in loaded.certificates.items()
        } == {
            key: cert.fingerprint for key, cert in store.certificates.items()
        }
        loaded.certify(model.network)
        assert loaded.last_stats.misses == 0
        assert loaded.store_fingerprint() == store.store_fingerprint()


class TestLintCliWithRelationships:
    def _saved_model(self, tmp_path, sabotage=False):
        result = ingested()
        model = build_relationship_model(result.graph, result.relationships)
        if sabotage:
            # strip one provider-route export deny: a valley the gao pass
            # must catch from the saved config + relationship file alone
            session = next(
                s for s in model.network.ebgp_sessions()
                if s.export_map is not None and s.export_map.remove_if(
                    lambda c: c.match.community == TAG_FROM_PROVIDER
                )
            )
            assert session is not None
        path = tmp_path / ("broken.cfg" if sabotage else "model.cfg")
        with open(path, "w", encoding="ascii") as handle:
            export_network(model.network, handle)
        return path

    def test_clean_ingested_model_lints_clean(self, tmp_path, capsys):
        path = self._saved_model(tmp_path)
        code = main(["lint", str(path),
                     "--relationships", str(FIXTURE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 errors" in out

    def test_missing_export_deny_is_a_gao_error(self, tmp_path, capsys):
        path = self._saved_model(tmp_path, sabotage=True)
        code = main(["lint", str(path),
                     "--relationships", str(FIXTURE)])
        out = capsys.readouterr().out
        assert code == 1
        assert "gao-valley-export" in out

    def test_unreadable_relationship_file_is_a_data_error(self, tmp_path,
                                                          capsys):
        path = self._saved_model(tmp_path)
        code = main(["lint", str(path),
                     "--relationships", str(tmp_path / "missing.as-rel")])
        assert code == 4
        assert "error" in capsys.readouterr().err
