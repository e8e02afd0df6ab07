"""Tests for the prediction artifact: compile, round-trip, rejection.

The load-side tests each corrupt one layer of the file format (magic,
header, schema, length, checksum, payload) and assert the artifact
refuses loudly with a distinct message — a stale or damaged artifact
must never answer queries.
"""

import json
import zlib

import pytest

from repro.core.build import build_initial_model
from repro.core.predict import predict_paths
from repro.core.refine import Refiner
from repro.errors import ArtifactError, ModelError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.serve import (
    MAGIC,
    SCHEMA_VERSION,
    PredictionArtifact,
    build_artifact,
    compile_artifact,
)
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


@pytest.fixture(scope="module")
def refined_model():
    ds = dataset_from_paths((1, 2, 4), (1, 3, 4), (5, 2, 4), (5, 3, 4))
    model = build_initial_model(ds)
    Refiner(model, ds).run()
    return model


@pytest.fixture(scope="module")
def compiled(refined_model):
    return compile_artifact(refined_model)


class TestCompile:
    def test_covers_every_origin_and_observer(self, refined_model, compiled):
        artifact, report = compiled
        assert set(artifact.origins) == set(refined_model.prefix_by_origin)
        assert set(artifact.observers) == set(refined_model.network.ases)
        assert report.prefixes == len(artifact.origins)
        assert report.quarantined == []
        assert report.pairs == artifact.pair_count > 0

    def test_matches_live_prediction_for_every_pair(
        self, refined_model, compiled
    ):
        # The acceptance criterion: artifact answers == live simulation
        # answers for the full (origin, observer) cross product.
        artifact, _ = compiled
        for origin in artifact.origins:
            for observer in artifact.observers:
                live = predict_paths(refined_model, origin, observer)
                frozen = set(artifact.paths.get((origin, observer), ()))
                assert frozen == live, (origin, observer)

    def test_unknown_observer_rejected(self, refined_model):
        with pytest.raises(ModelError, match="999"):
            compile_artifact(refined_model, observers=[1, 999])

    def test_observer_subset_restricts_pairs(self, refined_model):
        artifact, _ = compile_artifact(refined_model, observers=[1])
        assert artifact.observers == (1,)
        assert all(observer == 1 for _, observer in artifact.paths)


class TestRoundTrip:
    def test_save_load_preserves_everything(self, compiled, tmp_path):
        artifact, _ = compiled
        path = tmp_path / "pred.artifact"
        size = artifact.save(path)
        assert size == path.stat().st_size > len(MAGIC)
        loaded = PredictionArtifact.load(path)
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.origins == artifact.origins
        assert loaded.observers == artifact.observers
        assert loaded.paths == artifact.paths
        assert loaded.quarantined == artifact.quarantined
        assert loaded.meta == artifact.meta

    def test_loaded_artifact_equals_live_prediction(
        self, refined_model, compiled, tmp_path
    ):
        artifact, _ = compiled
        path = tmp_path / "pred.artifact"
        artifact.save(path)
        loaded = PredictionArtifact.load(path)
        for origin in loaded.origins:
            for observer in loaded.observers:
                live = predict_paths(refined_model, origin, observer)
                assert set(loaded.paths.get((origin, observer), ())) == live

    def test_meta_stamp_present(self, compiled):
        artifact, _ = compiled
        assert "argv" in artifact.meta
        assert "python" in artifact.meta


class TestRejection:
    @pytest.fixture
    def saved(self, compiled, tmp_path):
        artifact, _ = compiled
        path = tmp_path / "pred.artifact"
        artifact.save(path)
        return path

    def test_wrong_magic(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(b"NOT-AN-ARTIFACT\n" + blob[len(MAGIC):])
        with pytest.raises(ArtifactError, match="magic"):
            PredictionArtifact.load(saved)

    def test_corrupted_header(self, saved):
        blob = saved.read_bytes()
        header_end = blob.index(b"\n", len(MAGIC)) + 1
        garbage = MAGIC + b"{not json" + blob[header_end:]
        saved.write_bytes(garbage)
        with pytest.raises(ArtifactError, match="header"):
            PredictionArtifact.load(saved)

    def test_wrong_schema_version(self, saved):
        blob = saved.read_bytes()
        header_end = blob.index(b"\n", len(MAGIC))
        header = json.loads(blob[len(MAGIC):header_end])
        header["schema"] = SCHEMA_VERSION + 1
        rewritten = (
            MAGIC
            + json.dumps(header, sort_keys=True).encode("ascii")
            + blob[header_end:]
        )
        saved.write_bytes(rewritten)
        with pytest.raises(ArtifactError, match="schema"):
            PredictionArtifact.load(saved)

    def test_truncated_payload(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:-10])
        with pytest.raises(ArtifactError, match="truncated"):
            PredictionArtifact.load(saved)

    def test_flipped_payload_byte(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            PredictionArtifact.load(saved)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            PredictionArtifact.load(tmp_path / "nope.artifact")

    def test_undecompressable_payload(self, saved):
        # Valid header and checksum over bytes that are not zlib data.
        import hashlib

        bogus = b"\x00" * 32
        header = {
            "schema": SCHEMA_VERSION,
            "payload_bytes": len(bogus),
            "payload_sha256": hashlib.sha256(bogus).hexdigest(),
        }
        saved.write_bytes(
            MAGIC
            + json.dumps(header, sort_keys=True).encode("ascii")
            + b"\n"
            + bogus
        )
        with pytest.raises(ArtifactError, match="undecodable"):
            PredictionArtifact.load(saved)


class TestBuildArtifact:
    def test_normalises_and_sorts(self):
        artifact = build_artifact(
            origins={4: Prefix("0.4.0.0/24")},
            observers=[2, 1, 1],
            paths={(4, 1): {(1, 3, 4), (1, 2, 4)}, (4, 2): set()},
        )
        assert artifact.observers == (1, 2)
        assert artifact.paths[(4, 1)] == ((1, 2, 4), (1, 3, 4))
        assert (4, 2) not in artifact.paths  # empty sets are dropped

    def test_quarantined_origin_resolution(self):
        prefix = Prefix("0.7.0.0/24")
        artifact = build_artifact(
            origins={7: prefix}, observers=[7], paths={},
            quarantined=[prefix],
        )
        assert artifact.quarantined == (str(prefix),)
        assert artifact.quarantined_origins() == {7}
