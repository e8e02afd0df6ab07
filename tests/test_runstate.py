"""The run-lifecycle spine: one corruption matrix, the drain scope, and
the guard that keeps every mechanism in one place.

Every durable state kind (refiner / ingest / campaign checkpoint,
certificate store, prediction artifact) is damaged every way a disk or
an operator can damage it; the owner's loader must answer with its typed
error and nothing else.  The kinds are driven through their *public*
loaders (for the refiner: a real ``Refiner.run(checkpoint=...)`` resume),
so the matrix covers ``read_state`` and each owner's field validation
together.
"""

import ast
import base64
import functools
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import repro
from repro import runstate
from repro.analysis.certify import STORE_FORMAT, CertificateStore, certify_network
from repro.campaign.engine import CHECKPOINT_FORMAT as CAMPAIGN_FORMAT
from repro.campaign.engine import load_checkpoint as load_campaign
from repro.campaign.engine import write_checkpoint as write_campaign
from repro.campaign.report import ScenarioOutcome
from repro.cli import COMMANDS, main
from repro.core.build import build_initial_model
from repro.core.refine import RefinementConfig, Refiner
from repro.errors import (
    ArtifactError,
    CertificateError,
    CheckpointError,
    ReproError,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    INGEST_CHECKPOINT_FORMAT,
    IngestCheckpoint,
    load_checkpoint,
    load_ingest_checkpoint,
    save_checkpoint,
    save_ingest_checkpoint,
    training_fingerprint,
)
from repro.runstate import atomic_write, drain_signals, read_state, write_state
from repro.serve.artifact import (
    MAGIC,
    SCHEMA_VERSION,
    PredictionArtifact,
    build_artifact,
)
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")
TRAINING_PATHS = ((1, 2, 4), (1, 3, 4))


def training() -> PathDataset:
    dataset = PathDataset()
    for index, path in enumerate(TRAINING_PATHS):
        dataset.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return dataset


def tiny_artifact() -> PredictionArtifact:
    return build_artifact(
        origins={4: Prefix("0.4.0.0/24")},
        observers=[1, 2],
        paths={(4, 1): {(1, 2, 4), (1, 3, 4)}, (4, 2): {(2, 4)}},
        meta={"argv": ["x"]},
    )


OUTCOME = ScenarioOutcome(
    key="depeer:AS1-AS2", kind="depeer", status="ok",
    blast_radius=3.0, detail={"x": 1},
)


# ---------------------------------------------------------------------------
# The state kinds: how to write a good file, and how its owner reads it
# ---------------------------------------------------------------------------


def write_refiner(path: Path) -> None:
    Refiner(
        build_initial_model(training()),
        training(),
        RefinementConfig(max_iterations=1, checkpoint_every=1),
    ).run(checkpoint=path)


def load_refiner(path: Path) -> object:
    """Resume for real: ``load_checkpoint`` plus the refiner's own checks.

    ``Refiner.run`` starts afresh when the file does not exist, so the
    loader it would call is tried first.
    """
    refiner = Refiner(build_initial_model(training()), training())
    load_checkpoint(path, training_fingerprint(refiner.targets))
    return refiner.run(checkpoint=path)


def write_ingest(path: Path) -> None:
    save_ingest_checkpoint(
        path,
        IngestCheckpoint(
            source="feed.dump", fingerprint="120:abc", byte_offset=120,
            line_number=3, out_offset=90, report={"lines": 3},
        ),
    )


@dataclass(frozen=True)
class Kind:
    error: type[ReproError]
    write: Callable[[Path], None]
    load: Callable[[Path], object]
    wrong_type: tuple[str, object] | None = None
    """(field, value) that has the wrong JSON type for a document kind."""


KINDS = {
    "refiner": Kind(
        CheckpointError, write_refiner, load_refiner,
        wrong_type=("network_config", 5),
    ),
    "ingest": Kind(
        CheckpointError, write_ingest,
        lambda path: load_ingest_checkpoint(path, "120:abc"),
        wrong_type=("byte_offset", [1]),
    ),
    "campaign": Kind(
        CheckpointError,
        lambda path: write_campaign(path, "fp", {OUTCOME.key: OUTCOME}),
        lambda path: load_campaign(path, "fp"),
        wrong_type=("completed", [1]),
    ),
    "certificates": Kind(
        CertificateError,
        lambda path: certify_network(
            build_initial_model(training()).network
        ).save(path),
        CertificateStore.load,
        wrong_type=("certificates", "five"),
    ),
    "artifact": Kind(
        ArtifactError,
        lambda path: tiny_artifact().save(path),
        PredictionArtifact.load,
    ),
}


# ---------------------------------------------------------------------------
# The damages
# ---------------------------------------------------------------------------


def edit_document(path: Path, **fields: object) -> None:
    document = json.loads(path.read_text())
    document.update(fields)
    path.write_text(json.dumps(document))


def artifact_parts(path: Path) -> tuple[dict, bytes]:
    blob = path.read_bytes()
    header_end = blob.index(b"\n", len(MAGIC))
    return json.loads(blob[len(MAGIC):header_end]), blob[header_end + 1:]


def write_artifact_parts(path: Path, header: object, payload: bytes) -> None:
    path.write_bytes(
        MAGIC + json.dumps(header).encode("ascii") + b"\n" + payload
    )


def artifact_with_payload(path: Path, document: object) -> None:
    """A self-consistent artifact (sizes + checksum) around ``document``."""
    payload = zlib.compress(json.dumps(document).encode("ascii"))
    write_artifact_parts(path, {
        "schema": SCHEMA_VERSION,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }, payload)


def damage_missing(path: Path, kind: str) -> None:
    path.unlink()


def damage_truncated(path: Path, kind: str) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def damage_not_json(path: Path, kind: str) -> None:
    if kind == "artifact":
        _, payload = artifact_parts(path)
        path.write_bytes(MAGIC + b"{not json\n" + payload)
    else:
        path.write_text("{not json")


def damage_json_array(path: Path, kind: str) -> None:
    if kind == "artifact":
        _, payload = artifact_parts(path)
        write_artifact_parts(path, [], payload)
    else:
        path.write_text("[]")


def damage_wrong_format(path: Path, kind: str) -> None:
    if kind == "artifact":
        header, payload = artifact_parts(path)
        header["schema"] = SCHEMA_VERSION + 1
        write_artifact_parts(path, header, payload)
    else:
        edit_document(path, format="something/else/v9")


def damage_wrong_fingerprint(path: Path, kind: str) -> None:
    if kind == "artifact":  # its fingerprint is the payload checksum
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
    else:
        edit_document(path, fingerprint="stamped-for-other-inputs")


def damage_wrong_field_type(path: Path, kind: str) -> None:
    if kind == "artifact":
        header, payload = artifact_parts(path)
        header["payload_bytes"] = "many"
        write_artifact_parts(path, header, payload)
    else:
        field, value = KINDS[kind].wrong_type
        edit_document(path, **{field: value})


def damage_missing_field(path: Path, kind: str) -> None:
    if kind == "artifact":
        header, payload = artifact_parts(path)
        del header["payload_sha256"]
        write_artifact_parts(path, header, payload)
    else:
        document = json.loads(path.read_text())
        del document[KINDS[kind].wrong_type[0]]
        path.write_text(json.dumps(document))


DAMAGES = {
    "missing-file": damage_missing,
    "truncated": damage_truncated,
    "not-json": damage_not_json,
    "json-array": damage_json_array,
    "wrong-format": damage_wrong_format,
    "wrong-fingerprint": damage_wrong_fingerprint,
    "wrong-field-type": damage_wrong_field_type,
    "missing-field": damage_missing_field,
}

# Damages only one kind can suffer, including the inputs that escaped as
# AttributeError / TypeError tracebacks before the ladder was unified.
SPECIFIC = {
    ("refiner", "bogus-iteration-record"): lambda path: edit_document(
        path, iterations=[{"bogus": 1}]
    ),
    ("refiner", "iteration-not-an-object"): lambda path: edit_document(
        path, iterations=[5]
    ),
    ("refiner", "corrupt-network-config"): lambda path: edit_document(
        path, network_config="bgp add router nonsense"
    ),
    ("refiner", "network-config-line-too-short"): lambda path: edit_document(
        path, network_config="a add peer b"
    ),
    ("campaign", "outcome-not-an-object"): lambda path: edit_document(
        path, completed={"depeer:AS1-AS2": 5}
    ),
    ("campaign", "outcome-missing-a-key"): lambda path: edit_document(
        path, completed={"depeer:AS1-AS2": {"kind": "depeer"}}
    ),
    ("certificates", "entry-not-an-object"): lambda path: edit_document(
        path, certificates=[5]
    ),
    ("certificates", "findings-not-a-list"): lambda path: edit_document(
        path, certificates=[{"key": "*", "fingerprint": "f", "findings": 5}]
    ),
    ("artifact", "bad-magic"): lambda path: path.write_bytes(
        b"NOT-AN-ARTIFACT\n" + path.read_bytes()[len(MAGIC):]
    ),
    ("artifact", "truncated-in-header"): lambda path: path.write_bytes(
        path.read_bytes()[: len(MAGIC) + 10]
    ),
    ("artifact", "payload-not-zlib"): lambda path: write_artifact_parts(
        path,
        {
            "schema": SCHEMA_VERSION,
            "payload_bytes": 32,
            "payload_sha256": hashlib.sha256(b"\x00" * 32).hexdigest(),
        },
        b"\x00" * 32,
    ),
    ("artifact", "payload-json-array"): lambda path: artifact_with_payload(
        path, []
    ),
    ("artifact", "payload-field-wrong-type"): lambda path: artifact_with_payload(
        path, {"origins": {}, "observers": [], "paths": {}, "meta": "text"}
    ),
}

# Not cells: a certificate store is not stamped for any input, and a
# campaign checkpoint without ``completed`` is a campaign with nothing
# finished yet (its required keys sit inside each outcome, see SPECIFIC).
NOT_APPLICABLE = {
    ("certificates", "wrong-fingerprint"),
    ("campaign", "missing-field"),
}
MATRIX = [
    (kind, damage)
    for kind in KINDS
    for damage in DAMAGES
    if (kind, damage) not in NOT_APPLICABLE
]


class TestCorruptionMatrix:
    @pytest.mark.parametrize("kind,damage", MATRIX)
    def test_damage(self, kind, damage, tmp_path):
        """Every kind x every damage: the kind's typed error, nothing else."""
        spec = KINDS[kind]
        path = tmp_path / f"{kind}.state"
        spec.write(path)
        DAMAGES[damage](path, kind)
        with pytest.raises(spec.error) as caught:
            spec.load(path)
        if damage not in ("wrong-field-type", "missing-field"):
            assert str(path) in str(caught.value)

    @pytest.mark.parametrize("kind,damage", sorted(SPECIFIC))
    def test_specific_damage(self, kind, damage, tmp_path):
        """Damage only one kind can suffer; same contract."""
        spec = KINDS[kind]
        path = tmp_path / f"{kind}.state"
        spec.write(path)
        SPECIFIC[(kind, damage)](path)
        with pytest.raises(spec.error):
            spec.load(path)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_an_undamaged_file_loads(self, kind, tmp_path):
        path = tmp_path / f"{kind}.state"
        KINDS[kind].write(path)
        KINDS[kind].load(path)
        assert not path.with_name(path.name + ".tmp").exists()

    def test_plain_loaders_take_the_same_ladder(self, tmp_path):
        """``load_checkpoint`` without a fingerprint skips only that rung."""
        path = tmp_path / "refine.ckpt"
        save_checkpoint(
            path, build_initial_model(training()).network, 3, 17, 1, []
        )
        assert load_checkpoint(path).iteration == 3
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, "some-training-set")
        path.write_bytes(b"\xff\xfe not text at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)


class TestReadWriteState:
    def test_round_trip_carries_the_format_and_the_body(self, tmp_path):
        path = tmp_path / "s.json"
        write_state(path, "repro/thing/v1", {"a": 1, "fingerprint": "f"})
        assert read_state(path, "repro/thing/v1", CheckpointError, "f") == {
            "format": "repro/thing/v1", "a": 1, "fingerprint": "f",
        }

    def test_error_type_is_the_callers(self, tmp_path):
        for error in (CheckpointError, CertificateError, ArtifactError):
            with pytest.raises(error, match="cannot read thing"):
                read_state(tmp_path / "absent", "repro/thing/v1", error)

    def test_deeply_nested_json_is_corrupt_not_a_recursion_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(CheckpointError, match="corrupt"):
            read_state(path, "repro/thing/v1", CheckpointError)


class TestAtomicWrite:
    def test_failed_replace_leaves_the_destination_untouched(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.bin"
        atomic_write(path, b"generation 1")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(runstate.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, b"generation 2, half written")
        with pytest.raises(OSError, match="disk full"):
            write_state(path, "repro/thing/v1", {"a": 1})
        assert path.read_bytes() == b"generation 1"

    def test_text_and_bytes_land_verbatim(self, tmp_path):
        path = tmp_path / "state"
        atomic_write(path, "text\n")
        assert path.read_bytes() == b"text\n"
        atomic_write(path, b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert os.listdir(tmp_path) == ["state"]


# ---------------------------------------------------------------------------
# Files written by the parent commit (b922c54) still load
# ---------------------------------------------------------------------------

PARENT_NETWORK_CONFIG = """\
# c-bgp style export of as-routing-model
# 4 ASes, 5 routers, 12 sessions
# --- AS1
net add node 0.1.0.1
bgp add router 1 0.1.0.1
net add node 0.1.0.2
bgp add router 1 0.1.0.2
# --- AS2
net add node 0.2.0.1
bgp add router 2 0.2.0.1
# --- AS3
net add node 0.3.0.1
bgp add router 3 0.3.0.1
# --- AS4
net add node 0.4.0.1
bgp add router 4 0.4.0.1
bgp router 0.2.0.1 add peer 1 0.1.0.1
bgp router 0.1.0.1 add peer 2 0.2.0.1
bgp router 0.3.0.1 add peer 1 0.1.0.1
bgp router 0.1.0.1 add peer 3 0.3.0.1
bgp router 0.4.0.1 add peer 2 0.2.0.1
bgp router 0.2.0.1 add peer 4 0.4.0.1
bgp router 0.4.0.1 add peer 3 0.3.0.1
bgp router 0.3.0.1 add peer 4 0.4.0.1
bgp router 0.1.0.2 add peer 2 0.2.0.1
bgp router 0.1.0.2 peer 0.2.0.1 filter in add-rule
  match "prefix is 0.4.0.0/24"
  action "metric 50"
  tag "refine-rank"
  iter 1
  exit
bgp router 0.2.0.1 peer 0.1.0.2 filter out add-rule
  match "prefix is 0.4.0.0/24 & path-length < 2"
  action "deny"
  tag "refine-filter"
  iter 1
  exit
bgp router 0.1.0.2 add peer 3 0.3.0.1
bgp router 0.1.0.2 peer 0.3.0.1 filter in add-rule
  match "prefix is 0.4.0.0/24"
  action "metric 0"
  tag "refine-rank"
  iter 1
  exit
bgp router 0.3.0.1 peer 0.1.0.2 filter out add-rule
  match "prefix is 0.4.0.0/24 & path-length < 2"
  action "deny"
  tag "refine-filter"
  iter 1
  exit
bgp router 0.2.0.1 add peer 1 0.1.0.2
bgp router 0.3.0.1 add peer 1 0.1.0.2
bgp router 0.1.0.1 add network 0.1.0.0/24
bgp router 0.1.0.2 add network 0.1.0.0/24
bgp router 0.2.0.1 add network 0.2.0.0/24
bgp router 0.3.0.1 add network 0.3.0.0/24
bgp router 0.4.0.1 add network 0.4.0.0/24
"""

PARENT_REFINER = {
    "format": "repro/refiner-checkpoint/v1",
    "network_name": "as-routing-model",
    "fingerprint":
        "ca927b3282cf70810e436d3fa2109dfa303811b90058d4b50bed826fcc216536",
    "iteration": 1,
    "best_matched": 1,
    "stale_iterations": 0,
    "iterations": [{
        "iteration": 1, "paths_total": 2, "paths_matched": 1,
        "policies_installed": 4, "routers_added": 1, "filters_deleted": 0,
        "prefixes_resimulated": 1,
    }],
    "network_config": PARENT_NETWORK_CONFIG,
}

PARENT_INGEST = (
    '{"format": "repro/ingest-checkpoint/v1", "source": "feed.dump", '
    '"fingerprint": "120:abc", "byte_offset": 120, "line_number": 3, '
    '"out_offset": 90, "complete": false, "report": {"lines": 3}}'
)

PARENT_CAMPAIGN = """\
{
  "completed": {
    "depeer:AS1-AS2": {
      "blast_radius": 3.0,
      "detail": {
        "x": 1
      },
      "failures": [],
      "key": "depeer:AS1-AS2",
      "kind": "depeer",
      "status": "ok"
    }
  },
  "fingerprint": "fp",
  "format": "repro/campaign-checkpoint/v1"
}
"""

PARENT_CERTIFICATES = """\
{
  "certificates": [
    {
      "findings": [],
      "fingerprint": "3a8c00e73738a6c029056f98888836d44663aa53377bdce31a1246f479550c9b",
      "key": "0.1.0.0/24"
    },
    {
      "findings": [],
      "fingerprint": "1192c56d8904a524d536fd7efc6ae268bc6173b7871610237c814a6abc2b3e9c",
      "key": "0.2.0.0/24"
    },
    {
      "findings": [],
      "fingerprint": "f4bdb02b010994cf13fd0a7db3f7adf47c7bc7e72a0d7570115744597701dad2",
      "key": "0.3.0.0/24"
    },
    {
      "findings": [],
      "fingerprint": "8ab8b3a9ab5094a560afc0287c752c49a900a7eddf063feb38709b295209cbfc",
      "key": "0.4.0.0/24"
    },
    {
      "findings": [],
      "fingerprint": "39927cdb27727c4dad2633fe49bdf35809fed426255aa24a9aefda33f574c2bc",
      "key": "*"
    }
  ],
  "fingerprint": "bf59e547d2679e84425c4001c6d3d11e772d5affce32416f18192b1be09925f2",
  "format": "repro/certificate-store/v1",
  "has_relationships": false
}"""

PARENT_ARTIFACT = base64.b64decode(
    "UkVQUk8tQVJUSUZBQ1QKeyJvYnNlcnZlcnMiOiAyLCAib3JpZ2lucyI6IDEsICJwYWlycyI6"
    "IDIsICJwYXlsb2FkX2J5dGVzIjogMTI2LCAicGF5bG9hZF9zaGEyNTYiOiAiZmI5NTA4MTEz"
    "ZDcxYTFjZGJkODc2YWVkZDc0Y2JlOTc2MTBmOWU4MTRmMDk5ZGM3ZmY5NGIxNTVmYjFhZDZl"
    "OCIsICJzY2hlbWEiOiAxfQp4nEWMQQrDIBBFryKzFmuMq16luJgSSYTGtGpDQLx7/W66Gf7M"
    "m/cr7b4w3UUlTuvZw4Muck0K2o/Fv0CwHM/s0+lTxsckhXE4prCGmIdt+yStrNJK34wlSG8u"
    "259WmiAPWwrbCxBnRJSZAQdxDfbny4ljCdEvQK79AC11Ltc="
)


class TestParentCommitFilesStillLoad:
    """One literal document per kind, byte-for-byte as b922c54 wrote it."""

    def test_refiner_checkpoint_resumes_and_round_trips(self, tmp_path):
        path = tmp_path / "refine.ckpt"
        path.write_text(json.dumps(PARENT_REFINER))
        saved = load_checkpoint(path, PARENT_REFINER["fingerprint"])
        assert saved.iteration == 1 and saved.best_matched == 1
        assert load_refiner(path).iterations[0].policies_installed == 4
        save_checkpoint(
            path, saved.restore_model().network, saved.iteration,
            saved.best_matched, saved.stale_iterations, saved.iterations,
            fingerprint=saved.fingerprint,
        )
        again = load_checkpoint(path, saved.fingerprint)
        assert again.iterations == saved.iterations
        assert json.loads(path.read_text())["format"] == CHECKPOINT_FORMAT

    def test_ingest_checkpoint(self, tmp_path):
        path = tmp_path / "ingest.ckpt"
        path.write_text(PARENT_INGEST)
        loaded = load_ingest_checkpoint(path, "120:abc")
        assert (loaded.byte_offset, loaded.line_number, loaded.out_offset) == (
            120, 3, 90,
        )
        save_ingest_checkpoint(path, loaded)
        assert load_ingest_checkpoint(path, "120:abc") == loaded
        assert json.loads(path.read_text()) == json.loads(PARENT_INGEST)
        assert json.loads(PARENT_INGEST)["format"] == INGEST_CHECKPOINT_FORMAT

    def test_campaign_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_text(PARENT_CAMPAIGN)
        assert load_campaign(path, "fp") == {OUTCOME.key: OUTCOME}
        write_campaign(path, "fp", load_campaign(path, "fp"))
        assert json.loads(path.read_text()) == json.loads(PARENT_CAMPAIGN)
        assert json.loads(PARENT_CAMPAIGN)["format"] == CAMPAIGN_FORMAT

    def test_certificate_store(self, tmp_path):
        path = tmp_path / "model.certs"
        path.write_text(PARENT_CERTIFICATES)
        loaded = CertificateStore.load(path)
        assert len(loaded.certificates) == 5
        assert loaded.store_fingerprint() == json.loads(PARENT_CERTIFICATES)[
            "fingerprint"
        ]
        loaded.save(path)
        assert json.loads(path.read_text()) == json.loads(PARENT_CERTIFICATES)
        assert json.loads(PARENT_CERTIFICATES)["format"] == STORE_FORMAT

    def test_artifact(self, tmp_path):
        path = tmp_path / "pred.artifact"
        path.write_bytes(PARENT_ARTIFACT)
        loaded = PredictionArtifact.load(path)
        assert loaded.paths == tiny_artifact().paths
        assert loaded.schema == SCHEMA_VERSION == 1
        loaded.save(path)
        assert path.read_bytes() == PARENT_ARTIFACT


# ---------------------------------------------------------------------------
# The CLI turns every one of those errors into exit 4
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Dump, refined model and compiled artifact of a small Internet."""
    base = tmp_path_factory.mktemp("runstate-cli")
    assert main(["synthesize", "--seed", "7", "--scale", "0.12",
                 "--points", "6", "--out", str(base / "dump.txt")]) == 0
    assert main(["refine", str(base / "dump.txt"), "--max-iterations", "20",
                 "--out", str(base / "model.cfg")]) == 0
    assert main(["compile-artifact", str(base / "model.cfg"),
                 "--out", str(base / "pred.artifact")]) == 0
    return base


def one_error_line(capsys) -> str:
    lines = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("error:")
    ]
    assert len(lines) == 1, lines
    return lines[0]


@pytest.mark.timeout(300)
class TestCliExitsFourOnMalformedState:
    def test_campaign_resume_from_a_json_array(self, pipeline, tmp_path, capsys):
        checkpoint = tmp_path / "camp.ckpt"
        checkpoint.write_text("[]")
        code = main([
            "campaign", "depeer", str(pipeline / "model.cfg"),
            "--baseline", str(pipeline / "pred.artifact"),
            "--max-scenarios", "2", "--checkpoint", str(checkpoint), "--resume",
        ])
        assert code == 4
        assert str(checkpoint) in one_error_line(capsys)

    def test_query_and_lint_on_an_array_header(self, pipeline, tmp_path, capsys):
        artifact = tmp_path / "pred.artifact"
        artifact.write_bytes((pipeline / "pred.artifact").read_bytes())
        damage_json_array(artifact, "artifact")
        assert main(["query", str(artifact), "--origin", "10",
                     "--observer", "11"]) == 4
        assert "header" in one_error_line(capsys)
        assert main(["lint", str(artifact)]) == 4
        assert "header" in one_error_line(capsys)

    def test_lint_on_embedded_certificates_holding_a_number(
        self, pipeline, tmp_path, capsys
    ):
        good = PredictionArtifact.load(pipeline / "pred.artifact")
        payload = good.to_payload()
        payload["certificates"] = {**good.certificates, "certificates": [5]}
        artifact = tmp_path / "pred.artifact"
        artifact_with_payload(artifact, payload)
        assert main(["lint", str(artifact)]) == 4
        assert "certificate" in one_error_line(capsys)

    def test_refine_resume_from_a_bogus_iteration_record(
        self, pipeline, tmp_path, capsys
    ):
        checkpoint = tmp_path / "refine.ckpt"
        run = ["refine", str(pipeline / "dump.txt"), "--max-iterations", "1",
               "--checkpoint", str(checkpoint), "--checkpoint-every", "1"]
        assert main(run) in (0, 1)
        capsys.readouterr()
        edit_document(checkpoint, iterations=[{"bogus": 1}])
        assert main(run) == 4
        assert str(checkpoint) in one_error_line(capsys)

    @pytest.mark.parametrize(
        "damage",
        [
            b"\x80\x03REPRO\xff\xfe not text",  # e.g. an artifact, by mistake
            b"[" * 200_000,
            b"[]",
        ],
        ids=["non-text-bytes", "deep-nesting", "json-array"],
    )
    def test_a_report_that_is_not_a_json_object(self, damage, tmp_path, capsys):
        """``stats`` reads documents nobody stamped with a format; it takes
        the first three rungs of ``read_state``'s ladder."""
        report = tmp_path / "report.json"
        report.write_bytes(damage)
        assert main(["stats", str(report)]) == 4
        assert str(report) in one_error_line(capsys)

    def test_missing_inputs_are_one_line_not_a_traceback(self, tmp_path, capsys):
        absent = str(tmp_path / "absent")
        for argv in (
            ["analyze", absent],
            ["whatif", absent, "--remove", "1", "2"],
            ["explain", absent, "0.10.0.0/24"],
            ["compile-artifact", absent, "--out", str(tmp_path / "a")],
            ["query", absent, "--origin", "1", "--observer", "2"],
            ["lint", absent],
            ["stats", absent],
            ["ingest", absent],
            ["ingest", absent, "--format", "as-rel"],
        ):
            assert main(argv) == 4, argv
            assert "absent" in one_error_line(capsys)


# ---------------------------------------------------------------------------
# The drain scope
# ---------------------------------------------------------------------------

DRAIN_CHILD = """
import sys, time
from repro.runstate import drain_signals
calls = []
with drain_signals(on_stop=calls.append) as drain:
    print("ready", flush=True)
    deadline = time.monotonic() + 30
    while drain.signum is None and time.monotonic() < deadline:
        time.sleep(0.01)
print(drain.signum, calls, flush=True)
"""


class TestDrainSignals:
    def test_handlers_are_swapped_in_and_restored(self):
        before = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        with drain_signals() as drain:
            assert signal.getsignal(signal.SIGTERM) not in before
            assert drain.signum is None
            signal.raise_signal(signal.SIGTERM)
            assert drain.signum == signal.SIGTERM
        after = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        assert after == before

    def test_nested_scopes_restore_the_outer_handlers(self):
        with drain_signals() as outer:
            outer_handler = signal.getsignal(signal.SIGTERM)
            with drain_signals() as inner:
                signal.raise_signal(signal.SIGTERM)
                assert inner.signum == signal.SIGTERM
                assert outer.signum is None
            assert signal.getsignal(signal.SIGTERM) == outer_handler
            signal.raise_signal(signal.SIGINT)
            assert outer.signum == signal.SIGINT

    def test_handlers_come_back_when_the_body_raises(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(RuntimeError):
            with drain_signals():
                raise RuntimeError("boom")
        assert signal.getsignal(signal.SIGTERM) == before

    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="no SIGHUP here")
    def test_sighup_is_routed_only_when_asked(self):
        before = signal.getsignal(signal.SIGHUP)
        with drain_signals():
            assert signal.getsignal(signal.SIGHUP) == before
        hups = []
        with drain_signals(on_hup=lambda: hups.append(1)) as drain:
            signal.raise_signal(signal.SIGHUP)
            assert hups == [1] and drain.signum is None
        assert signal.getsignal(signal.SIGHUP) == before

    def test_a_non_main_thread_installs_nothing_and_raises_nothing(self):
        before = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        seen = {}

        def body():
            try:
                with drain_signals() as drain:
                    seen["inside"] = (
                        signal.getsignal(signal.SIGINT),
                        signal.getsignal(signal.SIGTERM),
                    )
                    drain.signum = signal.SIGTERM  # still usable by hand
                    seen["signum"] = drain.signum
            except BaseException as error:  # noqa: BLE001 - reported below
                seen["error"] = error

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "error" not in seen
        assert seen["inside"] == before
        assert seen["signum"] == signal.SIGTERM
        assert (
            signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        ) == before

    def test_a_real_sigterm_sets_signum_and_calls_on_stop_once(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", DRAIN_CHILD],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert child.stdout.readline().strip() == "ready"
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == 0
        assert out.strip() == f"{int(signal.SIGTERM)} [{int(signal.SIGTERM)}]"


# ---------------------------------------------------------------------------
# Each mechanism exists once
# ---------------------------------------------------------------------------


@functools.cache
def source_trees() -> tuple[tuple[str, ast.AST], ...]:
    root = Path(repro.__file__).parent
    return tuple(
        (
            source.relative_to(root).as_posix(),
            ast.parse(source.read_text(), str(source)),
        )
        for source in sorted(root.rglob("*.py"))
    )


def call_sites(function: str, module: str | None = None) -> set[str]:
    """Files under ``src/repro`` calling ``<module>.function(...)``.

    With ``module`` None any receiver counts (``self._ctx.Process(...)``).
    """
    found = set()
    for name, tree in source_trees():
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else None
            if not isinstance(target, ast.Attribute) or target.attr != function:
                continue
            receiver = target.value
            if module is None or (
                isinstance(receiver, ast.Name) and receiver.id == module
            ):
                found.add(name)
    return found


def imports_of(module: str, name: str) -> set[str]:
    """Files doing ``from module import name`` (which would dodge the above)."""
    return {
        source
        for source, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == module
        and any(alias.name == name for alias in node.names)
    }


def handlers_of(exception: str) -> set[str]:
    """Files under ``src/repro`` with an ``except`` clause naming ``exception``."""
    return {
        source
        for source, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(
            isinstance(name, ast.Name) and name.id == exception
            for name in ast.walk(node.type)
        )
    }


def sites(match: Callable[[ast.AST], bool]) -> dict[str, int]:
    """How many nodes of each file under ``src/repro`` satisfy ``match``."""
    found: dict[str, int] = {}
    for name, tree in source_trees():
        count = sum(1 for node in ast.walk(tree) if match(node))
        if count:
            found[name] = count
    return found


def calls(function: str, keyword: str | None = None) -> dict[str, int]:
    """Sites calling the bare name ``function`` (passing ``keyword=``)."""
    return sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == function
        and (keyword is None or any(k.arg == keyword for k in node.keywords))
    )


class TestEachMechanismExistsOnce:
    def test_a_run_is_set_up_and_observed_by_the_cli_spine_alone(self):
        """Registry reset, run-metadata stamp and ``--trace`` scope: one site
        each, in ``cli.main``; a handler reads ``args.meta``."""
        assert sites(
            lambda node: isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "reset"
            and ast.unparse(node.func.value) == "get_registry()"
        ) == {
            "cli.py": 1,
            "serve/supervisor.py": 1,  # a serve worker's process entry
        }
        assert calls("run_metadata", keyword="argv") == {"cli.py": 1}
        assert calls("JsonlTracer") == {
            "cli.py": 1,
            "experiments/obs.py": 1,  # the OBS experiment times the sink itself
        }

    def test_a_report_is_emitted_by_the_cli_spine_alone(self):
        """One ``--json`` fork, in ``cli.emit``: a command declares the flag
        (``dest="as_json"``) and never reads it."""
        assert sites(
            lambda node: isinstance(node, ast.Attribute) and node.attr == "as_json"
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
            and any(
                isinstance(arg, ast.Constant) and arg.value == "as_json"
                for arg in node.args
            )
        ) == {"cli.py": 1}

    def test_a_run_is_mapped_to_an_exit_code_by_the_cli_spine_alone(self):
        """One ``error:`` line in the tree; codes 1-5 are ``EXIT_*`` constants,
        a report's ``exit_code`` or an exception ``cli.main`` maps — never a
        literal a handler returns."""

        def prints_error(node: ast.AST) -> bool:
            if not (isinstance(node, ast.Call) and node.args
                    and ast.unparse(node.func) == "print"):
                return False
            text = node.args[0]
            if isinstance(text, ast.JoinedStr):
                text = text.values[0]
            return isinstance(text, ast.Constant) and str(text.value).startswith("error:")

        assert sites(prints_error) == {"cli.py": 1}
        command_path = {"cli.py", "command.py"} | {
            name for name, _ in source_trees() if name.endswith("/commands.py")
        }
        assert len(command_path) == 9
        assert {
            name: count
            for name, count in sites(
                lambda node: isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int and node.value.value != 0
            ).items()
            if name in command_path
        } == {}

    def test_command_modules_are_imported_by_the_cli_alone(self):
        """No package ``__init__`` (nor anything else a pipeline stage
        imports) loads a command module: ``setup_s`` is those packages.
        No module imports one by name at all: ``cli.COMMANDS`` names all
        seven, and the spine imports the one a run dispatches to."""
        assert sites(
            lambda node: (
                isinstance(node, ast.ImportFrom)
                and ((node.module or "").endswith(".commands")
                     or any(alias.name == "commands" for alias in node.names))
            ) or (
                isinstance(node, ast.Import)
                and any(alias.name.endswith(".commands") for alias in node.names)
            )
        ) == {}
        assert call_sites("import_module", "importlib") == {"cli.py"}
        command_modules = {
            "repro." + name[: -len(".py")].replace("/", ".")
            for name, _ in source_trees() if name.endswith("/commands.py")
        }
        assert len(command_modules) == 7
        assert {module for _, _, module in COMMANDS} == command_modules

    def test_os_replace_is_called_only_by_runstate(self):
        assert call_sites("replace", "os") == {"runstate.py"}
        assert imports_of("os", "replace") == set()

    def test_signal_handlers_are_installed_in_two_places(self):
        assert call_sites("signal", "signal") == {
            "runstate.py",          # the SIGINT/SIGTERM(/SIGHUP) drain scope
            "parallel/worker.py",   # SIG_IGN for SIGINT inside a pool worker
        }
        assert imports_of("signal", "signal") == set()

    def test_worker_processes_are_spawned_only_by_worker_slots(self):
        assert call_sites("Process") == {"parallel/supervisor.py"}
        assert call_sites("Pipe") == {"parallel/supervisor.py"}
        assert imports_of("multiprocessing", "Process") == set()

    def test_a_network_blob_is_unpickled_in_one_place(self):
        """A pool worker's tasks share ``WorkingCopy``'s create-or-recover; the
        worker's other ``pickle.loads`` reads the campaign context."""
        loads = [
            (name, ast.unparse(node.args[0]))
            for name, tree in source_trees()
            if name.startswith("campaign/") or name == "parallel/worker.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
        ]
        assert sorted(loads) == [
            ("parallel/worker.py", "context_blob"),
            ("parallel/worker.py", "self._blob"),
        ]
        assert imports_of("pickle", "loads") == set()

    def test_a_network_is_pickled_for_processes_only(self):
        """One process needs no copy: a sequential campaign lends the
        model's own network (``Network.perturbation``)."""
        assert calls("dump_network") == {"parallel/supervisor.py": 1}
        assert imports_of("repro.parallel.protocol", "dump_network") == {
            "parallel/supervisor.py"
        }

    def test_a_perturbation_is_opened_and_closed_by_the_network_alone(self):
        """Everyone who lends a network uses the context manager, so no
        lender can forget the close on its failure path."""
        for method in ("open_perturbation", "close_perturbation"):
            assert call_sites(method) == {"bgp/network.py"}, method
        assert call_sites("perturbation") == {
            "campaign/engine.py",   # the model's network, sequentially
            "parallel/worker.py",   # a pool worker's unpickled copy
        }

    def test_a_worker_does_not_look_at_what_a_task_is(self):
        worker_main = next(
            node
            for node in ast.walk(dict(source_trees())["parallel/worker.py"])
            if isinstance(node, ast.FunctionDef) and node.name == "worker_main"
        )
        assert not [
            node for node in ast.walk(worker_main)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        ]

    def test_the_pool_has_one_way_in(self):
        pool = next(
            node
            for node in ast.walk(dict(source_trees())["parallel/supervisor.py"])
            if isinstance(node, ast.ClassDef) and node.name == "SupervisedPool"
        )
        assert [
            method.name for method in pool.body
            if isinstance(method, ast.FunctionDef)
            and method.name.startswith("run")
        ] == ["run_tasks"]
        assert call_sites("run_tasks") == {
            "campaign/engine.py",   # one task per scenario
            "core/model.py",        # one task per prefix
        }

    def test_what_a_prefix_result_means_is_its_clients_business(self):
        """The pool hands values back; folding one into an ``EngineStats``
        or recording a ``Quarantine`` is ``simulate_pooled``'s."""
        assert not [
            (source, alias.name)
            for source, tree in source_trees() if source.startswith("parallel/")
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in ("EngineStats", "Quarantine")
        ]

    def test_the_rib_layout_is_known_to_the_bgp_package_alone(self):
        """A prefix's slice is captured and installed by ``Network``; no
        module outside ``bgp/`` names a RIB."""
        root = Path(repro.__file__).parent
        assert not {
            source.relative_to(root).as_posix()
            for source in root.rglob("*.py")
            if not source.relative_to(root).as_posix().startswith("bgp/")
            and re.search(r"adj_rib_in|adj_rib_out|loc_rib", source.read_text())
        }

    def test_the_engine_has_one_message_loop(self):
        """``simulate_prefix`` and ``resume_prefix`` seed the queue; only
        ``_drain`` takes messages off it."""
        tree = dict(source_trees())["bgp/engine.py"]
        assert [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr == "popleft"
        ] == ["_drain"]

    def test_the_result_record_is_a_dict_literal_in_one_function(self):
        """``ExperimentResult.to_record`` is the only writer of the
        ``results/*.json`` record shape, benchmarks and scripts included."""
        record_keys = {
            "experiment", "title", "headers", "rows", "metrics", "notes", "meta",
        }
        root = Path(repro.__file__).parents[2]
        writers = [
            (source.relative_to(root).as_posix(), function.name)
            for directory in ("src", "benchmarks", "scripts")
            for source in sorted((root / directory).rglob("*.py"))
            for function in ast.walk(ast.parse(source.read_text(), str(source)))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, ast.Dict)
            and record_keys <= {
                key.value for key in node.keys if isinstance(key, ast.Constant)
            }
        ]
        assert writers == [("src/repro/experiments/report.py", "to_record")]

    def test_divergence_is_caught_in_one_place_per_layer(self):
        """The engine quarantines a ``ConvergenceError``; ``cli.main`` turns
        one that escapes (its base class) into ``error:`` + exit 3."""
        assert handlers_of("ConvergenceError") == {"bgp/engine.py"}
        assert handlers_of("SimulationError") == {"cli.py"}

