"""Tests for hot-swap artifact reloads (EngineRef / ReloadCoordinator /
ArtifactWatcher) and the availability contract around them."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ArtifactError
from repro.net.prefix import prefix_for_asn
from repro.obs.metrics import get_registry
from repro.resilience.faults import corrupt_artifact_payload
from repro.serve import PredictionArtifact, QueryEngine, build_artifact
from repro.serve.http import PredictionServer
from repro.serve.reload import ArtifactWatcher, EngineRef, ReloadCoordinator


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def make_artifact(version=1):
    """A small artifact; higher versions carry more paths (new checksum)."""
    paths = {(10, 1): {(1, 2, 10)}, (10, 2): {(2, 10)}}
    for extra in range(2, version + 1):
        paths[(10, 1)] = set(paths[(10, 1)]) | {(1, 3 + extra, 10)}
    return build_artifact(
        origins={10: prefix_for_asn(10)},
        observers=[1, 2],
        paths=paths,
        meta={"version": version},
    )


@pytest.fixture
def artifact_file(tmp_path):
    path = tmp_path / "reload.artifact"
    make_artifact(1).save(path)
    return path


class TestArtifactChecksum:
    def test_save_and_load_set_the_checksum(self, tmp_path):
        artifact = make_artifact()
        assert artifact.checksum == ""  # never touched disk
        artifact.save(tmp_path / "a.artifact")
        assert artifact.checksum != ""
        loaded = PredictionArtifact.load(tmp_path / "a.artifact")
        assert loaded.checksum == artifact.checksum

    def test_distinct_contents_distinct_checksums(self, tmp_path):
        one, two = make_artifact(1), make_artifact(2)
        one.save(tmp_path / "1.artifact")
        two.save(tmp_path / "2.artifact")
        assert one.checksum != two.checksum

    def test_checksum_reaches_engine_describe(self, tmp_path):
        artifact = make_artifact()
        artifact.save(tmp_path / "a.artifact")
        loaded = PredictionArtifact.load(tmp_path / "a.artifact")
        described = QueryEngine(loaded).describe()
        assert described["checksum"] == artifact.checksum

    def test_corrupt_artifact_payload_breaks_the_checksum(self, tmp_path):
        path = tmp_path / "a.artifact"
        make_artifact().save(path)
        flips = corrupt_artifact_payload(path, seed=7)
        assert flips >= 1
        with pytest.raises(ArtifactError, match="checksum"):
            PredictionArtifact.load(path)


class TestEngineRef:
    def test_swap_returns_the_old_engine(self):
        old = QueryEngine(make_artifact(1))
        new = QueryEngine(make_artifact(2))
        ref = EngineRef(old)
        assert ref.get() is old
        assert ref.swap(new) is old
        assert ref.get() is new

    def test_old_engine_keeps_answering_after_a_swap(self):
        old = QueryEngine(make_artifact(1))
        ref = EngineRef(old)
        grabbed = ref.get()  # an in-flight request's view
        ref.swap(QueryEngine(make_artifact(2)))
        assert grabbed.paths(10, 1).to_dict()["reachable"] is True


class TestReloadCoordinator:
    def coordinator(self, artifact_file, cache_size=8):
        engine = QueryEngine(PredictionArtifact.load(artifact_file))
        ref = EngineRef(engine)
        return ref, ReloadCoordinator(ref, artifact_file, cache_size)

    def test_reload_swaps_to_the_new_artifact(self, artifact_file):
        ref, coordinator = self.coordinator(artifact_file)
        before = ref.get()
        make_artifact(2).save(artifact_file)
        result = coordinator.reload()
        assert result["outcome"] == "reloaded"
        assert ref.get() is not before
        assert ref.get().artifact.checksum == result["checksum"]
        assert coordinator.describe()["generation"] == 2
        assert get_registry().counter("serve.reloads").value == 1

    def test_unchanged_file_does_not_swap(self, artifact_file):
        ref, coordinator = self.coordinator(artifact_file)
        before = ref.get()
        result = coordinator.reload()
        assert result["outcome"] == "unchanged"
        assert ref.get() is before
        assert get_registry().counter("serve.reloads").value == 0

    def test_failed_validation_keeps_the_old_engine_degraded(
        self, artifact_file
    ):
        ref, coordinator = self.coordinator(artifact_file)
        before = ref.get()
        corrupt_artifact_payload(artifact_file, seed=3)
        result = coordinator.reload()
        assert result["outcome"] == "failed"
        assert "checksum" in result["error"]
        assert ref.get() is before  # old artifact still serving
        assert coordinator.degraded is True
        state = coordinator.describe()
        assert state["failures"] == 1
        assert state["last_error"]
        assert state["staleness_seconds"] >= 0
        assert get_registry().counter("serve.reload_failures").value == 1

    def test_good_reload_clears_degraded(self, artifact_file):
        _, coordinator = self.coordinator(artifact_file)
        corrupt_artifact_payload(artifact_file, seed=3)
        coordinator.reload()
        assert coordinator.degraded is True
        make_artifact(2).save(artifact_file)
        assert coordinator.reload()["outcome"] == "reloaded"
        assert coordinator.degraded is False
        assert coordinator.describe()["last_error"] == ""

    def test_concurrent_reload_reports_busy(self, artifact_file):
        _, coordinator = self.coordinator(artifact_file)
        with coordinator._reload_lock:
            assert coordinator.reload()["outcome"] == "busy"


class TestArtifactWatcher:
    def test_triggers_once_per_signature(self, artifact_file):
        _, coordinator = TestReloadCoordinator().coordinator(artifact_file)
        watcher = ArtifactWatcher(coordinator, interval=60.0)
        assert watcher.poll_once() is None  # startup signature: no reload
        make_artifact(2).save(artifact_file)
        result = watcher.poll_once()
        assert result["outcome"] == "reloaded"
        assert watcher.poll_once() is None  # same signature: attempted once

    def test_corrupt_write_degrades_exactly_once(self, artifact_file):
        _, coordinator = TestReloadCoordinator().coordinator(artifact_file)
        watcher = ArtifactWatcher(coordinator, interval=60.0)
        corrupt_artifact_payload(artifact_file, seed=1)
        assert watcher.poll_once()["outcome"] == "failed"
        assert watcher.poll_once() is None  # no retry loop on the same file
        assert get_registry().counter("serve.reload_failures").value == 1

    def test_a_tick_that_overlaps_another_reload_is_retried(
        self, artifact_file, monkeypatch
    ):
        """The file is replaced while a ``POST /-/reload`` is mid-load, after
        that reload read it: the watcher's tick is answered ``busy``, which
        is no attempt — the next tick serves the file that is on disk."""
        ref, coordinator = TestReloadCoordinator().coordinator(artifact_file)
        watcher = ArtifactWatcher(coordinator, interval=60.0)
        loaded, release = threading.Event(), threading.Event()
        load = PredictionArtifact.load

        def load_then_hold(path):
            artifact = load(path)
            loaded.set()
            assert release.wait(timeout=10)
            return artifact

        monkeypatch.setattr(PredictionArtifact, "load", staticmethod(load_then_hold))
        make_artifact(2).save(artifact_file)
        overlapped = threading.Thread(target=coordinator.reload)
        overlapped.start()
        assert loaded.wait(timeout=10)
        make_artifact(3).save(artifact_file)
        assert watcher.poll_once()["outcome"] == "busy"
        release.set()
        overlapped.join(timeout=10)
        assert not overlapped.is_alive()
        assert watcher.poll_once()["outcome"] == "reloaded"
        assert ref.get().artifact.checksum == load(artifact_file).checksum
        assert watcher.poll_once() is None  # and that was the attempt

    def test_rejects_nonpositive_interval(self, artifact_file):
        _, coordinator = TestReloadCoordinator().coordinator(artifact_file)
        with pytest.raises(ValueError):
            ArtifactWatcher(coordinator, interval=0)


def post(server, path):
    request = urllib.request.Request(
        f"http://{server.address}{path}", data=b"", method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def get(server, path):
    try:
        with urllib.request.urlopen(
            f"http://{server.address}{path}", timeout=10
        ) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestReloadOverHTTP:
    @pytest.fixture
    def server(self, artifact_file):
        engine = QueryEngine(PredictionArtifact.load(artifact_file))
        instance = PredictionServer(engine, host="127.0.0.1", port=0)
        instance.reloader = ReloadCoordinator(
            instance.engine_ref, artifact_file
        )
        loop = threading.Thread(target=instance.serve_forever, daemon=True)
        loop.start()
        yield instance
        instance.drain()
        loop.join(timeout=10)

    def test_post_reload_swaps_and_healthz_reports_it(
        self, server, artifact_file
    ):
        old_checksum = server.engine.artifact.checksum
        make_artifact(2).save(artifact_file)
        status, body = post(server, "/-/reload")
        assert status == 200
        assert body["outcome"] == "reloaded"
        status, health = get(server, "/healthz")
        assert status == 200
        assert health["artifact"]["checksum"] == body["checksum"]
        assert health["artifact"]["checksum"] != old_checksum
        assert health["reload"]["generation"] == 2

    def test_post_reload_unchanged(self, server):
        status, body = post(server, "/-/reload")
        assert status == 200
        assert body["outcome"] == "unchanged"

    def test_corrupted_reload_keeps_serving_degraded(
        self, server, artifact_file
    ):
        corrupt_artifact_payload(artifact_file, seed=5)
        status, body = post(server, "/-/reload")
        assert status == 500
        assert body["outcome"] == "failed"
        status, health = get(server, "/healthz")
        assert status == 200  # alive: liveness is not readiness
        assert health["status"] == "degraded"
        assert health["reload"]["last_error"]
        # The old artifact still answers.
        assert get(server, "/paths?origin=10&observer=1")[0] == 200
        # Readiness shows degraded but ready.
        status, ready = get(server, "/readyz")
        assert status == 200
        assert ready == {"ready": True, "status": "degraded"}

    def test_get_reload_is_405(self, server):
        status, body = get(server, "/-/reload")
        assert status == 405
        assert body["error"]["kind"] == "method-not-allowed"

    def test_post_elsewhere_is_404(self, server):
        assert post(server, "/paths")[0] == 404

    def test_reload_without_coordinator_is_503(self, artifact_file):
        engine = QueryEngine(PredictionArtifact.load(artifact_file))
        instance = PredictionServer(engine, host="127.0.0.1", port=0)
        loop = threading.Thread(target=instance.serve_forever, daemon=True)
        loop.start()
        try:
            status, body = post(instance, "/-/reload")
            assert status == 503
            assert body["error"]["kind"] == "reload-unavailable"
        finally:
            instance.drain()
            loop.join(timeout=10)


class TestHotSwapEndToEnd:
    """The acceptance demo: a live server answers sustained queries while
    artifact v2 lands and a reload is triggered — zero failed requests,
    and /healthz reports the new checksum."""

    def test_zero_dropped_requests_across_a_reload(self, artifact_file):
        engine = QueryEngine(PredictionArtifact.load(artifact_file))
        server = PredictionServer(engine, host="127.0.0.1", port=0)
        server.reloader = ReloadCoordinator(server.engine_ref, artifact_file)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        outcomes = []
        stop = threading.Event()

        def sustained_load():
            while not stop.is_set():
                outcomes.append(get(server, "/paths?origin=10&observer=1")[0])

        clients = [threading.Thread(target=sustained_load) for _ in range(3)]
        try:
            for client in clients:
                client.start()
            while len(outcomes) < 20:  # the load is demonstrably flowing
                time.sleep(0.01)
            v2 = make_artifact(2)
            v2.save(artifact_file)
            status, body = post(server, "/-/reload")
            assert (status, body["outcome"]) == (200, "reloaded")
            baseline = len(outcomes)
            while len(outcomes) < baseline + 20:  # and keeps flowing after
                time.sleep(0.01)
        finally:
            stop.set()
            for client in clients:
                client.join(timeout=10)
            server.drain()
            loop.join(timeout=10)
        assert outcomes and all(status == 200 for status in outcomes), (
            f"{sum(1 for s in outcomes if s != 200)} of {len(outcomes)} "
            "requests failed across the hot swap"
        )
        # The swap happened: the server's engine now serves v2.
        assert server.engine.artifact.checksum == v2.checksum
