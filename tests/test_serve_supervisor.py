"""Tests for supervised multi-worker serving: the shared
SupervisionLedger and a real ``repro serve --workers 2`` process tree."""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.net.prefix import prefix_for_asn
from repro.obs.metrics import get_registry
from repro.parallel.protocol import MSG_HEARTBEAT, MSG_READY
from repro.parallel.supervisor import SupervisionLedger
from repro.serve import build_artifact
from repro.serve.supervisor import ServeSupervisor, _ServeWorker


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestSupervisionLedger:
    def test_first_spawn_is_not_a_restart(self):
        ledger = SupervisionLedger("serve", workers=2)
        generation, restart = ledger.record_spawn(0, pid=100)
        assert (generation, restart) == (1, False)
        generation, restart = ledger.record_spawn(1, pid=101)
        assert (generation, restart) == (2, False)  # global spawn count
        assert ledger.restarts == 0

    def test_respawn_counts_as_a_restart(self):
        ledger = SupervisionLedger("serve", workers=1)
        ledger.record_spawn(0, pid=100)
        ledger.record_death(0, pid=100, generation=1, reason="killed")
        generation, restart = ledger.record_spawn(0, pid=200)
        assert (generation, restart) == (2, True)
        assert ledger.restarts == 1
        registry = get_registry()
        assert registry.counter("serve.workers_spawned").value == 2
        assert registry.counter("serve.worker_restarts").value == 1
        assert registry.counter("serve.worker_deaths").value == 1

    def test_summary_shape_matches_the_merge_contract(self):
        ledger = SupervisionLedger("parallel", workers=3)
        ledger.record_spawn(0, pid=1)
        summary = ledger.summary()
        assert summary == {
            "workers": 3,
            "spawned": 1,
            "deaths": 0,
            "restarts": 0,
        }

    def test_prefixes_keep_serve_and_parallel_metrics_apart(self):
        SupervisionLedger("serve", workers=1).record_spawn(0, pid=1)
        SupervisionLedger("parallel", workers=1).record_spawn(0, pid=2)
        registry = get_registry()
        assert registry.counter("serve.workers_spawned").value == 1
        assert registry.counter("parallel.workers_spawned").value == 1


class TestReloadFanOut:
    """SIGHUP forwarding, on the supervisor alone: ``_signal`` is recorded
    and the slots hold records of processes that do not exist."""

    @pytest.fixture()
    def supervisor(self):
        supervisor = ServeSupervisor("unused.artifact", workers=3)
        supervisor.sent = []
        supervisor._signal = lambda worker, signum: supervisor.sent.append(
            (worker.index, signum)
        )
        supervisor._slots._slots[:] = [
            _ServeWorker(index, 1, None, None, 1000 + index, 0.0)
            for index in range(3)
        ]
        return supervisor

    def test_a_booting_worker_is_owed_the_reload_until_it_is_ready(self, supervisor):
        """Forwarded at once it would run the handler the fork inherited
        from the supervisor, and the worker would keep the old artifact."""
        ready, booting, late = supervisor._slots.live()
        supervisor._handle_message(ready, (MSG_READY, ready.pid, "127.0.0.1:1"))
        supervisor._forward_hup()
        assert supervisor.sent == [(0, signal.SIGHUP)]
        supervisor._handle_message(booting, (MSG_HEARTBEAT,))
        assert supervisor.sent == [(0, signal.SIGHUP)]
        supervisor._handle_message(booting, (MSG_READY, booting.pid, "127.0.0.1:1"))
        assert supervisor.sent == [(0, signal.SIGHUP), (1, signal.SIGHUP)]
        # Two reloads while booting are one reload of the newest artifact ...
        supervisor._forward_hup()
        supervisor._forward_hup()
        supervisor._handle_message(late, (MSG_READY, late.pid, "127.0.0.1:1"))
        assert supervisor.sent[2:] == [
            (0, signal.SIGHUP), (1, signal.SIGHUP),
            (0, signal.SIGHUP), (1, signal.SIGHUP),
            (2, signal.SIGHUP),
        ]
        # ... and nothing stays owed.
        for worker in supervisor._slots.live():
            supervisor._handle_message(worker, (MSG_READY, worker.pid, "127.0.0.1:1"))
        assert len(supervisor.sent) == 7

    def test_a_replacement_worker_owes_nothing(self, supervisor):
        """It loads whatever artifact is current when it boots."""
        supervisor._forward_hup()
        supervisor._slots._slots[1] = fresh = _ServeWorker(1, 2, None, None, 2001, 0.0)
        supervisor._handle_message(fresh, (MSG_READY, fresh.pid, "127.0.0.1:1"))
        assert supervisor.sent == []


# ----------------------------------------------------------------------
# The real process tree (kept brief: the chaos campaign covers depth)
# ----------------------------------------------------------------------


def _get(address, path, timeout=5.0):
    with urllib.request.urlopen(
        f"http://{address}{path}", timeout=timeout
    ) as response:
        return response.status, json.load(response)


def _read_banner(process, timeout=30.0):
    lines = []
    reader = threading.Thread(
        target=lambda: lines.append(process.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout)
    assert lines and "http://" in (lines[0] or ""), (
        f"no banner within {timeout}s: {lines!r}"
    )
    return lines[0].strip().rsplit("http://", 1)[1]


def _worker_pids(address, workers, deadline=30.0):
    """Poll /healthz until `workers` distinct worker pids have answered."""
    pids = set()
    limit = time.monotonic() + deadline
    while len(pids) < workers and time.monotonic() < limit:
        try:
            _, body = _get(address, "/healthz", timeout=2.0)
            pids.add(body["pid"])
        except OSError:
            pass
        time.sleep(0.02)
    assert len(pids) >= workers, f"saw only pids {pids}"
    return pids


@pytest.mark.slow
class TestServeWorkers:
    def test_worker_killed_with_sigkill_is_replaced(self, tmp_path):
        artifact = tmp_path / "pool.artifact"
        build_artifact(
            origins={10: prefix_for_asn(10)},
            observers=[1],
            paths={(10, 1): {(1, 10)}},
        ).save(artifact)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact),
             "--port", "0", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            address = _read_banner(process)
            pids = _worker_pids(address, workers=2)
            victim = min(pids)
            os.kill(victim, signal.SIGKILL)
            # The victim's replacement shows up as a pid we never saw.
            limit = time.monotonic() + 15.0
            replacement = None
            while replacement is None and time.monotonic() < limit:
                try:
                    _, body = _get(address, "/healthz", timeout=2.0)
                    if body["pid"] not in pids:
                        replacement = body["pid"]
                except OSError:
                    pass
                time.sleep(0.02)
            assert replacement is not None, "killed worker never replaced"
            # The survivor kept answering queries throughout.
            status, body = _get(address, "/paths?origin=10&observer=1")
            assert status == 200 and body["reachable"] is True
            # SIGTERM drains the whole tree cleanly.
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_no_signal_is_slept_through_while_request_threads_are_busy(
        self, tmp_path
    ):
        """The kernel may deliver a SIGHUP to a request thread; the main
        thread must still act on it without waiting for the next signal."""
        artifact = tmp_path / "busy.artifact"
        build_artifact(
            origins={10: prefix_for_asn(10)},
            observers=[1],
            paths={(10, 1): {(1, 10)}},
        ).save(artifact)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact),
             "--port", "0", "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        stop = threading.Event()

        def hammer(address):
            while not stop.is_set():
                try:
                    _get(address, "/paths?origin=10&observer=1")
                except (OSError, http.client.HTTPException):
                    pass  # the drain at the end cuts a request short

        try:
            address = _read_banner(process)
            clients = [
                threading.Thread(target=hammer, args=(address,), daemon=True)
                for _ in range(4)
            ]
            for client in clients:
                client.start()
            for sent in range(1, 31):
                process.send_signal(signal.SIGHUP)
                limit = time.monotonic() + 5.0
                attempts = 0
                while attempts < sent and time.monotonic() < limit:
                    _, body = _get(address, "/healthz")
                    attempts = body["reload"]["attempts"]
                assert attempts == sent, f"SIGHUP {sent} was not acted on"
            stop.set()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            stop.set()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_single_worker_requires_no_supervisor(self, tmp_path):
        """--workers 1 keeps the historical in-process path."""
        artifact = tmp_path / "solo.artifact"
        build_artifact(
            origins={10: prefix_for_asn(10)},
            observers=[1],
            paths={(10, 1): {(1, 10)}},
        ).save(artifact)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(artifact),
             "--port", "0", "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            address = _read_banner(process)
            status, body = _get(address, "/healthz")
            assert status == 200 and body["status"] == "ok"
            assert body["pid"] == process.pid  # no forked workers
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
