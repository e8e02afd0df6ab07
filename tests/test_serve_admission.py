"""Tests for overload protection: bounded admission, deadlines, and the
sliding-window circuit breaker."""

import threading

import pytest

from repro.obs.metrics import Gauge, get_registry, labelled
from repro.serve.admission import AdmissionController, Rejection, Ticket


@pytest.fixture(autouse=True)
def clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestBoundedAdmission:
    def test_admits_up_to_max_inflight(self):
        controller = AdmissionController(max_inflight=2)
        first = controller.admit("/paths")
        second = controller.admit("/paths")
        assert isinstance(first, Ticket) and isinstance(second, Ticket)
        assert controller.inflight == 2
        assert get_registry().gauge("serve.inflight").value == 2

    def test_sheds_the_excess_with_retry_after(self):
        controller = AdmissionController(max_inflight=1)
        controller.admit("/paths")
        rejection = controller.admit("/paths")
        assert isinstance(rejection, Rejection)
        assert rejection.reason == "overload"
        assert rejection.retry_after >= 1
        registry = get_registry()
        assert registry.counter("serve.shed").value == 1
        assert registry.counter(
            labelled("serve.shed", route="/paths", reason="overload")
        ).value == 1

    def test_release_frees_a_slot(self):
        controller = AdmissionController(max_inflight=1)
        ticket = controller.admit("/paths")
        assert isinstance(controller.admit("/paths"), Rejection)
        controller.release(ticket)
        assert controller.inflight == 0
        assert get_registry().gauge("serve.inflight").value == 0
        assert isinstance(controller.admit("/paths"), Ticket)

    def test_rejects_nonsense_limits(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(deadline_seconds=0)


class TestDeadlines:
    def test_ticket_tracks_remaining_budget(self):
        controller = AdmissionController(deadline_seconds=5.0)
        ticket = controller.admit("/paths")
        assert 0 < ticket.remaining <= 5.0

    def test_fast_release_records_positive_headroom(self):
        controller = AdmissionController(deadline_seconds=5.0)
        controller.release(controller.admit("/paths"))
        registry = get_registry()
        histogram = registry.histogram("serve.deadline_headroom_seconds")
        assert histogram.count == 1
        assert registry.counter("serve.deadline_exceeded").value == 0

    def test_blown_deadline_is_counted(self):
        controller = AdmissionController(deadline_seconds=5.0)
        ticket = controller.admit("/paths")
        # Rewind the start so the deadline has already passed.
        ticket.started -= 6.0
        assert ticket.remaining < 0
        controller.release(ticket)
        assert get_registry().counter("serve.deadline_exceeded").value == 1


class TestBreaker:
    def test_opens_on_the_most_expensive_route(self):
        controller = AdmissionController(
            max_inflight=1, breaker_threshold=3, breaker_cooloff=60.0
        )
        # Record costs: /paths is 10x dearer than /predict.
        cheap = controller.admit("/predict")
        controller.release(cheap)
        dear = controller.admit("/paths")
        dear.started -= 1.0  # looks like it took a second
        controller.release(dear)
        holder = controller.admit("/paths")  # occupy the only slot
        for _ in range(4):  # > threshold sheds inside the window
            assert isinstance(controller.admit("/predict"), Rejection)
        assert controller.describe()["breaker_open_route"] == "/paths"
        assert get_registry().counter("serve.breaker_opens").value == 1
        # The broken route is shed even though a slot is now free.
        controller.release(holder)
        rejection = controller.admit("/paths")
        assert isinstance(rejection, Rejection)
        assert rejection.reason == "breaker-open"
        assert rejection.retry_after >= 1
        # Cheap routes keep flowing.
        assert isinstance(controller.admit("/predict"), Ticket)

    def test_breaker_half_opens_after_cooloff(self):
        controller = AdmissionController(
            max_inflight=1, breaker_threshold=2, breaker_cooloff=30.0
        )
        spent = controller.admit("/paths")
        spent.started -= 1.0
        controller.release(spent)
        holder = controller.admit("/paths")
        for _ in range(3):
            controller.admit("/paths")
        controller.release(holder)
        assert controller.admit("/paths").reason == "breaker-open"
        # Rewind the cooloff clock: next admit should half-open.
        controller._broken_until = 0.0
        assert isinstance(controller.admit("/paths"), Ticket)
        assert controller.describe()["breaker_open_route"] is None

    def test_recent_sheds_appear_in_describe(self):
        controller = AdmissionController(max_inflight=1)
        controller.admit("/paths")
        controller.admit("/paths")
        described = controller.describe()
        assert described["recent_sheds"] == 1
        assert described["inflight"] == 1
        assert described["max_inflight"] == 1


class TestGauge:
    def test_add_is_thread_safe(self):
        gauge = Gauge(name="test.gauge")
        workers = [
            threading.Thread(
                target=lambda: [gauge.add(1) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert gauge.value == 2000

    def test_add_and_set_compose(self):
        gauge = Gauge(name="test.gauge")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestConcurrentAdmission:
    def test_inflight_never_exceeds_the_bound(self):
        controller = AdmissionController(max_inflight=4)
        peak = []
        lock = threading.Lock()

        def worker():
            for _ in range(50):
                ticket = controller.admit("/paths")
                if isinstance(ticket, Ticket):
                    with lock:
                        peak.append(controller.inflight)
                    controller.release(ticket)

        workers = [threading.Thread(target=worker) for _ in range(8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert peak and max(peak) <= 4
        assert controller.inflight == 0
        assert get_registry().gauge("serve.inflight").value == 0
