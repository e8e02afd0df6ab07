"""Unit tests for the metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    labelled,
    render_prometheus,
    set_registry,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_percentiles_are_order_statistics(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(0) == 1

    def test_histogram_summary(self):
        histogram = Histogram("h")
        for value in (4.0, 1.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == 8.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 3.0

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.summary() == {"count": 0}
        assert histogram.percentile(50) == 0.0

    def test_percentile_out_of_range(self):
        histogram = Histogram("h")
        histogram.observe(1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_percentile_out_of_range_raises_even_when_empty(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.percentile(-1)
        with pytest.raises(ValueError):
            histogram.percentile(100.5)

    def test_percentile_single_sample(self):
        histogram = Histogram("h")
        histogram.observe(7.5)
        assert histogram.percentile(0) == 7.5
        assert histogram.percentile(50) == 7.5
        assert histogram.percentile(100) == 7.5


class TestHistogramReservoir:
    def test_memory_is_bounded_but_scalars_stay_exact(self):
        histogram = Histogram("h", reservoir_size=100)
        total = 0
        for value in range(1, 10_001):
            histogram.observe(value)
            total += value
        assert len(histogram._reservoir) == 100
        assert histogram.count == 10_000
        assert histogram.total == float(total)
        summary = histogram.summary()
        assert summary["count"] == 10_000
        assert summary["sum"] == float(total)
        assert summary["min"] == 1.0
        assert summary["max"] == 10_000.0

    def test_percentiles_within_tolerance_after_sampling(self):
        histogram = Histogram("h", reservoir_size=512)
        for value in range(10_000):
            histogram.observe(value)
        # A uniform 512-sample reservoir over uniform data: the estimated
        # p50 should land well inside the central half of the range.
        assert 3_000 <= histogram.percentile(50) <= 7_000
        assert histogram.percentile(95) >= 8_000
        assert histogram.percentile(5) <= 2_000

    def test_exact_while_under_the_bound(self):
        histogram = Histogram("h", reservoir_size=1000)
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(99) == 99

    def test_deterministic_for_a_given_name(self):
        a = Histogram("same-name", reservoir_size=32)
        b = Histogram("same-name", reservoir_size=32)
        for value in range(5_000):
            a.observe(value)
            b.observe(value)
        assert a.summary() == b.summary()

    def test_record_under_the_lock_summarises_as_observe_does(self):
        """``record`` is ``observe``'s body: mixing the two, past the
        reservoir bound, keeps the very reservoir ``observe`` alone keeps."""
        values = [float((i * 7_919) % 10_007) for i in range(2_000)]
        observed = Histogram("same-name", reservoir_size=256)
        mixed = Histogram("same-name", reservoir_size=256)
        for index, value in enumerate(values):
            observed.observe(value)
            if index < 300 or index % 3:
                mixed.observe(value)
            else:
                with mixed._lock:
                    mixed.record(value)
        assert mixed.count == len(values) > mixed.reservoir_size
        assert mixed._reservoir == observed._reservoir
        assert mixed.summary() == observed.summary()

    def test_rejects_nonpositive_reservoir(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir_size=0)

    def test_dump_and_merge_preserve_scalars(self):
        source = Histogram("h", reservoir_size=64)
        for value in range(1, 1_001):
            source.observe(value)
        target = Histogram("h", reservoir_size=64)
        target.observe(5_000.0)
        target.merge_raw(source.dump_raw())
        assert target.count == 1_001
        assert target.total == sum(range(1, 1_001)) + 5_000.0
        assert target.summary()["min"] == 1.0
        assert target.summary()["max"] == 5_000.0


class TestThreadSafety:
    def test_concurrent_observes_keep_count_and_sum_exact(self):
        histogram = Histogram("h", reservoir_size=128)
        per_thread, threads = 2_000, 8

        def worker():
            for _ in range(per_thread):
                histogram.observe(1.0)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert histogram.count == per_thread * threads
        assert histogram.total == float(per_thread * threads)
        assert len(histogram._reservoir) == 128

    def test_concurrent_counter_increments_are_exact(self):
        counter = Counter("c")
        per_thread, threads = 5_000, 8

        def worker():
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == per_thread * threads

    def test_concurrent_first_use_lands_on_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append(registry.histogram("contended"))

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestPrometheusExposition:
    def test_counters_gauges_histograms_render(self):
        registry = MetricsRegistry()
        registry.counter("engine.messages").inc(7)
        registry.gauge("refine.match_rate").set(0.75)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("serve.request_seconds").observe(value)
        text = render_prometheus(registry)
        assert "# TYPE repro_engine_messages_total counter" in text
        assert "repro_engine_messages_total 7" in text
        assert "repro_refine_match_rate 0.75" in text
        assert "# TYPE repro_serve_request_seconds summary" in text
        assert 'repro_serve_request_seconds{quantile="0.5"} 2' in text
        assert "repro_serve_request_seconds_sum 6" in text
        assert "repro_serve_request_seconds_count 3" in text
        assert text.endswith("\n")

    def test_labelled_names_become_prometheus_labels(self):
        registry = MetricsRegistry()
        registry.counter(labelled("ingest.quarantined", reason="as-set")).inc(2)
        registry.counter(labelled("ingest.quarantined", reason="loop")).inc(1)
        text = render_prometheus(registry)
        assert text.count("# TYPE repro_ingest_quarantined_total counter") == 1
        assert 'repro_ingest_quarantined_total{reason="as-set"} 2' in text
        assert 'repro_ingest_quarantined_total{reason="loop"} 1' in text

    def test_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("engine.route-map").inc()
        text = render_prometheus(registry)
        assert "repro_engine_route_map_total 1" in text


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_is_sorted_and_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc()
        registry.gauge("rate").set(0.5)
        registry.histogram("lat").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["counters"]["z"] == 2
        assert snapshot["gauges"]["rate"] == 0.5
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert bool(registry)
        registry.reset()
        assert not registry
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_an_instrument_is_bound_to_one_lock(self, kind):
        registry = MetricsRegistry()
        make = getattr(registry, kind)
        lock = threading.Lock()
        instrument = make("bound", lock)
        assert instrument._lock is lock
        assert make("bound", lock) is instrument
        assert make("bound") is instrument
        with pytest.raises(ValueError, match="'bound'"):
            make("bound", threading.Lock())
        # One created without a lock has its own, and keeps it.
        own = make("own")
        with pytest.raises(ValueError, match="'own'"):
            make("own", lock)
        assert own._lock is not lock

    def test_global_registry_swap_and_restore(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
