"""A metrics registry: counters, gauges and quantile histograms.

Replaces ad-hoc counting scattered through the engine and resilience
layers with one named, snapshottable registry.  Instruments are created
on first use (``registry.counter("engine.messages")``), accumulate for
the lifetime of the registry, and serialise through :meth:`snapshot`
into :class:`~repro.resilience.health.RunHealth` reports, where
``repro stats`` renders them.  :func:`render_prometheus` exposes the
same snapshot in the Prometheus text format the serving layer's
``/metrics`` endpoint negotiates.

Hot paths hold on to the instrument object rather than looking it up per
observation; an increment is then one lock acquire and an integer add.
The simulation engine is single-threaded, but the serving layer observes
from HTTP handler threads, so every instrument guards its mutable state
with a :class:`threading.Lock` and instrument creation is guarded by a
registry-level lock.  An instrument has a lock of its own unless it is
created on one its writers already hold (``registry.counter(name,
lock)``): they then update it under that lock with no second acquire,
adding to ``value`` directly or calling :meth:`Histogram.record`.  An
instrument never has two locks: asking for it with another one raises.

Histograms keep exact count/sum/min/max but bound their memory with a
fixed-size reservoir (Vitter's algorithm R): every observation still
updates the scalars, while the reservoir holds a uniform sample the
percentiles are computed from.  Long prediction-serving runs therefore
observe millions of latencies in constant memory, at the cost of
percentiles being estimates once the count exceeds the reservoir size.
The reservoir's RNG is seeded from the instrument name, so identical
observation sequences always summarise identically.
"""

from __future__ import annotations

import math
import random
import re
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

DEFAULT_RESERVOIR_SIZE = 4096
"""Observations a histogram retains for percentile estimation."""


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Move the level by ``delta`` (negative to decrease).

        Needed for levels maintained from many threads at once (e.g.
        ``serve.inflight``), where read-modify-write through :meth:`set`
        would lose updates."""
        with self._lock:
            self.value += float(delta)


class Histogram:
    """A distribution summarised as count/sum/min/max and p50/p95/p99.

    ``count``/``total``/min/max are exact for every observation ever
    made; percentiles come from a bounded uniform reservoir (algorithm
    R), so they are true order statistics until ``reservoir_size``
    observations and unbiased estimates after.  Memory is O(reservoir),
    not O(observations).
    """

    def __init__(
        self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    ) -> None:
        if reservoir_size <= 0:
            raise ValueError(
                f"reservoir_size must be positive, got {reservoir_size}"
            )
        self.name = name
        self.reservoir_size = reservoir_size
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: list[float] = []
        self._seen = 0
        # Seeded from the name (not hash(): PYTHONHASHSEED randomises
        # that per process) so reruns and worker/parent pairs sample
        # deterministically.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def _sample(self, value: float) -> None:
        """Algorithm R: keep each of the first N seen, then replace.

        :meth:`record` inlines this.  The replacement slot is
        ``int(random() * seen)``: uniform over ``range(seen)`` to within
        2**-53, and cheaper than ``randrange(seen)``.
        """
        self._seen += 1
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:
            slot = int(self._rng.random() * self._seen)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.record(float(value))

    def record(self, value: float) -> None:
        """Record one float observation; the caller holds this
        histogram's lock (a writer that created it on a lock it already
        holds, such as the serving engine's)."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        seen = self._seen = self._seen + 1
        reservoir = self._reservoir
        if len(reservoir) < self.reservoir_size:
            reservoir.append(value)
        else:
            slot = int(self._rng.random() * seen)
            if slot < self.reservoir_size:
                reservoir[slot] = value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall-clock of a block: ``with histo.time(): ...``.

        Certification times each pass with this.  A per-call hot path
        (the serving engine's queries) reads ``time.perf_counter()``
        itself and calls :meth:`record` under the lock it holds: the
        generator would cost about as much as the cached answer it timed.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    @property
    def count(self) -> int:
        """Number of observations (exact)."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observations (exact)."""
        return self._sum

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank), 0 when empty.

        Exact while the reservoir holds every observation; a uniform
        estimate beyond that.  Raises :class:`ValueError` when ``p`` is
        outside [0, 100] — even on an empty histogram, so a bad call
        site cannot hide behind an unused instrument.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        with self._lock:
            if not self._reservoir:
                return 0.0
            ordered = sorted(self._reservoir)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """The snapshot form: count, sum, min/max and the three quantiles."""
        with self._lock:
            if not self._count:
                return {"count": 0}
            count = self._count
            total = self._sum
            low = self._min
            high = self._max
            ordered = sorted(self._reservoir)

        def _pct(p: float) -> float:
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            return ordered[rank - 1]

        return {
            "count": count,
            "sum": round(total, 6),
            "min": round(low, 6),
            "max": round(high, 6),
            "p50": round(_pct(50), 6),
            "p95": round(_pct(95), 6),
            "p99": round(_pct(99), 6),
        }

    def dump_raw(self) -> dict:
        """Lossless-scalars, bounded-samples picklable form.

        ``values`` is the reservoir (everything, while under the bound);
        count/sum/min/max are exact regardless.
        """
        with self._lock:
            payload = {
                "count": self._count,
                "sum": self._sum,
                "values": list(self._reservoir),
            }
            if self._count:
                payload["min"] = self._min
                payload["max"] = self._max
            return payload

    def merge_raw(self, data: dict) -> None:
        """Fold a :meth:`dump_raw` dump in.

        Scalars merge exactly; the incoming reservoir samples are fed
        through this histogram's own sampler, which keeps the merged
        reservoir a fair (if second-hand) sample of both runs.
        """
        values = data.get("values") or []
        count = int(data.get("count", len(values)))
        with self._lock:
            self._count += count
            self._sum += float(data.get("sum", math.fsum(values)))
            low = data.get("min")
            high = data.get("max")
            if low is not None and low < self._min:
                self._min = float(low)
            if high is not None and high > self._max:
                self._max = float(high)
            for value in values:
                self._sample(float(value))


class MetricsRegistry:
    """Named instruments, created on first use.

    Creation is serialised by a registry-level lock so concurrent
    first-use of the same name from two threads lands on one instrument;
    the instruments themselves carry their own locks for observation,
    or the lock they were created on.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, lock: threading.Lock | None = None) -> Counter:
        """The counter called ``name`` (created at 0 if new)."""
        return self._instrument(self._counters, Counter, name, lock)

    def gauge(self, name: str, lock: threading.Lock | None = None) -> Gauge:
        """The gauge called ``name`` (created at 0 if new)."""
        return self._instrument(self._gauges, Gauge, name, lock)

    def histogram(
        self, name: str, lock: threading.Lock | None = None
    ) -> Histogram:
        """The histogram called ``name`` (created empty if new)."""
        return self._instrument(self._histograms, Histogram, name, lock)

    def _instrument(
        self, table: dict, kind: type, name: str, lock: threading.Lock | None
    ):
        """``table[name]``, created as ``kind(name)`` if new.

        With ``lock``, a new instrument is created on that lock, and an
        existing one must already be on it: :class:`ValueError` names an
        instrument asked for with another lock, so no instrument is ever
        written under two.
        """
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = kind(name)
                    if lock is not None:
                        instrument._lock = lock
                    table[name] = instrument
        if lock is not None and instrument._lock is not lock:
            raise ValueError(
                f"instrument {name!r} is already bound to another lock"
            )
        return instrument

    def dump_raw(self) -> dict:
        """Picklable view of every instrument.

        Unlike :meth:`snapshot`, histograms keep their reservoir samples
        plus exact scalars, so a dump taken in a worker process can be
        folded into the parent registry with :meth:`merge_raw` without
        losing the statistics the summary percentiles are computed from.
        """
        return {
            "counters": {
                name: self._counters[name].value for name in self._counters
            },
            "gauges": {name: self._gauges[name].value for name in self._gauges},
            "histograms": {
                name: self._histograms[name].dump_raw()
                for name in self._histograms
            },
        }

    def merge_raw(self, data: dict) -> None:
        """Fold a :meth:`dump_raw` dump (from a worker) into this registry.

        Instrument names are merged in sorted order so repeated merges of
        the same dumps land in an identical registry state (gauges are
        last-write-wins, so merge order is part of the contract).
        """
        counters = data.get("counters") or {}
        for name in sorted(counters):
            self.counter(name).inc(counters[name])
        gauges = data.get("gauges") or {}
        for name in sorted(gauges):
            self.gauge(name).set(gauges[name])
        histograms = data.get("histograms") or {}
        for name in sorted(histograms):
            self.histogram(name).merge_raw(histograms[name])

    def snapshot(self) -> dict:
        """JSON-serialisable view of every instrument, sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh run starts from zero)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)


def labelled(name: str, **labels: str) -> str:
    """Canonical instrument name carrying sorted key="value" labels.

    The registry keys instruments by plain string, so dimensioned
    metrics (per-rejection-reason ingest counters, per-endpoint serving
    counters) encode their labels into the name in a stable,
    Prometheus-style form::

        >>> labelled("ingest.quarantined", reason="as-set")
        'ingest.quarantined{reason="as-set"}'

    Sorting the label keys makes the same logical instrument always
    land on the same registry entry regardless of call-site kwarg order.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally (None installs a fresh empty one).

    Returns the previously-installed registry so callers can restore it.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    return previous


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_split(name: str) -> tuple[str, str]:
    """Separate a :func:`labelled` name into (base, label body)."""
    if name.endswith("}") and "{" in name:
        base, _, rest = name.partition("{")
        return base, rest[:-1]
    return name, ""


def _prom_name(base: str, prefix: str = "repro") -> str:
    """A valid Prometheus metric name for registry instrument ``base``."""
    return _PROM_INVALID.sub("_", f"{prefix}_{base}")


def _prom_value(value: float) -> str:
    if isinstance(value, bool) or value != value:  # NaN guard
        return "NaN"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry in the Prometheus text exposition format (v0.0.4).

    Counters get the conventional ``_total`` suffix, gauges map
    directly, and histograms are exposed as summaries (p50/p95/p99
    ``quantile`` series plus ``_sum`` and ``_count``).  Labels encoded
    into instrument names by :func:`labelled` come through as real
    Prometheus labels, so per-prefix or per-reason series scrape as one
    dimensioned metric family.
    """
    if registry is None:
        registry = get_registry()
    snapshot = registry.snapshot()
    lines: list[str] = []

    def _family(kind: str, items: dict, suffix: str = "") -> None:
        groups: dict[str, list[tuple[str, float]]] = {}
        for name, value in items.items():
            base, labels = _prom_split(name)
            groups.setdefault(_prom_name(base) + suffix, []).append(
                (labels, value)
            )
        for metric in sorted(groups):
            lines.append(f"# TYPE {metric} {kind}")
            for labels, value in groups[metric]:
                series = f"{metric}{{{labels}}}" if labels else metric
                lines.append(f"{series} {_prom_value(value)}")

    _family("counter", snapshot.get("counters", {}), suffix="_total")
    _family("gauge", snapshot.get("gauges", {}))

    for name, summary in snapshot.get("histograms", {}).items():
        base, labels = _prom_split(name)
        metric = _prom_name(base)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in summary:
                body = (
                    f'{labels},quantile="{quantile}"'
                    if labels
                    else f'quantile="{quantile}"'
                )
                lines.append(f"{metric}{{{body}}} {_prom_value(summary[key])}")
        series = f"{{{labels}}}" if labels else ""
        lines.append(f"{metric}_sum{series} {_prom_value(summary.get('sum', 0.0))}")
        lines.append(f"{metric}_count{series} {_prom_value(summary['count'])}")

    return "\n".join(lines) + "\n"
