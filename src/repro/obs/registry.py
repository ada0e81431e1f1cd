"""The metrics registry: one namespace for every counter in the system.

Every component creates its instruments in a :class:`MetricsRegistry`
(its own private one by default, or a shared one passed down from the
composition root), and :meth:`MetricsRegistry.snapshot` — or a
component's ``metrics.snapshot()``, the same values under its scope —
is the one way to read them.

Three instrument kinds:

* :class:`Counter` — a monotonic integer. Increments are a plain
  ``+=`` with **no internal lock**, deliberately: every counter in this
  codebase is already synchronised by its owner (the rwlock increments
  under its condition variable, the cache under its mutex, the engine's
  query counters under the read lock where they are documented as
  approximate under contention). Adding a second lock per increment
  would tax the hot Algorithm-1 sweep for nothing, so the contract is
  exactly the one the replaced ints had: exact when the owner
  serialises increments, monotonic-but-approximate otherwise.
* :class:`Gauge` — a point-in-time value, either set explicitly or
  computed by a callback (``len(segment_db)`` style derived values).
  A callback registered again under the same name replaces the old
  one: the gauge reports its newest owner, and the registry keeps no
  earlier owner alive.
* :class:`Histogram` — a **deterministic fixed-bucket** latency
  histogram. Bucket boundaries are chosen at construction and never
  rebalanced, so two runs over the same operations land observations in
  the same buckets. Durations come from :meth:`MetricsRegistry.timer`,
  which reads the registry's :class:`~repro.util.clock.Clock` — never
  ``time.*`` directly — so tests inject a ``LogicalClock`` and get
  bit-identical histograms.

:class:`NullRegistry` is the counters-off path: it hands out shared
no-op instruments so a component can be built with metrics disabled and
the hot paths skip even the ``+=``. The benchmark harness asserts the
enabled path stays within 10% of this one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.util.clock import Clock, SystemClock

#: Fixed latency bucket upper bounds in seconds (a final +inf bucket is
#: implicit). Spans the per-keystroke decision range the paper reports:
#: 10 µs index sweeps up to the 200 ms tail of Figure 12.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.2, 1.0,
)

#: Flat snapshot value: counters/gauges are numbers, histograms nest.
SnapshotValue = Union[int, float, Dict[str, object]]


class Counter:
    """A monotonic counter. Synchronisation is the owner's concern."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, delta: int = 1) -> None:
        self._value += delta

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value: set explicitly or computed by a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value: float = 0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """Fixed-bucket histogram with exact count/sum, mutex-guarded.

    Buckets are cumulative-free: ``counts[i]`` holds observations with
    ``value <= bounds[i]`` (and greater than the previous bound); the
    last slot is the +inf overflow. Observation is O(log buckets) and
    happens once per *operation* (a query, a lookup), never per hash,
    so the mutex is off the per-element hot path.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "_mutex")

    def __init__(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._mutex = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._mutex:
            self.counts[index] += 1
            self.count += 1
            self.sum += value

    def snapshot(self) -> Dict[str, object]:
        """Bucket counts plus exact count/sum, JSON-ready."""
        with self._mutex:
            counts = list(self.counts)
            count = self.count
            total = self.sum
        buckets = {f"le_{bound:g}": n for bound, n in zip(self.bounds, counts)}
        buckets["le_inf"] = counts[-1]
        return {"count": count, "sum": total, "buckets": buckets}


class MetricsScope:
    """A registry view that prefixes every instrument name.

    Components hold a scope (``engine.paragraph.``, ``lock.`` …) so a
    shared registry keeps their namespaces apart while a private one
    still produces the same names.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    @property
    def registry(self) -> "MetricsRegistry":
        return self._registry

    @property
    def prefix(self) -> str:
        return self._prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._registry.gauge(self._prefix + name, fn)

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._registry.histogram(self._prefix + name, buckets)

    def timer(self, name: str):
        return self._registry.timer(self._prefix + name)

    def snapshot(self) -> Dict[str, SnapshotValue]:
        """This scope's slice of the registry, names unprefixed."""
        prefix = self._prefix
        return {
            name[len(prefix):]: value
            for name, value in self._registry.snapshot().items()
            if name.startswith(prefix)
        }


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms.

    Args:
        clock: timestamp source for :meth:`timer`. Defaults to the
            monotonic :class:`~repro.util.clock.SystemClock`; tests pass
            a :class:`~repro.util.clock.LogicalClock` for deterministic
            histogram contents. The registry never reads wall time
            directly.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or SystemClock()
        self._mutex = threading.Lock()
        self._instruments: Dict[str, object] = {}

    @property
    def clock(self) -> Clock:
        return self._clock

    def _get_or_create(self, name: str, kind, factory):
        with self._mutex:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None:
            if gauge._fn is None:
                raise ValueError(f"gauge {name!r} already registered without a callback")
            # Rebind to the newest owner: a component rebuilt under the
            # same scope (a recovery, a second plug-in) replaces the old
            # one, which the stale callback would otherwise keep alive.
            gauge._fn = fn
        return gauge

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, buckets))

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block via the registry clock into histogram *name*."""
        histogram = self.histogram(name)
        clock = self._clock
        start = clock.now()
        try:
            yield
        finally:
            histogram.observe(clock.now() - start)

    def scope(self, prefix: str) -> MetricsScope:
        return MetricsScope(self, prefix)

    def names(self) -> List[str]:
        with self._mutex:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, SnapshotValue]:
        """Every instrument's current value, flat by name.

        Counters and gauges appear as numbers; histograms as nested
        ``{count, sum, buckets}`` dicts. Callback gauges are evaluated
        outside the registry mutex (they may take component locks).
        """
        with self._mutex:
            instruments = list(self._instruments.items())
        out: Dict[str, SnapshotValue] = {}
        for name, instrument in sorted(instruments):
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value  # type: ignore[union-attr]
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, delta: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


@contextmanager
def _null_timer() -> Iterator[None]:
    yield


class NullRegistry(MetricsRegistry):
    """The counters-off path: shared no-op instruments, empty snapshots.

    Components built with ``registry=NULL_REGISTRY`` skip all counter
    arithmetic and report nothing: derived callback gauges are never
    registered, so callers that need database sizes read them from the
    component (``len(engine.segment_db)``, ``len(engine.hash_db)``).
    Used by the overhead benchmark as the baseline the metrics-enabled
    path must stay within 10% of.
    """

    def __init__(self) -> None:
        super().__init__(clock=None)
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._null_histogram

    def timer(self, name: str):
        return _null_timer()

    def snapshot(self) -> Dict[str, SnapshotValue]:
        return {}


#: Shared counters-off registry; safe to reuse everywhere (stateless).
NULL_REGISTRY = NullRegistry()


def diff_snapshots(
    before: Mapping[str, SnapshotValue], after: Mapping[str, SnapshotValue]
) -> Dict[str, SnapshotValue]:
    """Per-name delta of two snapshots (the benchmark-harness view).

    Numeric entries subtract; histogram entries subtract count/sum and
    per-bucket counts. Names only present in *after* pass through
    unchanged (their implicit before-value is zero).
    """
    out: Dict[str, SnapshotValue] = {}
    for name, value in after.items():
        prev = before.get(name)
        if isinstance(value, dict):
            prev = prev if isinstance(prev, dict) else {"count": 0, "sum": 0.0, "buckets": {}}
            prev_buckets = prev.get("buckets", {})
            out[name] = {
                "count": value["count"] - prev.get("count", 0),
                "sum": value["sum"] - prev.get("sum", 0.0),
                "buckets": {
                    bucket: n - prev_buckets.get(bucket, 0)
                    for bucket, n in value["buckets"].items()
                },
            }
        elif prev is None:
            out[name] = value
        else:
            out[name] = value - prev  # type: ignore[operator]
    return out
