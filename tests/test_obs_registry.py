"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import gc
import threading
import weakref

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    diff_snapshots,
)
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin import BrowserFlowPlugin
from repro.plugin.lookup import PolicyLookup
from repro.plugin.router import ShardRouter
from repro.plugin.server import LookupClient, LookupServer
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.clock import LogicalClock

from conftest import OTHER_TEXT, SECRET_TEXT

SRC = "https://src.example.com"
DST = "https://dst.example.com"


def make_model(**kwargs) -> TextDisclosureModel:
    policies = PolicyStore()
    policies.register_service(
        SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
    )
    policies.register_service(DST)
    model = TextDisclosureModel(policies, TINY_CONFIG, **kwargs)
    model.observe(SRC, "doc-src", [("doc-src#p0", SECRET_TEXT)])
    return model


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_registry_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")


class TestGauge:
    def test_explicit_set(self):
        g = Gauge("g")
        g.set(42.0)
        assert g.value == 42.0

    def test_callback_backed(self):
        items = [1, 2, 3]
        g = Gauge("g", fn=lambda: len(items))
        assert g.value == 3
        items.append(4)
        assert g.value == 4

    def test_set_on_callback_gauge_rejected(self):
        g = Gauge("g", fn=lambda: 0)
        with pytest.raises(ValueError, match="callback-backed"):
            g.set(1.0)

    def test_registering_callback_over_plain_gauge_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("size")
        with pytest.raises(ValueError, match="without a callback"):
            reg.gauge("size", fn=lambda: 0)

    def test_callback_registered_again_reports_the_newest_owner(self):
        reg = MetricsRegistry()
        old, new = [1], [1, 2]
        gauge = reg.gauge("size", fn=lambda: len(old))
        assert reg.gauge("size", fn=lambda: len(new)) is gauge
        assert reg.snapshot()["size"] == 2
        # Fetching the gauge without a callback keeps the newest one.
        assert reg.gauge("size").value == 2

    def test_rebound_callback_releases_the_old_owner(self):
        class Owner:
            def __init__(self, registry):
                self.items = [1, 2, 3]
                registry.gauge("items", fn=lambda: len(self.items))

        reg = MetricsRegistry()
        first = Owner(reg)
        ref = weakref.ref(first)
        del first
        second = Owner(reg)
        second.items.append(4)
        gc.collect()
        assert ref() is None
        assert reg.snapshot()["items"] == 4


class TestHistogram:
    def test_buckets_must_be_ascending(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.2, 0.1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_observations_land_deterministically(self):
        h = Histogram("h", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.001, 0.05, 5.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.0515)
        # A value equal to a bound lands in that bound's bucket.
        assert snap["buckets"] == {
            "le_0.001": 2,
            "le_0.01": 0,
            "le_0.1": 1,
            "le_inf": 1,
        }

    def test_default_buckets_span_paper_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.0001  # index sweeps
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 0.2  # Figure-12 tail


class TestTimerAndClock:
    def test_timer_uses_registry_clock(self):
        # LogicalClock ticks once per read: each timed block covers
        # exactly (end_tick - start_tick) = 1 + ticks consumed inside.
        reg = MetricsRegistry(clock=LogicalClock())
        with reg.timer("op_seconds"):
            pass
        with reg.timer("op_seconds"):
            reg.clock.now()  # one extra tick inside the block
        snap = reg.snapshot()["op_seconds"]
        assert snap["count"] == 2
        assert snap["sum"] == 3.0  # 1.0 + 2.0, bit-identical every run

    def test_timer_records_on_exception(self):
        reg = MetricsRegistry(clock=LogicalClock())
        with pytest.raises(RuntimeError):
            with reg.timer("op_seconds"):
                raise RuntimeError("boom")
        assert reg.snapshot()["op_seconds"]["count"] == 1


class TestScope:
    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        scope = reg.scope("engine.paragraph.")
        scope.counter("queries").inc()
        assert reg.snapshot()["engine.paragraph.queries"] == 1

    def test_scope_snapshot_strips_prefix(self):
        reg = MetricsRegistry()
        reg.scope("a.").counter("hits").inc(2)
        reg.scope("b.").counter("hits").inc(7)
        assert reg.scope("a.").snapshot() == {"hits": 2}
        assert reg.scope("b.").snapshot() == {"hits": 7}

    def test_two_scopes_same_prefix_share_instruments(self):
        reg = MetricsRegistry()
        reg.scope("lock.").counter("reads").inc()
        reg.scope("lock.").counter("reads").inc()
        assert reg.snapshot()["lock.reads"] == 2


class TestSnapshot:
    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry(clock=LogicalClock())
        reg.counter("b").inc()
        reg.gauge("a").set(1.5)
        with reg.timer("c_seconds"):
            pass
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise

    def test_diff_snapshots_numeric_and_histogram(self):
        reg = MetricsRegistry(clock=LogicalClock())
        c = reg.counter("hits")
        c.inc(3)
        with reg.timer("op_seconds"):
            pass
        before = reg.snapshot()
        c.inc(4)
        with reg.timer("op_seconds"):
            pass
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["hits"] == 4
        assert delta["op_seconds"]["count"] == 1
        assert sum(delta["op_seconds"]["buckets"].values()) == 1

    def test_diff_snapshots_new_names_pass_through(self):
        assert diff_snapshots({}, {"fresh": 5}) == {"fresh": 5}


class TestNullRegistry:
    def test_instruments_are_shared_noops(self):
        reg = NullRegistry()
        c = reg.counter("anything")
        assert c is reg.counter("other")
        c.inc(100)
        assert c.value == 0
        g = reg.gauge("g")
        g.set(9)
        assert g.value == 0
        h = reg.histogram("h")
        h.observe(1.0)
        assert h.snapshot()["count"] == 0

    def test_snapshot_empty_and_timer_noop(self):
        with NULL_REGISTRY.timer("op"):
            pass
        assert NULL_REGISTRY.snapshot() == {}


class TestThreadSafety:
    def test_concurrent_get_or_create_returns_one_instrument(self):
        reg = MetricsRegistry()
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(reg.counter("shared"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, results))) == 1

    def test_concurrent_histogram_observations_exact(self):
        h = Histogram("h")
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for _ in range(1000):
                h.observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.snapshot()["count"] == 4000


class TestSharedRegistry:
    def test_both_granularities_register_disjoint_names(self):
        snapshot = make_model().registry.snapshot()
        for field in (
            "segments",
            "distinct_hashes",
            "queries",
            "candidates_swept",
            "ownership_changes",
            "shards",
        ):
            assert f"engine.paragraph.{field}" in snapshot
            assert f"engine.document.{field}" in snapshot
        assert snapshot["engine.paragraph.segments"] == 1
        assert snapshot["engine.document.segments"] == 1

    def test_two_clients_keep_private_counters(self):
        server = LookupServer(PolicyLookup(make_model()))
        one = LookupClient(server)
        two = LookupClient(server)
        doc = f"{DST}|d"
        one.lookup(DST, doc, [(f"{doc}#p0", OTHER_TEXT)])
        assert one.metrics.snapshot()["requests"] == 1
        assert two.metrics.snapshot()["requests"] == 0
        assert server.metrics.snapshot()["requests"] == 1


#: The counters that ``bench/layers.py`` sums into its per-layer counts
#: and ratios, matched by name suffix as the bench matches them. A
#: rename here would read 0 there, and a ratio over it would read 0 too.
BENCH_COUNTERS = (
    "decision_cache.hits",
    "decision_cache.misses",
    "fingerprint.cache.hits",
    "fingerprint.cache.misses",
    "plugin.delta.checks",
    "plugin.delta.edits",
    "queries",
    "candidates_swept",
    "lock.read_acquisitions",
    "lock.write_acquisitions",
    "lock.read_contended",
    "lock.write_contended",
    "router.scatters",
    "router.jobs",
)


class TestBenchCounters:
    def test_the_lookup_stack_registers_every_counter_the_bench_reads(self):
        registry = MetricsRegistry()
        router = ShardRouter(scope=registry.scope("router."))
        model = make_model(registry=registry, n_shards=4, router=router)
        server = LookupServer(PolicyLookup(model))
        client = LookupClient(server, scope=registry.scope("bench.client."))
        BrowserFlowPlugin(model)
        doc = f"{DST}|d"
        client.lookup(DST, doc, [(f"{doc}#p0", SECRET_TEXT)])
        snapshot = registry.snapshot()
        for suffix in BENCH_COUNTERS:
            found = [
                name
                for name in snapshot
                if name == suffix or name.endswith("." + suffix)
            ]
            assert found, suffix
            for name in found:
                assert isinstance(registry.counter(name), Counter), name
        assert snapshot["router.scatters"] > 0
        assert snapshot["fingerprint.cache.misses"] == 1
