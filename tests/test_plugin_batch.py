"""Batch lookup tier tests: batching, routing and degradation.

Covers the plugin-tier contracts: a batched lookup returns decisions
field-identical to the same items looked up one by one (and
interoperates with the single path's decision cache); a batch is one
fault-injection point on the wire; whole-batch degradation still audits
per item; server and client ``stats()`` stay field-identical to their
registry scopes after the hot-path mutexes were dropped; the lookup
server is the one fault boundary of a sharded backend; and the shard
router runs its jobs in order in the calling thread.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import LookupRejected
from repro.fingerprint.config import FingerprintConfig
from repro.plugin import (
    BatchLookupClient,
    FailureMode,
    LookupClient,
    LookupServer,
    PolicyLookup,
    ShardRouter,
)
from repro.plugin.server import DEGRADED_GRANULARITY
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.faults import Fault, FaultInjector

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)
SRC = "https://src.example.com"
DST = "https://dst.example.com"

SECRET = (
    "the acquisition shortlist names three companies and remains strictly "
    "confidential until the board votes next week"
)
BENIGN = (
    "community gardening volunteers meet on saturdays to plan the tulip "
    "beds and the composting rota for spring"
)

ITEMS = [
    ("q0", [("q0#p0", "the acquisition shortlist names three companies and stays confidential")]),
    ("q1", [("q1#p0", "an entirely unrelated note about mountain weather and hiking boots")]),
    ("q2", [("q2#p0", "community gardening volunteers meet on saturdays to plan the tulip beds")]),
]


def make_model(**kwargs) -> TextDisclosureModel:
    policies = PolicyStore()
    policies.register_service(
        SRC, privilege=Label.of("secret"), confidentiality=Label.of("secret")
    )
    policies.register_service(DST)
    model = TextDisclosureModel(policies, CONFIG, **kwargs)
    model.observe(SRC, "d0", [("d0#p0", SECRET)])
    model.observe(SRC, "d1", [("d1#p0", BENIGN)])
    return model


def make_server(*, faults=None, **model_kwargs) -> LookupServer:
    return LookupServer(PolicyLookup(make_model(**model_kwargs)), faults=faults)


class TestBatchEquivalence:
    def test_batch_decisions_identical_to_singles(self):
        single_client = LookupClient(make_server())
        batch_client = BatchLookupClient(make_server())
        singles = [
            single_client.lookup(DST, doc_id, paragraphs)
            for doc_id, paragraphs in ITEMS
        ]
        batched = batch_client.lookup_batch(DST, ITEMS)
        assert len(batched) == len(ITEMS)
        for got, want in zip(batched, singles):
            assert got.decision == want.decision
            assert not got.degraded
        # The scenario distinguishes outcomes: q0 and q2 disclose text
        # observed at the confidential source (everything seen there
        # carries its label), q1 matches nothing.
        assert not batched[0].decision.allowed
        assert batched[1].decision.allowed
        assert not batched[2].decision.allowed

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_sharded_batch_matches_plain_singles(self, n_shards):
        with ShardRouter(max_workers=4) as router:
            sharded_client = BatchLookupClient(
                make_server(n_shards=n_shards, router=router)
            )
            plain_client = LookupClient(make_server())
            batched = sharded_client.lookup_batch(DST, ITEMS)
            for outcome, (doc_id, paragraphs) in zip(batched, ITEMS):
                assert outcome.decision == plain_client.lookup(
                    DST, doc_id, paragraphs
                ).decision

    def test_batch_shares_the_single_path_decision_cache(self):
        lookup = PolicyLookup(make_model())
        for doc_id, paragraphs in ITEMS:
            lookup.lookup(DST, doc_id, paragraphs)
        misses_before = lookup.cache.misses
        hits_before = lookup.cache.hits
        decisions = lookup.lookup_batch(DST, ITEMS)
        assert lookup.cache.hits == hits_before + len(ITEMS)
        assert lookup.cache.misses == misses_before
        for decision, (doc_id, paragraphs) in zip(decisions, ITEMS):
            assert decision == lookup.lookup(DST, doc_id, paragraphs)


class TestBatchFaultBoundary:
    def test_one_fault_decision_covers_the_whole_batch(self):
        server = make_server(faults=FaultInjector(schedule=[Fault.drop()]))
        client = BatchLookupClient(server, max_retries=1, backoff=0.0)
        outcomes = client.lookup_batch(DST, ITEMS)
        # One wire drop, one retry, then all items served together.
        assert all(not o.degraded for o in outcomes)
        assert all(o.attempts == 2 and o.faults == ("timeout",) for o in outcomes)
        stats = server.stats()
        assert stats["server_requests"] == 2  # round trips, not items
        assert stats["server_batches"] == 2
        assert stats["server_batch_items"] == 2 * len(ITEMS)
        assert stats["server_dropped"] == 1
        assert stats["server_served"] == len(ITEMS)
        cstats = client.stats()
        assert cstats["requests"] == len(ITEMS)
        assert cstats["batches"] == 1
        assert cstats["attempts"] == 2
        assert cstats["timeouts"] == 1

    def test_injected_latency_is_paid_once_per_batch(self):
        server = make_server(faults=FaultInjector(schedule=[Fault.slow(0.05)]))
        client = BatchLookupClient(server, timeout=0.2)
        outcomes = client.lookup_batch(DST, ITEMS)
        assert [o.latency for o in outcomes] == [0.05] * len(ITEMS)
        assert server.stats()["server_timed_out"] == 0

    def test_whole_batch_degradation_audits_per_item(self):
        server = make_server(
            faults=FaultInjector(schedule=[Fault.drop(), Fault.error(503)])
        )
        client = BatchLookupClient(
            server, max_retries=1, backoff=0.0, failure_mode=FailureMode.FAIL_CLOSED
        )
        outcomes = client.lookup_batch(DST, ITEMS)
        assert all(o.degraded and not o.decision.allowed for o in outcomes)
        assert all(o.faults == ("timeout", "http-503") for o in outcomes)
        for outcome in outcomes:
            violation = outcome.decision.violations[0]
            assert violation.granularity == DEGRADED_GRANULARITY
        events = [
            e
            for e in server.lookup.model.audit.degradations()
            if e.kind == "lookup_unavailable"
        ]
        assert len(events) == len(ITEMS)
        assert sorted(e.doc_id for e in events) == ["q0", "q1", "q2"]
        assert client.stats()["degraded"] == len(ITEMS)
        assert client.stats()["fail_closed_blocked"] == len(ITEMS)

    def test_fail_open_batch_allows_each_item(self):
        server = make_server(faults=FaultInjector(schedule=[Fault.drop()]))
        client = BatchLookupClient(
            server, max_retries=0, failure_mode=FailureMode.FAIL_OPEN
        )
        outcomes = client.lookup_batch(DST, ITEMS)
        assert all(o.degraded and o.decision.allowed for o in outcomes)
        assert client.stats()["fail_open_allowed"] == len(ITEMS)


def shard_sweeps(server) -> int:
    """Per-shard sweeps the server's two engines have run, summed."""
    tracker = server.lookup.model.tracker
    total = 0
    for engine in (tracker.paragraphs, tracker.documents):
        db = engine.hash_db
        snap = db.metrics.registry.snapshot()
        total += sum(
            snap[f"{db.metrics.prefix}{i}.sweeps"] for i in range(db.n_shards)
        )
    return total


class TestShardedServerFaults:
    """The lookup server is a sharded backend's one fault boundary: a
    faulted request fails whole, before any shard is swept, and each
    request draws one fault decision whatever the shards it touches."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_drop_degrades_every_item_then_the_batch_is_served(self, n_shards):
        server = make_server(
            n_shards=n_shards, faults=FaultInjector(schedule=[Fault.drop()])
        )
        client = BatchLookupClient(
            server, max_retries=0, failure_mode=FailureMode.FAIL_CLOSED
        )
        blocked = client.lookup_batch(DST, ITEMS)
        assert all(o.degraded and not o.decision.allowed for o in blocked)
        assert all(
            o.decision.violations[0].granularity == DEGRADED_GRANULARITY
            for o in blocked
        )
        served = client.lookup_batch(DST, ITEMS)
        assert not any(o.degraded for o in served)
        assert [o.decision.allowed for o in served] == [False, True, False]
        assert server.stats()["server_dropped"] == 1

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_rejected_request_sweeps_no_shard(self, n_shards):
        server = make_server(
            n_shards=n_shards, faults=FaultInjector(schedule=[Fault.error(502)])
        )
        before = shard_sweeps(server)
        with pytest.raises(LookupRejected) as exc_info:
            server.handle(DST, "q0", ITEMS[0][1], timeout=0.2)
        assert exc_info.value.status == 502
        assert shard_sweeps(server) == before
        assert server.stats()["server_rejected"] == 1
        # Schedule consumed: the same request now reaches the shards.
        decision, _latency = server.handle(DST, "q0", ITEMS[0][1], timeout=0.2)
        assert not decision.allowed
        assert shard_sweeps(server) > before

    def test_one_fault_decision_per_request_whatever_the_shards(self):
        faults = FaultInjector(schedule=[])
        with ShardRouter(max_workers=4) as router:
            server = make_server(n_shards=4, router=router, faults=faults)
            BatchLookupClient(server).lookup_batch(DST, ITEMS)
            LookupClient(server).lookup(DST, "q0", ITEMS[0][1])
            assert router.stats()["scatters"] >= 1  # sweeps did fan out
        drawn = {kind: n for kind, n in faults.stats().items() if n}
        assert drawn == {"injected_none": 2}


class TestStatsFieldIdentity:
    """Satellite 1: counters stay registry-backed after the mutex drop."""

    def test_server_stats_field_identical_to_registry(self):
        server = make_server(faults=FaultInjector(schedule=[Fault.drop()]))
        batch_client = BatchLookupClient(server, max_retries=1, backoff=0.0)
        batch_client.lookup_batch(DST, ITEMS)
        server.observe(SRC, "d2", [("d2#p0", "fresh text observed after setup")])
        stats = server.stats()
        snap = server.registry.snapshot()
        for name in (
            "requests",
            "served",
            "observes",
            "dropped",
            "rejected",
            "timed_out",
            "batches",
            "batch_items",
        ):
            assert stats[f"server_{name}"] == snap[f"server.{name}"], name
        assert snap["server.batch_size"]["count"] == 2
        assert snap["server.batch_size"]["sum"] == 2.0 * len(ITEMS)

    def test_client_stats_field_identical_to_scope(self):
        server = make_server(faults=FaultInjector(schedule=[Fault.error(500)]))
        for client in (
            LookupClient(server, max_retries=0, failure_mode=FailureMode.FAIL_OPEN),
            BatchLookupClient(
                server, max_retries=0, failure_mode=FailureMode.FAIL_OPEN
            ),
        ):
            client.lookup(DST, "q0", ITEMS[0][1])
            stats = client.stats()
            assert stats == client.metrics.snapshot()
        # The batch client's extra counter is part of the identity too.
        batch = BatchLookupClient(server)
        batch.lookup_batch(DST, ITEMS)
        assert batch.stats()["batches"] == 1
        assert batch.stats() == batch.metrics.snapshot()

    def test_single_path_counters_unchanged_by_refactor(self):
        server = make_server(
            faults=FaultInjector(schedule=[Fault.drop(), Fault.error(503)])
        )
        client = LookupClient(
            server, max_retries=3, backoff=0.0, failure_mode=FailureMode.FAIL_OPEN
        )
        outcome = client.lookup(DST, "q0", ITEMS[0][1])
        assert not outcome.degraded
        assert outcome.attempts == 3
        assert client.stats() == {
            "requests": 1,
            "attempts": 3,
            "retries": 2,
            "timeouts": 1,
            "server_errors": 1,
            "degraded": 0,
            "fail_open_allowed": 0,
            "fail_closed_blocked": 0,
        }


class TestShardRouter:
    def test_map_preserves_order_and_counts(self):
        with ShardRouter(max_workers=3) as router:
            assert router.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]
            assert router.map(lambda x: x + 1, [7]) == [8]  # inline path
            assert router.map(lambda x: x, []) == []
            stats = router.stats()
            assert stats["scatters"] == 1  # only the multi-item call
            assert stats["jobs"] == 4
            assert stats == router.metrics.snapshot()

    def test_map_stops_at_the_first_failure(self):
        ran = []

        def job(i):
            ran.append(i)
            if i == 1:
                raise RuntimeError("shard 1 unavailable")
            return i

        with ShardRouter(max_workers=2) as router:
            with pytest.raises(RuntimeError, match="shard 1"):
                router.map(job, [0, 1, 2, 3])
        assert ran == [0, 1]  # in item order; nothing runs past it

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            ShardRouter(max_workers=0)

    def test_router_starts_no_thread(self):
        threads = threading.active_count()
        with ShardRouter(max_workers=4) as router:
            client = BatchLookupClient(make_server(n_shards=4, router=router))
            assert threading.active_count() == threads
            outcomes = client.lookup_batch(DST, ITEMS)
            assert threading.active_count() == threads
        assert router.stats()["scatters"] >= 1  # the batch did fan out
        assert [o.decision.allowed for o in outcomes] == [False, True, False]
