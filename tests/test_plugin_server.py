"""Fault-mode tests for the shared lookup service (paper §6.2).

Under injected lookup faults the client must degrade exactly as
configured: fail-closed blocks the upload with an audited
``lookup_unavailable`` event, fail-open allows it with a logged
warning, and the retry/backoff counters match the injected fault
schedule exactly (the injector is schedule-driven, so every number
below is forced, not approximate).
"""

import logging

import pytest

from repro.disclosure.wal import LogShipper
from repro.errors import LookupRejected, LookupTimeout
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.enforcement import PluginMode, PolicyEnforcement
from repro.plugin.lookup import PolicyLookup
from repro.plugin.server import (
    DEGRADED_GRANULARITY,
    BatchLookupClient,
    FailureMode,
    LookupClient,
    LookupServer,
    StandbyLookupServer,
)
from repro.plugin.crypto import UploadCipher
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.faults import Fault, FaultInjector

from conftest import OTHER_TEXT, SECRET_TEXT

SRC = "https://src.example.com"
DST = "https://dst.example.com"
SEGMENTS = [("d#p0", SECRET_TEXT)]


def make_lookup() -> PolicyLookup:
    policies = PolicyStore()
    policies.register_service(
        SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
    )
    policies.register_service(DST)
    model = TextDisclosureModel(policies, TINY_CONFIG)
    model.observe(SRC, "doc-src", [("doc-src#p0", SECRET_TEXT)])
    return PolicyLookup(model)


def make_server(*faults: Fault) -> LookupServer:
    return LookupServer(
        make_lookup(), faults=FaultInjector(schedule=list(faults))
    )


def engine_queries(server: LookupServer) -> int:
    snapshot = server.registry.snapshot()
    return (
        snapshot["engine.paragraph.queries"]
        + snapshot["engine.document.queries"]
    )


class TestHealthyPath:
    def test_clean_lookup_round_trip(self):
        server = make_server()
        client = LookupClient(server)
        outcome = client.lookup(DST, "d", SEGMENTS)
        assert not outcome.degraded
        assert outcome.attempts == 1
        assert outcome.retries == 0
        assert outcome.faults == ()
        assert not outcome.decision.allowed  # the secret really violates
        allowed = client.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        assert allowed.decision.allowed
        assert server.metrics.snapshot()["served"] == 2

    def test_latency_within_budget_is_served(self):
        server = make_server(Fault.slow(0.05))
        client = LookupClient(server, timeout=0.2)
        outcome = client.lookup(DST, "d", SEGMENTS)
        assert not outcome.degraded
        assert outcome.latency == 0.05
        assert client.metrics.snapshot()["timeouts"] == 0

    def test_transient_faults_recovered_by_retry(self):
        server = make_server(Fault.error(503), Fault.drop(), Fault.none())
        client = LookupClient(server, max_retries=2, backoff=0.01)
        outcome = client.lookup(DST, "d", SEGMENTS)
        assert not outcome.degraded
        assert outcome.attempts == 3
        assert outcome.retries == 2
        assert outcome.faults == ("http-503", "timeout")
        assert outcome.waited == (0.01, 0.02)
        assert not outcome.decision.allowed
        counters = client.metrics.snapshot()
        assert counters["server_errors"] == 1
        assert counters["timeouts"] == 1
        assert counters["degraded"] == 0


class TestFailClosed:
    def test_timeouts_block_with_audited_event(self):
        server = make_server(Fault.drop(), Fault.slow(9.0), Fault.drop())
        client = LookupClient(
            server,
            timeout=0.1,
            max_retries=2,
            backoff=0.05,
            failure_mode=FailureMode.FAIL_CLOSED,
        )
        outcome = client.lookup(DST, "d", SEGMENTS)
        assert outcome.degraded
        assert not outcome.decision.allowed
        assert outcome.attempts == 3
        assert outcome.faults == ("timeout", "timeout", "timeout")
        assert outcome.waited == (0.05, 0.1)
        [violation] = outcome.decision.violations
        assert violation.granularity == DEGRADED_GRANULARITY
        # Audited LookupUnavailable event.
        audit = server.lookup.model.audit
        [event] = audit.degradations()
        assert event.kind == "lookup_unavailable"
        assert event.failure_mode == "fail-closed"
        assert event.service_id == DST
        assert event.attempts == 3
        assert event.faults == ("timeout", "timeout", "timeout")
        # Counters match the schedule exactly: 1 drop + 1 over-budget
        # latency + 1 drop, zero requests served.
        counters = server.metrics.snapshot()
        assert counters["requests"] == 3
        assert counters["dropped"] == 2
        assert counters["timed_out"] == 1
        assert counters["served"] == 0
        cstats = client.metrics.snapshot()
        assert cstats["timeouts"] == 3
        assert cstats["retries"] == 2
        assert cstats["degraded"] == 1
        assert cstats["fail_closed_blocked"] == 1
        assert cstats["fail_open_allowed"] == 0

    def test_5xx_block_with_audited_event(self):
        server = make_server(Fault.error(500), Fault.error(502))
        client = LookupClient(
            server, max_retries=1, failure_mode=FailureMode.FAIL_CLOSED
        )
        outcome = client.lookup(DST, "d", SEGMENTS)
        assert outcome.degraded
        assert not outcome.decision.allowed
        assert outcome.faults == ("http-500", "http-502")
        [event] = server.lookup.model.audit.degradations()
        assert event.faults == ("http-500", "http-502")
        assert server.metrics.snapshot()["rejected"] == 2
        assert client.metrics.snapshot()["server_errors"] == 2

    def test_enforce_mode_blocks_degraded_upload(self):
        server = make_server(Fault.drop())
        client = LookupClient(
            server, max_retries=0, failure_mode=FailureMode.FAIL_CLOSED
        )
        outcome = client.lookup(DST, "d", SEGMENTS)
        action = PolicyEnforcement(PluginMode.ENFORCE).enforce(
            outcome.decision, dict(SEGMENTS)
        )
        assert not action.proceed

    def test_encrypt_mode_blocks_degraded_upload(self):
        # There is no verdict saying which text violates, so ENCRYPT
        # cannot substitute ciphertext and must hold the upload.
        server = make_server(Fault.drop())
        client = LookupClient(
            server, max_retries=0, failure_mode=FailureMode.FAIL_CLOSED
        )
        outcome = client.lookup(DST, "d", SEGMENTS)
        action = PolicyEnforcement(
            PluginMode.ENCRYPT, UploadCipher(key="sixteen-byte-key")
        ).enforce(outcome.decision, dict(SEGMENTS))
        assert not action.proceed
        assert action.rewrites == {}


class TestFailOpen:
    def test_timeouts_allow_with_logged_warning(self, caplog):
        server = make_server(Fault.drop(), Fault.drop())
        client = LookupClient(
            server, max_retries=1, backoff=0.02, failure_mode=FailureMode.FAIL_OPEN
        )
        with caplog.at_level(logging.WARNING, logger="repro.plugin.server"):
            outcome = client.lookup(DST, "d", SEGMENTS)
        assert outcome.degraded
        assert outcome.decision.allowed
        assert outcome.waited == (0.02,)
        assert any("fail-open" in record.message for record in caplog.records)
        # Still audited: fail-open is a security-relevant act.
        [event] = server.lookup.model.audit.degradations()
        assert event.failure_mode == "fail-open"
        cstats = client.metrics.snapshot()
        assert cstats["fail_open_allowed"] == 1
        assert cstats["fail_closed_blocked"] == 0
        # Enforcement lets the degraded-allow through in every mode.
        action = PolicyEnforcement(PluginMode.ENFORCE).enforce(
            outcome.decision, dict(SEGMENTS)
        )
        assert action.proceed


class TestServerPrimitives:
    def test_drop_raises_timeout_before_engine(self):
        server = make_server(Fault.drop())
        before = engine_queries(server)
        with pytest.raises(LookupTimeout):
            server.handle(DST, "d", SEGMENTS, timeout=0.1)
        # The dropped request never reached the shared engine.
        assert engine_queries(server) == before
        assert server.metrics.snapshot()["served"] == 0

    def test_error_raises_rejected_with_status(self):
        server = make_server(Fault.error(502))
        with pytest.raises(LookupRejected) as exc_info:
            server.handle(DST, "d", SEGMENTS, timeout=0.1)
        assert exc_info.value.status == 502

    def test_observe_path_counts(self):
        server = make_server()
        server.observe(DST, "doc-new", [("doc-new#p0", OTHER_TEXT)])
        assert server.metrics.snapshot()["observes"] == 1

    def test_injector_and_lock_counters_reported(self):
        faults = FaultInjector(schedule=[Fault.drop()])
        server = LookupServer(make_lookup(), faults=faults)
        client = LookupClient(server, max_retries=0)
        client.lookup(DST, "d", SEGMENTS)
        assert faults.metrics.snapshot()["injected_drop"] == 1
        snapshot = server.registry.snapshot()
        assert "lock.read_acquisitions" in snapshot
        assert "decision_cache.evictions" in snapshot

    def test_client_parameter_validation(self):
        server = make_server()
        with pytest.raises(ValueError):
            LookupClient(server, timeout=0.0)
        with pytest.raises(ValueError):
            LookupClient(server, max_retries=-1)
        with pytest.raises(ValueError):
            LookupClient(server, backoff_multiplier=0.5)

    def test_backoff_sleep_hook_receives_delays(self):
        server = make_server(Fault.drop(), Fault.drop(), Fault.drop())
        slept = []
        client = LookupClient(
            server,
            max_retries=2,
            backoff=0.01,
            backoff_multiplier=3.0,
            sleep=slept.append,
        )
        client.lookup(DST, "d", SEGMENTS)
        assert slept == [0.01, 0.03]


#: A fault each boundary must refuse: (fault, the error it raises, the
#: counter it moves).
GATED_FAULTS = {
    "drop": (Fault.drop(), LookupTimeout, "dropped"),
    "error": (Fault.error(502), LookupRejected, "rejected"),
    "slow": (Fault.slow(9.0), LookupTimeout, "timed_out"),
}
REFUSALS = ("dropped", "rejected", "timed_out")


def fault_gated(boundary, faults, directory):
    """``(call, metrics, answered)`` for one fault-gated entry point:
    a request through it, its owner's metrics scope, and the counter
    of requests that reached an engine."""
    if boundary == "handle_scan":
        standby = StandbyLookupServer(
            LogShipper(directory), config=TINY_CONFIG, faults=faults
        )
        call = lambda: standby.handle_scan(SECRET_TEXT, timeout=1.0)
        return call, standby.metrics, "scans"
    server = LookupServer(make_lookup(), faults=faults)
    if boundary == "handle":
        call = lambda: server.handle(DST, "d", SEGMENTS, timeout=1.0)
    else:
        call = lambda: server.handle_batch(DST, [("d", SEGMENTS)], timeout=1.0)
    return call, server.metrics, "served"


class TestOneFaultGate:
    """The server's two request paths and the standby's scan draw and
    apply a fault alike (DESIGN.md §8, "Where faults are injected")."""

    @pytest.mark.parametrize("boundary", ["handle", "handle_batch", "handle_scan"])
    @pytest.mark.parametrize("kind", sorted(GATED_FAULTS))
    def test_a_fault_is_refused_and_counted_alike(self, boundary, kind, tmp_path):
        fault, error, refusal = GATED_FAULTS[kind]
        faults = FaultInjector(schedule=[fault])
        call, metrics, answered = fault_gated(boundary, faults, tmp_path)
        with pytest.raises(error):
            call()
        counters = metrics.snapshot()
        assert {name: counters[name] for name in REFUSALS} == {
            name: int(name == refusal) for name in REFUSALS
        }
        assert counters[answered] == 0
        # The schedule is spent: the same request is now answered.
        _answer, latency = call()
        assert latency == 0.0
        assert metrics.snapshot()[answered] >= 1
        # One decision drawn per request, counted by kind.
        drawn = faults.metrics.snapshot()
        assert drawn[f"injected_{fault.kind}"] == 1
        assert drawn["injected_none"] == 1
        assert sum(drawn.values()) == 2

    @pytest.mark.parametrize("boundary", ["handle", "handle_batch", "handle_scan"])
    def test_latency_within_the_budget_is_returned(self, boundary, tmp_path):
        faults = FaultInjector(schedule=[Fault.slow(0.05)])
        call, metrics, answered = fault_gated(boundary, faults, tmp_path)
        _answer, latency = call()
        assert latency == 0.05
        counters = metrics.snapshot()
        assert [counters[name] for name in REFUSALS] == [0, 0, 0]
        assert counters[answered] >= 1


class TestOneRetryLoop:
    """A single lookup and a batch retry, back off and degrade alike."""

    #: name -> (schedule, degraded, faults); both take all three
    #: attempts that two retries allow.
    SCHEDULES = {
        "recovers": (
            [Fault.error(503), Fault.drop()],
            False,
            ("http-503", "timeout"),
        ),
        "degrades": (
            [Fault.drop(), Fault.slow(9.0), Fault.error(500)],
            True,
            ("timeout", "timeout", "http-500"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_single_and_batch_lookups_retry_alike(self, name):
        schedule, degraded, faults = self.SCHEDULES[name]
        seen = []
        for batch in (False, True):
            slept = []
            server = LookupServer(
                make_lookup(), faults=FaultInjector(schedule=list(schedule))
            )
            client = BatchLookupClient(
                server,
                timeout=0.1,
                max_retries=2,
                backoff=0.01,
                sleep=slept.append,
                failure_mode=FailureMode.FAIL_CLOSED,
            )
            if batch:
                [outcome] = client.lookup_batch(DST, [("d", SEGMENTS)])
            else:
                outcome = client.lookup(DST, "d", SEGMENTS)
            assert outcome.degraded is degraded
            assert (outcome.attempts, outcome.retries) == (3, 2)
            assert outcome.faults == faults
            assert outcome.waited == (0.01, 0.02)
            assert slept == [0.01, 0.02]
            assert not outcome.decision.allowed
            counters = client.metrics.snapshot()
            seen.append(
                {
                    counter: counters[counter]
                    for counter in (
                        "attempts",
                        "retries",
                        "timeouts",
                        "server_errors",
                        "degraded",
                        "fail_closed_blocked",
                    )
                }
            )
        assert seen[0] == seen[1]
        assert seen[0]["attempts"] == 3
        assert seen[0]["degraded"] == int(degraded)
