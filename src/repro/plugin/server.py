"""The shared lookup service (paper §5, Fig. 1, §6.2).

The paper deploys one hash database per enterprise, consulted by every
user's plug-in on every upload and keystroke. This module is that
deployment shape in miniature: a :class:`LookupServer` fronts one shared
:class:`~repro.plugin.lookup.PolicyLookup` (and therefore one shared
engine, guarded by its reader–writer lock) for N concurrent clients,
and a :class:`LookupClient` gives each simulated plug-in the
availability machinery §6.2 demands — a per-request timeout so a slow
lookup cannot wedge the editor, bounded retry with exponential backoff,
and an explicit *degradation mode* for when the service stays down:

* **fail-closed** — the upload is blocked: the degraded decision is
  disallowed and carries a synthetic ``granularity="lookup"`` violation,
  so :class:`~repro.plugin.enforcement.PolicyEnforcement` blocks it in
  ENFORCE mode (and refuses to "encrypt" text it never saw in ENCRYPT
  mode). An audited :class:`~repro.tdm.audit.DegradationEvent` records
  the denial.
* **fail-open** — the upload is allowed with a logged warning and the
  same audit event; the admin has chosen availability over containment.

Which way to fail is an admin choice exactly like the plug-in mode:
advisory deployments pair naturally with fail-open, enforcing ones with
fail-closed (DESIGN.md §8 has the decision table).

Faults are injected deterministically through a
:class:`~repro.util.faults.FaultInjector`; latency faults are *compared*
against the client's timeout budget rather than slept, so fault tests
assert exact retry/timeout counters and run in microseconds.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.disclosure.engine import DisclosureTracker
from repro.errors import (
    DisclosureError,
    LookupRejected,
    LookupTimeout,
    LookupUnavailable,
    StandbyGap,
)
from repro.fingerprint import FingerprintConfig
from repro.obs.registry import MetricsRegistry, MetricsScope
from repro.plugin.lookup import BatchItem, PolicyLookup
from repro.tdm.audit import DegradationEvent
from repro.tdm.labels import Label, SegmentLabel
from repro.tdm.model import FlowDecision, FlowViolation, Suppression
from repro.util.clock import Clock, LogicalClock
from repro.util.faults import Fault, FaultInjector

logger = logging.getLogger(__name__)

#: Granularity marker on the synthetic violation of a fail-closed
#: degraded decision; enforcement treats it as unencryptable.
DEGRADED_GRANULARITY = "lookup"

#: Tag name reported as "offending" by a fail-closed degraded decision.
UNAVAILABLE_TAG = "lookup-unavailable"


class FailureMode(enum.Enum):
    """What a client does when the lookup service stays unavailable."""

    FAIL_OPEN = "fail-open"
    FAIL_CLOSED = "fail-closed"


@dataclass(frozen=True)
class LookupOutcome:
    """One client request's result, degraded or not.

    Attributes:
        decision: the policy decision handed to enforcement. For a
            degraded request this is synthesised by the failure mode,
            not computed from the databases.
        degraded: True when every attempt failed and the failure mode
            decided the outcome.
        attempts: lookup attempts made (1 on clean success).
        retries: attempts minus one, capped by the client's budget.
        faults: per-failed-attempt fault descriptions in attempt order,
            e.g. ``("timeout", "http-503")``.
        waited: backoff delays (seconds) applied between attempts.
        latency: simulated service latency of the successful attempt
            (0.0 for degraded requests).
    """

    decision: FlowDecision
    degraded: bool
    attempts: int
    retries: int
    faults: Tuple[str, ...]
    waited: Tuple[float, ...]
    latency: float


class LookupServer:
    """One shared policy-lookup service for many concurrent clients.

    Thread safety comes from the layers below: the shared
    :class:`PolicyLookup` holds the model's reader–writer lock across
    each decision (queries share, observations exclude) and the decision
    cache carries its own mutex. The server adds fault injection at the
    request boundary and request counters — registry counters are
    already thread-safe, so the hot request path takes no server-level
    lock at all (the counters are exact when each is owned by one
    logical stream, monotonic-approximate under contention, same
    contract as the engine's query counters).

    Args:
        lookup: the shared lookup module (one per enterprise).
        faults: optional deterministic fault source; healthy if omitted.
        clock: timestamp source for audit events; kept separate from the
            engine's observation clock so degradations do not perturb
            first-seen timestamps.
    """

    def __init__(
        self,
        lookup: PolicyLookup,
        *,
        faults: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self._lookup = lookup
        self._faults = faults
        self._clock = clock or LogicalClock()
        #: The model's registry (shared down the whole stack); server
        #: request counters register under ``server.`` beside the engine
        #: and decision-cache instruments.
        self.registry = lookup.model.registry
        self.metrics = self.registry.scope("server.")
        self._counters = {
            name: self.metrics.counter(name)
            for name in (
                "requests",
                "served",
                "observes",
                "dropped",
                "rejected",
                "timed_out",
                "batches",
                "batch_items",
            )
        }
        self._h_handle = self.metrics.histogram("handle_seconds")
        # Items-per-batch distribution; count buckets, not latency ones.
        self._h_batch_size = self.metrics.histogram(
            "batch_size", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
        )

    @property
    def lookup(self) -> PolicyLookup:
        return self._lookup

    def now(self) -> float:
        return self._clock.now()

    def _count(self, name: str, delta: int = 1) -> None:
        self._counters[name].inc(delta)

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------

    def handle(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
        *,
        timeout: float,
        suppressions: Optional[Mapping[str, Sequence[Suppression]]] = None,
        fingerprints: Optional[Sequence] = None,
    ) -> Tuple[FlowDecision, float]:
        """Answer one lookup request; returns (decision, latency).

        The latency is the injected service latency in seconds (0.0 when
        healthy). Raises :class:`LookupTimeout` when the request is
        dropped or its injected latency exceeds *timeout*, and
        :class:`LookupRejected` for an injected backend 5xx — in both
        cases *before* touching the shared engine, like a real frontend
        shedding load. *fingerprints*, when present, carries the
        client's precomputed per-paragraph fingerprints (the §13 delta
        path); on a real wire this would ship the winnowed hash values,
        which are a fraction of the text's size.
        """
        self._count("requests")
        fault = self._faults.next_fault() if self._faults is not None else Fault.none()
        if fault.kind == "drop":
            self._count("dropped")
            raise LookupTimeout(timeout, kind="drop")
        if fault.kind == "error":
            self._count("rejected")
            raise LookupRejected(fault.status)
        if fault.kind == "latency" and fault.latency > timeout:
            self._count("timed_out")
            raise LookupTimeout(timeout, kind="latency")
        clock = self.registry.clock
        start = clock.now()
        decision = self._lookup.lookup(
            service_id,
            doc_id,
            paragraphs,
            suppressions=suppressions,
            fingerprints=fingerprints,
        )
        self._h_handle.observe(clock.now() - start)
        self._count("served")
        return decision, fault.latency

    def handle_batch(
        self,
        service_id: str,
        items: Sequence[BatchItem],
        *,
        timeout: float,
    ) -> Tuple[List[FlowDecision], float]:
        """Answer many lookups in one round trip; (decisions, latency).

        The batch is *one* request on the wire: one fault decision (and
        so one injection point) covers all items — a dropped or refused
        batch fails every item together, and an injected latency is paid
        once rather than per item. ``served`` counts decisions, so for
        batch traffic it exceeds ``requests`` (round trips);
        ``batch_items`` and the ``batch_size`` histogram record the
        amortisation factor.
        """
        self._count("requests")
        self._count("batches")
        self._count("batch_items", len(items))
        self._h_batch_size.observe(float(len(items)))
        fault = self._faults.next_fault() if self._faults is not None else Fault.none()
        if fault.kind == "drop":
            self._count("dropped")
            raise LookupTimeout(timeout, kind="drop")
        if fault.kind == "error":
            self._count("rejected")
            raise LookupRejected(fault.status)
        if fault.kind == "latency" and fault.latency > timeout:
            self._count("timed_out")
            raise LookupTimeout(timeout, kind="latency")
        clock = self.registry.clock
        start = clock.now()
        decisions = self._lookup.lookup_batch(service_id, items)
        self._h_handle.observe(clock.now() - start)
        self._count("served", len(items))
        return decisions, fault.latency

    def observe(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
    ) -> None:
        """Record text observed in a service (exclusive write path)."""
        self._count("observes")
        self._lookup.model.observe(service_id, doc_id, paragraphs)

    def stats(self) -> Dict[str, object]:
        """Server request counters + injector + lookup/engine/lock stats.

        A thin view over the shared registry (plus the injector's own
        scope): every field reads the same instrument a snapshot would.
        """
        combined: Dict[str, object] = {
            f"server_{name}": counter.value
            for name, counter in self._counters.items()
        }
        if self._faults is not None:
            combined.update(self._faults.stats())
        combined.update(self._lookup.stats())
        return combined


class LookupClient:
    """One simulated plug-in's view of the shared lookup service.

    Args:
        server: the shared :class:`LookupServer`.
        timeout: per-request latency budget in seconds (§6.2).
        max_retries: additional attempts after the first failure.
        backoff: initial retry delay in seconds.
        backoff_multiplier: exponential backoff factor.
        failure_mode: fail-open or fail-closed degradation.
        sleep: optional callable invoked with each backoff delay; tests
            pass a recorder, production could pass ``time.sleep``. By
            default delays are recorded in the outcome but not slept,
            keeping simulations deterministic and fast.
        scope: metrics scope for the client counters. Each client gets a
            *private* registry under ``client.`` when omitted — clients
            must not share instruments or their exact per-client
            counters would merge; a load driver that wants N clients in
            one registry passes distinct scopes (``client.0.`` …).
    """

    def __init__(
        self,
        server: LookupServer,
        *,
        timeout: float = 0.2,
        max_retries: int = 2,
        backoff: float = 0.05,
        backoff_multiplier: float = 2.0,
        failure_mode: FailureMode = FailureMode.FAIL_CLOSED,
        sleep=None,
        scope: Optional[MetricsScope] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0 or backoff_multiplier < 1.0:
            raise ValueError("backoff must be >= 0 and multiplier >= 1")
        self._server = server
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._backoff_multiplier = backoff_multiplier
        self.failure_mode = failure_mode
        self._sleep = sleep
        if scope is None:
            scope = MetricsRegistry().scope("client.")
        self.metrics = scope
        self._counters = {
            name: scope.counter(name)
            for name in (
                "requests",
                "attempts",
                "retries",
                "timeouts",
                "server_errors",
                "degraded",
                "fail_open_allowed",
                "fail_closed_blocked",
            )
        }

    @property
    def timeout(self) -> float:
        return self._timeout

    def _count(self, name: str, delta: int = 1) -> None:
        self._counters[name].inc(delta)

    def lookup(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
        *,
        suppressions: Optional[Mapping[str, Sequence[Suppression]]] = None,
        fingerprints: Optional[Sequence] = None,
    ) -> LookupOutcome:
        """Resolve a decision with retries; degrade if the service stays down."""
        self._count("requests")
        faults: List[str] = []
        waited: List[float] = []
        for attempt in range(1, self._max_retries + 2):
            self._count("attempts")
            try:
                decision, latency = self._server.handle(
                    service_id,
                    doc_id,
                    paragraphs,
                    timeout=self._timeout,
                    suppressions=suppressions,
                    fingerprints=fingerprints,
                )
            except LookupTimeout:
                self._count("timeouts")
                faults.append("timeout")
            except LookupRejected as exc:
                self._count("server_errors")
                faults.append(f"http-{exc.status}")
            else:
                return LookupOutcome(
                    decision=decision,
                    degraded=False,
                    attempts=attempt,
                    retries=attempt - 1,
                    faults=tuple(faults),
                    waited=tuple(waited),
                    latency=latency,
                )
            if attempt <= self._max_retries:
                delay = self._backoff * self._backoff_multiplier ** (attempt - 1)
                waited.append(delay)
                self._count("retries")
                if self._sleep is not None:
                    self._sleep(delay)
        return self._degrade(service_id, doc_id, faults, waited)

    def _degrade(
        self,
        service_id: str,
        doc_id: str,
        faults: List[str],
        waited: List[float],
    ) -> LookupOutcome:
        attempts = self._max_retries + 1
        self._count("degraded")
        error = LookupUnavailable(service_id, attempts)
        self._server.lookup.model.audit.record(
            DegradationEvent(
                kind="lookup_unavailable",
                failure_mode=self.failure_mode.value,
                service_id=service_id,
                doc_id=doc_id,
                attempts=attempts,
                faults=tuple(faults),
                timestamp=self._server.now(),
            )
        )
        if self.failure_mode is FailureMode.FAIL_OPEN:
            self._count("fail_open_allowed")
            logger.warning(
                "fail-open: allowing upload of %r to %r without a policy "
                "decision (%s)", doc_id, service_id, error
            )
            decision = FlowDecision(service_id=service_id, allowed=True, labels={})
        else:
            self._count("fail_closed_blocked")
            decision = FlowDecision(
                service_id=service_id,
                allowed=False,
                violations=(
                    FlowViolation(
                        segment_id=doc_id,
                        label=SegmentLabel(),
                        offending=Label.of(UNAVAILABLE_TAG),
                        granularity=DEGRADED_GRANULARITY,
                    ),
                ),
                labels={},
            )
        return LookupOutcome(
            decision=decision,
            degraded=True,
            attempts=attempts,
            retries=attempts - 1,
            faults=tuple(faults),
            waited=tuple(waited),
            latency=0.0,
        )

    def stats(self) -> Dict[str, int]:
        """Exact per-client request/retry/timeout/degradation counters.

        A thin view over the client's registry scope, field-identical to
        ``metrics.snapshot()`` by construction. Registry counters are
        thread-safe on their own, so no client-level lock is taken —
        each client's counters are exact because a client is driven by
        one plug-in thread.
        """
        return {name: counter.value for name, counter in self._counters.items()}


class BatchLookupClient(LookupClient):
    """A lookup client that carries many items per round trip.

    :meth:`lookup_batch` resolves N ``(doc_id, paragraphs)`` items with
    the retry/degradation machinery applied to the *batch*: one timeout
    budget, one bounded retry loop, one fault-injection point per wire
    attempt. When the service stays down the whole batch degrades
    together, but the audit trail stays per item — each item records its
    own :class:`~repro.tdm.audit.DegradationEvent` and fail-open /
    fail-closed decision, exactly as if it had been looked up alone.

    Counter semantics: ``requests`` counts *items* (so it remains
    comparable with a single-request client doing the same work),
    ``batches`` counts round trips, and ``attempts``/``retries``/
    ``timeouts``/``server_errors`` count wire-level events as before.
    """

    def __init__(self, server: LookupServer, **kwargs) -> None:
        super().__init__(server, **kwargs)
        self._counters["batches"] = self.metrics.counter("batches")

    def lookup_batch(
        self, service_id: str, items: Sequence[BatchItem]
    ) -> List[LookupOutcome]:
        """Resolve decisions for all *items*; one outcome per item."""
        self._count("batches")
        self._count("requests", len(items))
        faults: List[str] = []
        waited: List[float] = []
        for attempt in range(1, self._max_retries + 2):
            self._count("attempts")
            try:
                decisions, latency = self._server.handle_batch(
                    service_id, items, timeout=self._timeout
                )
            except LookupTimeout:
                self._count("timeouts")
                faults.append("timeout")
            except LookupRejected as exc:
                self._count("server_errors")
                faults.append(f"http-{exc.status}")
            else:
                return [
                    LookupOutcome(
                        decision=decision,
                        degraded=False,
                        attempts=attempt,
                        retries=attempt - 1,
                        faults=tuple(faults),
                        waited=tuple(waited),
                        latency=latency,
                    )
                    for decision in decisions
                ]
            if attempt <= self._max_retries:
                delay = self._backoff * self._backoff_multiplier ** (attempt - 1)
                waited.append(delay)
                self._count("retries")
                if self._sleep is not None:
                    self._sleep(delay)
        return [
            self._degrade(service_id, doc_id, list(faults), list(waited))
            for doc_id, _paragraphs in items
        ]


class StandbyLookupServer:
    """A warm replica caught up by log shipping, ready for failover.

    The fail-open/fail-closed machinery above decides what a *client*
    does while the lookup service is down; this class is the other half
    of that availability story — a standby that makes "down" short. It
    holds its own dual-granularity
    :class:`~repro.disclosure.engine.DisclosureTracker` and applies the
    primary's WAL records (pulled through a
    :class:`~repro.disclosure.wal.LogShipper`) with their recorded
    timestamps, so first-seen ownership on the replica is bit-identical
    to the primary's. Because replay covers exactly the records a
    recovery of the primary would replay, the standby's Algorithm 1
    verdicts equal the recovered primary's at every catch-up point.

    Serving is read-only until :meth:`promote`: scans answer from the
    replica's databases under the same fault/timeout envelope as
    :meth:`LookupServer.handle`, so failover drills reuse the client
    machinery unchanged. ``suppress`` records do not change engine
    state; they accumulate on :attr:`shipped_suppressions` so the
    primary's declassification audit obligation survives the failover.

    Args:
        shipper: incremental reader of the primary's WAL directory.
        config: fingerprint config; must match the primary's.
        faults: optional fault source for the standby's own serving
            path (a standby can be degraded too).
        registry: metrics registry; standby instruments live under
            ``standby.``.
    """

    def __init__(
        self,
        shipper,
        *,
        config: Optional[FingerprintConfig] = None,
        faults: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._shipper = shipper
        self._faults = faults
        self.registry = registry or MetricsRegistry()
        self.metrics = self.registry.scope("standby.")
        self.tracker = DisclosureTracker(config, registry=self.registry)
        self.shipped_suppressions: List[dict] = []
        self._max_ts = 0.0
        self._promoted = False
        self._counters = {
            name: self.metrics.counter(name)
            for name in (
                "catchups",
                "records_applied",
                "records_skipped",
                "suppressions_shipped",
                "gaps_detected",
                "scans",
                "dropped",
                "rejected",
                "timed_out",
            )
        }
        self.metrics.gauge("applied_lsn", fn=lambda: self.applied_lsn)
        self.metrics.gauge(
            "promoted", fn=lambda: 1.0 if self._promoted else 0.0
        )

    @property
    def applied_lsn(self) -> int:
        """LSN of the last shipped record this replica has applied."""
        return self._shipper.cursor

    @property
    def promoted(self) -> bool:
        return self._promoted

    def _resolve(self, kind: str):
        if kind == "document":
            return self.tracker.documents
        return self.tracker.paragraphs

    def catch_up(self) -> int:
        """Pull and apply the primary's new records; returns how many.

        Idempotent and incremental — each call applies only records
        beyond the shipper's cursor, and the cursor advances one record
        at a time *as records apply*: if an apply raises mid-batch, the
        failed record and everything after it are still beyond the
        cursor and are retried on the next poll, never silently skipped.
        A torn record at the primary's tail (an append in flight, or
        the debris of its death) is not shipped; if the append completes
        it arrives on the next poll.

        A shipped ``compact`` record whose ``snapshot_lsn`` is beyond
        the last record this replica applied means the primary rotated
        its logs before we polled the folded records — they exist only
        in the primary's (unshipped) snapshot, so the replica can never
        catch up from the log alone. That hole raises
        :class:`~repro.errors.StandbyGap` rather than letting the
        replica diverge silently; the operator re-seeds the standby.
        """
        if self._promoted:
            raise DisclosureError(
                "standby has been promoted; it no longer follows the log"
            )
        # Deferred import: wal pulls in plugin.crypto, which would
        # close an import cycle through this package's __init__.
        from repro.disclosure.wal import replay_records

        prev_cursor = self._shipper.cursor
        records = self._shipper.poll()
        applied = 0
        skipped = 0
        # poll() advanced the cursor past the whole batch; rewind to the
        # pre-poll position and walk it forward per record, so the
        # cursor always names the last record actually applied.
        self._shipper.cursor = prev_cursor
        for record in records:
            if record["op"] == "compact":
                snapshot_lsn = int(record.get("snapshot_lsn", 0))
                if snapshot_lsn > self._shipper.cursor:
                    self._counters["gaps_detected"].inc()
                    raise StandbyGap(
                        f"primary compacted through lsn {snapshot_lsn} but "
                        f"this standby only applied lsn "
                        f"{self._shipper.cursor}; the folded records were "
                        "never shipped — re-seed the standby from the "
                        "primary's snapshot"
                    )
            ts = record.get("ts")
            if ts is not None:
                self._max_ts = max(self._max_ts, ts)
            if record["op"] == "suppress":
                self.shipped_suppressions.append(record)
                self._counters["suppressions_shipped"].inc()
                skipped += 1
            else:
                one_applied, one_skipped = replay_records(
                    [record], self._resolve
                )
                applied += one_applied
                skipped += one_skipped
            self._shipper.cursor = record["lsn"]
        self._counters["catchups"].inc()
        self._counters["records_applied"].inc(applied)
        self._counters["records_skipped"].inc(skipped)
        return applied

    # ------------------------------------------------------------------
    # Serving (read-only until promoted)
    # ------------------------------------------------------------------

    def check_document(self, doc_id: str, paragraphs: Sequence[Tuple[str, str]]):
        """Algorithm 1 at both granularities against the replica."""
        self._counters["scans"].inc()
        return self.tracker.check_document(doc_id, paragraphs)

    def handle_scan(
        self,
        text: str,
        *,
        timeout: float,
        kind: str = "paragraph",
        exclude_doc: Optional[str] = None,
    ):
        """One Algorithm 1 scan under the standard fault envelope.

        Same drop/error/latency-vs-timeout semantics as
        :meth:`LookupServer.handle`, so a failover driver can point the
        ordinary retry/degradation client machinery at the standby.
        Returns ``(DisclosureReport, injected_latency)``.
        """
        fault = (
            self._faults.next_fault()
            if self._faults is not None
            else Fault.none()
        )
        if fault.kind == "drop":
            self._counters["dropped"].inc()
            raise LookupTimeout(timeout, kind="drop")
        if fault.kind == "error":
            self._counters["rejected"].inc()
            raise LookupRejected(fault.status)
        if fault.kind == "latency" and fault.latency > timeout:
            self._counters["timed_out"].inc()
            raise LookupTimeout(timeout, kind="latency")
        self._counters["scans"].inc()
        engine = self._resolve(kind)
        fingerprint = engine.fingerprint(text)
        report = engine.disclosing_sources(
            fingerprint=fingerprint, exclude_doc=exclude_doc
        )
        return report, fault.latency

    def promote(self, wal=None) -> DisclosureTracker:
        """Stop following the log and become the writable primary.

        Resumes the tracker's logical clock strictly past every replayed
        timestamp (so post-failover observations cannot steal
        authoritative ownership from replicated ones) and, when *wal*
        (a :class:`~repro.disclosure.wal.WriteAheadLog`) is given,
        attaches a journal so the promoted primary's own mutations are
        durable — and shippable to the *next* standby.
        """
        if self._promoted:
            raise DisclosureError("standby already promoted")
        self._promoted = True
        self.tracker.resume_clock(self._max_ts)
        if wal is not None:
            from repro.disclosure.wal import EngineJournal

            journal = EngineJournal(wal)
            self.tracker.paragraphs.attach_journal(journal)
            self.tracker.documents.attach_journal(journal)
        return self.tracker

    def stats(self) -> Dict[str, object]:
        combined: Dict[str, object] = {
            f"standby_{name}": counter.value
            for name, counter in self._counters.items()
        }
        combined["standby_applied_lsn"] = self.applied_lsn
        combined["standby_promoted"] = self._promoted
        return combined
