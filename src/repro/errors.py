"""Exception hierarchy for the BrowserFlow reproduction.

All exceptions raised by this package derive from :class:`ReproError` so
that callers embedding the library can catch a single base class. The
subclasses partition failures by subsystem: fingerprinting, the disclosure
engine, the Text Disclosure Model (labels and policy), the simulated
browser, and the simulated cloud services.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class FingerprintError(ReproError):
    """Raised for invalid fingerprinting configuration or input."""


class DisclosureError(ReproError):
    """Raised by the disclosure engine, e.g. for unknown segments."""


class UnknownSegmentError(DisclosureError):
    """Raised when a segment id is not present in the databases."""

    def __init__(self, segment_id: str) -> None:
        super().__init__(f"unknown text segment: {segment_id!r}")
        self.segment_id = segment_id


class SnapshotCorrupt(DisclosureError):
    """A persisted engine snapshot cannot be read back.

    Raised (instead of raw ``JSONDecodeError`` / ``KeyError`` /
    ``UnicodeDecodeError``) when a snapshot file is truncated, not valid
    JSON, missing required fields, or encrypted under a different key
    than the one supplied. The message always names the snapshot and the
    reason, so the CLI can print it verbatim.
    """


class WALCorrupt(DisclosureError):
    """A write-ahead log file is unreadable beyond torn-tail damage.

    A torn tail (the last record cut short by a crash) is *expected* and
    silently truncated at recovery; this error covers everything else —
    a missing or wrong magic header, a record that passes its checksum
    but cannot be decrypted (wrong cipher key), or a shard layout that
    does not match the directory's log files. Raised *before* anything
    is truncated, so a recovery attempted with the wrong key or shard
    count never destroys acknowledged records.
    """


class StandbyGap(DisclosureError):
    """A standby's log-shipping stream has a hole it cannot replay.

    Raised by :meth:`~repro.plugin.server.StandbyLookupServer.catch_up`
    when a shipped ``compact`` record covers LSNs the standby never
    applied: the primary rotated its logs between polls, folding those
    records into a snapshot that is not shipped. Continuing would leave
    the replica permanently diverged, so the standby refuses; the
    operator must re-seed it from the primary's snapshot.
    """


class SimulatedCrash(ReproError):
    """The process 'died' at an injected crash point.

    Raised by the durability layer when a :class:`~repro.util.faults.
    FaultInjector` schedules a crash during a snapshot write or a WAL
    append. Everything written before the crash point is on disk
    (possibly torn); nothing after it is. Tests catch this, discard the
    in-memory engine — exactly what a real crash does — and drive
    recovery from the surviving files.

    Deliberately *not* a :class:`DisclosureError`: nothing in the
    library may swallow it, just as nothing survives ``kill -9``.
    """

    def __init__(self, where: str) -> None:
        super().__init__(f"simulated crash: {where}")
        self.where = where


class PolicyError(ReproError):
    """Raised for invalid Text Disclosure Model operations."""


class UnknownServiceError(PolicyError):
    """Raised when a service has no registered policy labels."""

    def __init__(self, service: str) -> None:
        super().__init__(f"no policy registered for service: {service!r}")
        self.service = service


class TagError(PolicyError):
    """Raised for malformed tags or illegal tag operations."""


class SuppressionError(PolicyError):
    """Raised when a tag suppression request is not permitted."""


class DisclosureViolation(PolicyError):
    """Raised when enforcement blocks an upload that violates policy.

    Carries the offending segment label and the target service privilege
    label so that callers (and the UI layer) can explain the violation.
    """

    def __init__(self, service: str, segment_label, privilege_label) -> None:
        offending = segment_label - privilege_label
        super().__init__(
            f"upload to {service!r} would disclose data tagged "
            f"{sorted(str(t) for t in offending)}"
        )
        self.service = service
        self.segment_label = segment_label
        self.privilege_label = privilege_label
        self.offending_tags = offending


class LookupFault(ReproError):
    """Base class for shared-lookup-service availability failures.

    The shared hash database sits behind the network (paper Fig. 1), so
    a disclosure decision can fail for reasons that have nothing to do
    with policy: the request can be dropped, time out against the
    client's latency budget (§6.2), or be refused by an overloaded
    backend. These faults are retried by :class:`~repro.plugin.server.
    LookupClient`; when retries are exhausted the configured
    fail-open / fail-closed degradation mode decides the upload's fate.
    """


class LookupTimeout(LookupFault):
    """A lookup request exceeded the client's per-request timeout."""

    def __init__(self, timeout: float, kind: str = "timeout") -> None:
        super().__init__(f"lookup timed out after {timeout:.3f}s ({kind})")
        self.timeout = timeout
        self.kind = kind


class LookupRejected(LookupFault):
    """The lookup backend refused the request with a server error."""

    def __init__(self, status: int) -> None:
        super().__init__(f"lookup service returned HTTP {status}")
        self.status = status


class LookupUnavailable(LookupFault):
    """The lookup service stayed unavailable through all retries.

    Recorded in the audit log as a degradation event; under fail-closed
    enforcement the associated upload is blocked, under fail-open it is
    allowed with a logged warning.
    """

    def __init__(self, service_id: str, attempts: int) -> None:
        super().__init__(
            f"lookup for {service_id!r} unavailable after {attempts} attempt(s)"
        )
        self.service_id = service_id
        self.attempts = attempts


class BrowserError(ReproError):
    """Raised by the simulated browser substrate."""


class DOMError(BrowserError):
    """Raised for invalid DOM tree manipulations."""


class NetworkError(ReproError):
    """Raised by the simulated network layer."""


class RequestBlocked(NetworkError):
    """Raised when an interceptor vetoes an outgoing request."""

    def __init__(self, url: str, reason: str = "blocked by policy") -> None:
        super().__init__(f"request to {url!r} blocked: {reason}")
        self.url = url
        self.reason = reason


class ServiceError(ReproError):
    """Raised by simulated cloud services."""


class DocumentNotFound(ServiceError):
    """Raised when a service is asked for a document it does not store."""

    def __init__(self, doc_id: str) -> None:
        super().__init__(f"document not found: {doc_id!r}")
        self.doc_id = doc_id


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators."""
