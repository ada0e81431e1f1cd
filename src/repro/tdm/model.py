"""The Text Disclosure Model engine (paper §3).

:class:`TextDisclosureModel` ties the label algebra to the imprecise
disclosure engine:

* when text first appears in a service, its segment gets the service's
  confidentiality label ``Lc`` as *explicit* tags;
* when a segment is found (by fingerprint similarity) to disclose other
  segments, the sources' propagating tags attach to it as *implicit*
  tags — which are flow-checked but never propagate onwards (§3.2);
* an upload of a segment to a service is compliant iff the segment's
  effective label is a subset of the service's privilege label ``Lp``;
* users may suppress tags case-by-case (recorded in the audit log) and
  allocate custom tags, whose addition back-propagates privileges to
  services that already store the segment (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.disclosure import DisclosureTracker, SourceDisclosure
from repro.errors import PolicyError, SuppressionError
from repro.fingerprint import Fingerprint, FingerprintConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import span
from repro.tdm.audit import AuditLog, SuppressionEvent
from repro.tdm.labels import Label, SegmentLabel
from repro.tdm.policy import PolicyStore, ServicePolicy
from repro.tdm.tags import Tag, as_tag
from repro.util.clock import Clock

#: (paragraph_id, text) pairs, the document representation used throughout.
Paragraphs = Sequence[Tuple[str, str]]


@dataclass(frozen=True)
class Suppression:
    """A one-shot declassification request for one tag of one segment."""

    tag: Tag
    user: str
    justification: str

    @classmethod
    def of(cls, tag, user: str, justification: str) -> "Suppression":
        if not user:
            raise SuppressionError("suppression requires a user id")
        if not justification:
            raise SuppressionError("suppression requires a justification")
        return cls(as_tag(tag), user, justification)


@dataclass(frozen=True)
class FlowViolation:
    """One segment whose upload would violate the disclosure policy."""

    segment_id: str
    label: SegmentLabel
    offending: Label
    sources: Tuple[SourceDisclosure, ...] = ()
    granularity: str = "paragraph"

    def describe(self) -> str:
        origins = ", ".join(sorted({s.segment_id for s in self.sources})) or "itself"
        return (
            f"{self.granularity} {self.segment_id!r} carries "
            f"{self.offending} (via {origins})"
        )


@dataclass(frozen=True)
class FlowDecision:
    """Result of a policy check for one upload to one service."""

    service_id: str
    allowed: bool
    violations: Tuple[FlowViolation, ...] = ()
    labels: Mapping[str, SegmentLabel] = field(default_factory=dict)

    def violating_segments(self) -> List[str]:
        return [v.segment_id for v in self.violations]


class TextDisclosureModel:
    """Policy lookup + reasoning for the BrowserFlow middleware.

    Args:
        policies: the enterprise policy store; a fresh one (all services
            untrusted by default) is created when omitted.
        config: fingerprinting parameters for the disclosure tracker.
        clock: timestamp source shared by disclosure DBs and audit log.
        paragraph_threshold / document_threshold: default Tpar and Tdoc.
        authoritative: apply the §4.3 overlap correction.
        registry: metrics registry shared down the stack (both engines,
            the shared lock, and — via the plug-in — the decision
            cache). A private one is created when omitted.
        n_shards: hash-range shard the disclosure databases into this
            many shards (DESIGN.md §11); one, the default, is the
            paper's single hash database.
        router: an object with ``map(fn, items)`` that multi-shard
            sweeps hand their per-shard jobs to (e.g. a counting
            :class:`~repro.plugin.router.ShardRouter`).
    """

    def __init__(
        self,
        policies: Optional[PolicyStore] = None,
        config: Optional[FingerprintConfig] = None,
        clock: Optional[Clock] = None,
        *,
        paragraph_threshold: float = 0.5,
        document_threshold: float = 0.5,
        authoritative: bool = True,
        registry: Optional[MetricsRegistry] = None,
        n_shards: int = 1,
        router=None,
    ) -> None:
        self.policies = policies or PolicyStore()
        self.tracker = DisclosureTracker(
            config,
            clock,
            paragraph_threshold=paragraph_threshold,
            document_threshold=document_threshold,
            authoritative=authoritative,
            registry=registry,
            n_shards=n_shards,
            router=router,
        )
        #: The tracker's registry — the composition root's single
        #: namespace, reused by the plug-in's decision cache and the
        #: lookup service above.
        self.registry = self.tracker.registry
        # The tracker's clock: audit events and first-seen records share
        # one timeline, so resuming the tracker resumes the audit too.
        self._clock = self.tracker.clock
        self.audit = AuditLog()
        #: The tracker's reader–writer lock, shared by both granularity
        #: engines; model operations reuse it (reentrantly) so label and
        #: location maps stay consistent with the disclosure databases.
        self.lock = self.tracker.lock
        self._labels: Dict[str, SegmentLabel] = {}
        self._locations: Dict[str, set] = {}
        # Durability hook: a WAL-backed journal (see
        # repro.disclosure.wal.EngineJournal) that mirrors consumed
        # suppressions into the log, so a standby replica inherits the
        # audit obligation along with the fingerprint state.
        self._journal = None

    def attach_journal(self, journal) -> None:
        """Mirror consumed suppressions into *journal* (``log_suppress``).

        Engine-level mutations are journaled by the tracker's engines
        themselves (:meth:`~repro.disclosure.engine.DisclosureEngine.
        attach_journal`); this hook covers the one policy-level event a
        standby must not lose — a user's declassification decision.
        """
        self._journal = journal

    def detach_journal(self) -> None:
        self._journal = None

    # ------------------------------------------------------------------
    # Label access
    # ------------------------------------------------------------------

    def label_of(self, segment_id: str) -> SegmentLabel:
        """Current label of a segment (empty label if never seen)."""
        return self._labels.get(segment_id, SegmentLabel())

    def _store_label(self, segment_id: str, label: SegmentLabel) -> None:
        """Store a label; stamp it only on an *effective* change.

        A check verdict depends on the label store twice — the upload
        segments' own stored labels and the inherited tags of every
        matching source — so a change is stamped for both readings
        (:meth:`~repro.disclosure.engine.DisclosureTracker.stamp_segment`,
        DESIGN.md §13). Storing a label equal to what was already there
        (the common case: re-observing public text keeps its empty
        label) stamps nothing, so public churn never invalidates cached
        verdicts; creating or inheriting confidential tags,
        declassification via :meth:`set_label`, and
        :meth:`add_tag_to_segment` all do. Call under the write lock.
        """
        if self._labels.get(segment_id, SegmentLabel()) != label:
            self.tracker.stamp_segment(segment_id)
        self._labels[segment_id] = label

    def set_label(self, segment_id: str, label: SegmentLabel) -> None:
        # Write-locked like every other label mutator: concurrent
        # lookups read the label store and its stamps under the read
        # lock, and a bare dict write here could slip between the two.
        with self.lock.write_locked():
            self._store_label(segment_id, label)

    def locations_of(self, segment_id: str) -> FrozenSet[str]:
        """Services known to store a copy of the segment."""
        return frozenset(self._locations.get(segment_id, ()))

    # ------------------------------------------------------------------
    # Observation: text appearing inside a service
    # ------------------------------------------------------------------

    def observe(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Paragraphs,
        *,
        paragraph_threshold: Optional[float] = None,
        document_threshold: Optional[float] = None,
    ) -> Dict[str, SegmentLabel]:
        """Record text observed in *service_id* and label it.

        New segments get the service's ``Lc`` as explicit tags. Segments
        found to disclose existing sources additionally inherit those
        sources' propagating tags as implicit tags. Returns the resolved
        label per paragraph id (the document label is stored under
        ``doc_id``).

        The paragraphs and the document are fingerprinted in one pass,
        before the write lock is taken, and the same fingerprints serve
        the check and the store.
        """
        policy = self.policies.get(service_id)
        fingerprints, doc_fingerprint = self.tracker.document_fingerprints(
            paragraphs
        )
        # The whole check-then-store sequence runs under the write lock:
        # the disclosure lookup must see the databases *without* the copy
        # we are about to store, and no concurrent client may observe the
        # labels before the fingerprints (or vice versa).
        with self.lock.write_locked():
            report = self.tracker.check_document(
                doc_id,
                paragraphs,
                fingerprints=fingerprints,
                document_fingerprint=doc_fingerprint,
            )
            resolved: Dict[str, SegmentLabel] = {}

            for (par_id, _text), (_pid, par_report) in zip(
                paragraphs, report.paragraph_reports
            ):
                label = self._labels.get(par_id)
                if label is None:
                    label = SegmentLabel.of(explicit=policy.confidentiality)
                inherited = self._inherited_tags(par_report.sources)
                label = label.add_implicit(inherited)
                self._store_label(par_id, label)
                self._locations.setdefault(par_id, set()).add(service_id)
                resolved[par_id] = label

            doc_label = self._labels.get(doc_id)
            if doc_label is None:
                doc_label = SegmentLabel.of(explicit=policy.confidentiality)
            if report.document_report is not None:
                doc_label = doc_label.add_implicit(
                    self._inherited_tags(report.document_report.sources)
                )
            self._store_label(doc_id, doc_label)
            self._locations.setdefault(doc_id, set()).add(service_id)
            resolved[doc_id] = doc_label

            self.tracker.observe_document(
                doc_id,
                paragraphs,
                paragraph_threshold=paragraph_threshold,
                document_threshold=document_threshold,
                fingerprints=fingerprints,
                document_fingerprint=doc_fingerprint,
            )
            return resolved

    def _inherited_tags(self, sources: Iterable[SourceDisclosure]) -> FrozenSet[Tag]:
        tags: set = set()
        for source in sources:
            tags |= self.label_of(source.segment_id).propagating()
        return frozenset(tags)

    # ------------------------------------------------------------------
    # Enforcement: checking an upload
    # ------------------------------------------------------------------

    def check_upload(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Paragraphs,
        *,
        suppressions: Optional[Mapping[str, Sequence[Suppression]]] = None,
        fingerprints: Optional[Sequence[Fingerprint]] = None,
        document_fingerprint: Optional[Fingerprint] = None,
    ) -> FlowDecision:
        """Decide whether uploading *paragraphs* to *service_id* complies.

        This is the policy-lookup + policy-enforcement pipeline: resolve
        each segment's label (own label plus implicit tags from detected
        disclosure), apply any one-shot suppressions (audited), then
        check the effective label against the service's ``Lp``.

        ``fingerprints`` optionally carries precomputed per-paragraph
        fingerprints (aligned with *paragraphs*) and
        ``document_fingerprint`` the document's; the lookup path passes
        the ones it computed for its cache keys so each text is
        fingerprinted once end to end. Anything missing is computed in
        one pass before the read lock is taken.
        """
        policy = self.policies.get(service_id)
        suppressions = suppressions or {}
        fingerprints, document_fingerprint = self.tracker.document_fingerprints(
            paragraphs, fingerprints, document_fingerprint
        )
        # Read lock: the dual-granularity report and the label resolution
        # below must describe one consistent database state. Suppression
        # audit appends are safe under the shared lock (append-only log).
        with self.lock.read_locked(), span(
            "label_check", service=service_id, doc=doc_id
        ) as sp:
            report = self.tracker.check_document(
                doc_id,
                paragraphs,
                fingerprints=fingerprints,
                document_fingerprint=document_fingerprint,
            )
            decision = self._decision_for(
                policy, service_id, doc_id, paragraphs, report, suppressions
            )
            sp.set(
                allowed=decision.allowed,
                violations=len(decision.violations),
                segments=len(decision.labels),
            )
            return decision

    def check_uploads(
        self,
        service_id: str,
        docs: Sequence[Tuple[str, Paragraphs]],
        *,
        fingerprints: Optional[Sequence[Sequence[Fingerprint]]] = None,
        document_fingerprints: Optional[Sequence[Fingerprint]] = None,
    ) -> List[FlowDecision]:
        """Batched :meth:`check_upload`: one decision per document.

        Field-identical to checking each document alone (the label
        resolution and violation assembly are the same code), but the
        whole batch shares one read-lock acquisition, one trace span,
        and the tracker's fused engine queries
        (:meth:`~repro.disclosure.engine.DisclosureTracker.check_documents`).
        Suppressions are deliberately not accepted: a suppression is a
        one-shot audited consume that the single path owns.

        ``fingerprints`` optionally carries per-document lists of
        precomputed paragraph fingerprints, and ``document_fingerprints``
        the documents' own, both aligned with *docs*. Anything missing
        is computed before the read lock is taken.
        """
        policy = self.policies.get(service_id)
        resolved = self.tracker.fingerprint_documents(
            docs, fingerprints, document_fingerprints
        )
        with self.lock.read_locked(), span(
            "label_check", service=service_id, batch=len(docs)
        ) as sp:
            reports = self.tracker.check_documents(
                docs,
                fingerprints=[fps for fps, _doc_fp in resolved],
                document_fingerprints=[doc_fp for _fps, doc_fp in resolved],
            )
            decisions = [
                self._decision_for(
                    policy, service_id, doc_id, paragraphs, report, {}
                )
                for (doc_id, paragraphs), report in zip(docs, reports)
            ]
            sp.set(
                allowed=sum(1 for d in decisions if d.allowed),
                violations=sum(len(d.violations) for d in decisions),
            )
            return decisions

    def _decision_for(
        self,
        policy: ServicePolicy,
        service_id: str,
        doc_id: str,
        paragraphs: Paragraphs,
        report,
        suppressions: Mapping[str, Sequence[Suppression]],
    ) -> FlowDecision:
        """Assemble one document's flow decision from its tracker report.

        The shared core of :meth:`check_upload` and
        :meth:`check_uploads`; the caller holds the read lock.
        """
        violations: List[FlowViolation] = []
        resolved: Dict[str, SegmentLabel] = {}

        for (par_id, _text), (_pid, par_report) in zip(
            paragraphs, report.paragraph_reports
        ):
            label = self._resolve_for_check(
                par_id, par_report.sources, policy, suppressions.get(par_id, ())
            )
            resolved[par_id] = label
            if not label.flows_to(policy.privilege):
                violations.append(
                    FlowViolation(
                        segment_id=par_id,
                        label=label,
                        offending=label.offending_tags(policy.privilege),
                        sources=par_report.sources,
                        granularity="paragraph",
                    )
                )

        doc_sources = (
            report.document_report.sources if report.document_report else ()
        )
        doc_label = self._resolve_for_check(
            doc_id, doc_sources, policy, suppressions.get(doc_id, ())
        )
        resolved[doc_id] = doc_label
        if not doc_label.flows_to(policy.privilege):
            violations.append(
                FlowViolation(
                    segment_id=doc_id,
                    label=doc_label,
                    offending=doc_label.offending_tags(policy.privilege),
                    sources=doc_sources,
                    granularity="document",
                )
            )

        return FlowDecision(
            service_id=service_id,
            allowed=not violations,
            violations=tuple(violations),
            labels=resolved,
        )

    def _resolve_for_check(
        self,
        segment_id: str,
        sources: Tuple[SourceDisclosure, ...],
        policy: ServicePolicy,
        suppressions: Sequence[Suppression],
    ) -> SegmentLabel:
        label = self._labels.get(segment_id)
        if label is None:
            label = SegmentLabel()
        label = label.add_implicit(self._inherited_tags(sources))
        for suppression in suppressions:
            if suppression.tag not in label.full().tags:
                raise SuppressionError(
                    f"tag {suppression.tag.name!r} is not attached to "
                    f"segment {segment_id!r}"
                )
            label = label.suppress(suppression.tag)
            event = SuppressionEvent(
                user=suppression.user,
                tag=suppression.tag,
                segment_id=segment_id,
                justification=suppression.justification,
                timestamp=self._clock.now(),
                target_service=policy.service_id,
            )
            self.audit.record(event)
            if self._journal is not None:
                self._journal.log_suppress(
                    user=event.user,
                    tag=event.tag.name,
                    segment_id=event.segment_id,
                    justification=event.justification,
                    timestamp=event.timestamp,
                    target_service=event.target_service,
                )
        return label

    def commit_upload(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Paragraphs,
        decision: FlowDecision,
        *,
        fingerprints: Optional[Sequence[Fingerprint]] = None,
    ) -> None:
        """Record that an allowed (or overridden) upload happened.

        The resolved labels from the decision — including suppressed
        tags, which stay attached in the target (§3.1) — become the
        stored labels, and the segments are observed as present in the
        target service.

        ``fingerprints`` optionally carries the per-paragraph
        fingerprints (aligned with *paragraphs*) the check was decided
        on, so the committed text is not fingerprinted again.
        """
        if decision.service_id != service_id:
            raise PolicyError(
                f"decision is for {decision.service_id!r}, not {service_id!r}"
            )
        # Resolved (and checked for alignment) before the write lock and
        # before any label is stored, so a misaligned fingerprint list
        # cannot half commit.
        fingerprints, doc_fingerprint = self.tracker.document_fingerprints(
            paragraphs, fingerprints
        )
        with self.lock.write_locked():
            # Once stored, the text is "created within" the target
            # service too, so it additionally carries that service's Lc
            # (§3.1).
            confidentiality = self.policies.get(service_id).confidentiality
            for segment_id, label in decision.labels.items():
                self._store_label(segment_id, label.add_explicit(confidentiality))
                self._locations.setdefault(segment_id, set()).add(service_id)
            self.tracker.observe_document(
                doc_id,
                paragraphs,
                fingerprints=fingerprints,
                document_fingerprint=doc_fingerprint,
            )

    # ------------------------------------------------------------------
    # Custom tags (§3.1)
    # ------------------------------------------------------------------

    def allocate_custom_tag(self, name: str, owner: str) -> Tag:
        """Allocate a user-owned tag via the policy store."""
        return self.policies.allocate_tag(name, owner=owner)

    def add_tag_to_segment(self, segment_id: str, tag, *, user: Optional[str] = None) -> None:
        """Attach a tag to a segment's explicit label.

        Per §3.1, every service that already stores the segment receives
        the tag in its privilege label automatically, so protecting old
        text never cuts off services that legitimately hold it.
        """
        tag = as_tag(tag)
        with self.lock.write_locked():
            label = self.label_of(segment_id).add_explicit([tag])
            self._store_label(segment_id, label)
            for service_id in self.locations_of(segment_id):
                policy = self.policies.get(service_id)
                if tag not in policy.privilege:
                    self.policies.register(policy.with_privilege_tag(tag))
