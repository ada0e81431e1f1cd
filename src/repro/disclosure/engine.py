"""The disclosure engine: Algorithm 1 plus incremental observation.

:class:`DisclosureEngine` tracks one granularity (paragraphs *or*
documents); :class:`DisclosureTracker` composes two engines to implement
the paper's dual-granularity tracking (§4.1): disclosure is significant
when either the document requirement or any paragraph requirement holds.
Every engine keeps its ``DBhash`` in a
:class:`~repro.disclosure.sharding.ShardedHashDatabase` — one shard by
default — so one sweep and one delta apply serve every shard count.
Every mutation a verdict could read stamps what it changed in the
engine's :class:`~repro.disclosure.sharding.StampStore`, which a
tracker shares between its two engines and its model's labels
(DESIGN.md §13).

Concurrency (DESIGN.md §8): every engine operation runs under one
reader–writer lock — queries share it, observations and discards take
it exclusively; the databases take no lock of their own. A tracker
shares *one* lock between its paragraph and document engines so a
dual-granularity check observes both databases at a single consistent
point; the lock is reentrant, so compound tracker operations nest
engine acquisitions safely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.disclosure.metrics import (
    authoritative_disclosure,
    meets_threshold,
    raw_disclosure,
)
from repro.disclosure.sharding import ShardedHashDatabase, StampStore
from repro.disclosure.store import (
    DEFAULT_THRESHOLD,
    SegmentDatabase,
    SegmentRecord,
)
from repro.errors import DisclosureError
from repro.fingerprint import Fingerprint, FingerprintConfig, Fingerprinter
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import span
from repro.util.clock import Clock, LogicalClock
from repro.util.rwlock import RWLock


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise DisclosureError(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class SourceDisclosure:
    """One source segment that a queried segment discloses from.

    Attributes:
        segment_id: the disclosed source segment.
        score: the disclosure value D(source, target) in [0, 1].
        threshold: the source's own disclosure threshold that was met.
        matched_hashes: the hash values common to source (authoritative
            part, when enabled) and target — input for attribution.
        kind: granularity of the source segment.
        doc_id: containing document of a paragraph source, if any.
    """

    segment_id: str
    score: float
    threshold: float
    matched_hashes: FrozenSet[int]
    kind: str = "paragraph"
    doc_id: Optional[str] = None


@dataclass(frozen=True)
class DisclosureReport:
    """Result of one disclosure query at one granularity."""

    target_id: Optional[str]
    sources: Tuple[SourceDisclosure, ...]
    candidates_checked: int = 0

    @property
    def disclosing(self) -> bool:
        return bool(self.sources)

    def source_ids(self) -> List[str]:
        return [s.segment_id for s in self.sources]


class DisclosureEngine:
    """Tracks segments at one granularity and answers Algorithm 1 queries.

    Args:
        config: fingerprinting parameters (paper default: 15/30/32-bit).
        clock: timestamp source for first-observation records; defaults
            to a deterministic logical clock.
        authoritative: apply the §4.3 overlap correction. Disable only
            for the ablation that measures its effect.
        kind: label recorded on segments ("paragraph" or "document").
        lock: reader–writer lock guarding the databases; a private
            one is created when omitted. A tracker passes one
            shared lock to both of its engines.
        registry: metrics registry for the engine's counters, derived
            gauges, and per-stage latency histograms. A private one is
            created when omitted; a tracker shares one registry across
            both granularities (scoped ``engine.paragraph.`` /
            ``engine.document.``). Pass
            :data:`~repro.obs.registry.NULL_REGISTRY` for the
            counters-off path.
        n_shards: hash-range shards of the hash database (DESIGN.md
            §11). One shard, the default, is the paper's single
            ``DBhash``; every shard count gives the same verdicts.
        router: an object with ``map(fn, items)`` that multi-shard
            sweeps hand their per-shard jobs to (e.g. a counting
            :class:`~repro.plugin.router.ShardRouter`).
        stamps: the :class:`~repro.disclosure.sharding.StampStore` the
            engine's mutations stamp; a tracker passes one store to both
            of its engines. A private one is created when omitted.
    """

    def __init__(
        self,
        config: Optional[FingerprintConfig] = None,
        clock: Optional[Clock] = None,
        *,
        authoritative: bool = True,
        kind: str = "paragraph",
        lock: Optional[RWLock] = None,
        registry: Optional[MetricsRegistry] = None,
        n_shards: int = 1,
        router=None,
        stamps: Optional[StampStore] = None,
    ) -> None:
        self._clock = clock or LogicalClock()
        self._authoritative = authoritative
        self._kind = kind
        #: Registry holding every instrument below; ``metrics`` is this
        #: engine's scope within it (one registry may serve several
        #: engines, the shared lock, and the plugin layers above).
        self.registry = registry or MetricsRegistry()
        self.metrics = self.registry.scope(f"engine.{kind}.")
        # The fingerprinter records per-ingest-stage latency under this
        # engine's scope (engine.<kind>.fingerprint.normalize/hash/winnow).
        self._fingerprinter = Fingerprinter(
            config, scope=self.registry.scope(f"engine.{kind}.fingerprint.")
        )
        #: Guards hash_db and segment_db. Queries take the read side;
        #: observe/remove take the write side. The databases themselves
        #: are unsynchronised on purpose — the hot query sweep probes
        #: the hash table once per target hash, and per-call locking
        #: there would cost more than the query.
        self.lock = lock or RWLock(scope=self.registry.scope("lock."))
        self.hash_db = ShardedHashDatabase(
            n_shards,
            hash_bits=self.config.hash_bits,
            scope=self.registry.scope(f"engine.{kind}.shard."),
            router=router,
            stamps=stamps,
        )
        #: What changed, and when (DESIGN.md §13): the hash database
        #: stamps association changes, and :meth:`observe_fingerprint`
        #: and :meth:`set_threshold` stamp record changes.
        self.stamps = self.hash_db.stamps
        self.segment_db = SegmentDatabase()
        # Durability hook: when a journal is attached every mutation is
        # appended to it (inside the write lock, after the in-memory
        # apply) so a WAL replay reconstructs this engine exactly. None
        # keeps the non-durable hot path at a single attribute test.
        self._journal = None
        # Query-path counters (incremented under the read lock, so
        # monotonic but approximate under contention) plus derived
        # gauges over database state (DESIGN.md §8). Under
        # NULL_REGISTRY none of them reports: callers that need sizes
        # read ``len(segment_db)`` and ``len(hash_db)``.
        scope = self.metrics
        self._c_queries = scope.counter("queries")
        self._c_candidates_swept = scope.counter("candidates_swept")
        scope.gauge("segments", fn=lambda: len(self.segment_db))
        scope.gauge("distinct_hashes", fn=lambda: len(self.hash_db))
        scope.gauge(
            "ownership_changes", fn=lambda: self.hash_db.ownership_changes
        )
        scope.gauge("shards", fn=lambda: self.hash_db.n_shards)
        # Per-stage latency histograms (registry clock, fixed buckets).
        self._h_algorithm1 = scope.histogram("algorithm1_seconds")
        self._h_fingerprint = scope.histogram("fingerprint_seconds")

    @property
    def config(self) -> FingerprintConfig:
        return self._fingerprinter.config

    @property
    def fingerprinter(self) -> Fingerprinter:
        return self._fingerprinter

    @property
    def n_shards(self) -> int:
        return self.hash_db.n_shards

    def __len__(self) -> int:
        return len(self.segment_db)

    def fingerprint(self, text: str) -> Fingerprint:
        clock = self.registry.clock
        start = clock.now()
        fingerprint = self._fingerprinter.fingerprint(text)
        self._h_fingerprint.observe(clock.now() - start)
        return fingerprint

    def attach_journal(self, journal) -> None:
        """Journal every mutation to *journal* (a WAL-backed
        :class:`~repro.disclosure.wal.EngineJournal`).

        Must be attached before mutations that need durability and
        detached (:meth:`detach_journal`) during replay, so recovered
        operations are not re-journaled.
        """
        self._journal = journal

    def detach_journal(self) -> None:
        self._journal = None

    # ------------------------------------------------------------------
    # Observation (DB maintenance)
    # ------------------------------------------------------------------

    def observe(
        self,
        segment_id: str,
        text: str,
        *,
        threshold: float = DEFAULT_THRESHOLD,
        doc_id: Optional[str] = None,
    ) -> SegmentRecord:
        """Observe (create or update) a segment from its text."""
        return self.observe_fingerprint(
            segment_id, self.fingerprint(text), threshold=threshold, doc_id=doc_id
        )

    def observe_fingerprint(
        self,
        segment_id: str,
        fingerprint: Fingerprint,
        *,
        threshold: float = DEFAULT_THRESHOLD,
        doc_id: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> SegmentRecord:
        """Observe a segment from a precomputed fingerprint.

        New hashes get first-seen timestamps now; hashes observed before
        keep their original timestamps, so ownership is stable across
        edits and re-observations. The record keeps the fingerprint's
        packed selections and its hash count, not its hash set.

        *timestamp* overrides the logical-clock draw. It exists for WAL
        replay, which must reproduce recorded first-seen times exactly
        (and must not advance the clock); live callers leave it None.

        Raises :class:`~repro.errors.DisclosureError` when *fingerprint*
        was computed under another :class:`FingerprintConfig`: its hashes
        are not comparable with the stored ones and would poison the
        hash database, the WAL and every later snapshot.
        """
        _check_threshold(threshold)
        config = self._fingerprinter.config
        if fingerprint.config is not config and fingerprint.config != config:
            raise DisclosureError(
                f"fingerprint config {fingerprint.config} does not match "
                f"the engine's {config}"
            )
        return self._observe(
            segment_id, fingerprint.flat_selections, fingerprint.hashes,
            threshold, doc_id, timestamp,
        )

    def observe_selections(
        self,
        segment_id: str,
        flat_selections: bytes,
        *,
        threshold: float = DEFAULT_THRESHOLD,
        doc_id: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> SegmentRecord:
        """:meth:`observe_fingerprint` from packed selections alone.

        WAL replay observes this way: a record carries a fingerprint's
        ``flat_selections``, computed under the engine's config, and
        the engine derives the distinct hash values from them without
        building a :class:`Fingerprint`. Raises
        :class:`~repro.errors.DisclosureError` when the bytes are not
        whole ``(value, start, end)`` triples.
        """
        _check_threshold(threshold)
        if len(flat_selections) % 24:
            raise DisclosureError(
                f"selections hold {len(flat_selections)} bytes, not whole "
                "24-byte (value, start, end) triples"
            )
        return self._observe(
            segment_id, flat_selections, None, threshold, doc_id, timestamp
        )

    def _observe(
        self,
        segment_id: str,
        flat: bytes,
        hashes: Optional[Collection[int]],
        threshold: float,
        doc_id: Optional[str],
        timestamp: Optional[float],
    ) -> SegmentRecord:
        """Store *flat* as the segment's selections and apply its hash
        delta. *hashes* are the distinct selection values when the
        caller holds them as a set (a fingerprint's); None derives them
        from *flat*."""
        with self.lock.write_locked():
            now = self._clock.now() if timestamp is None else timestamp
            existing = self.segment_db.find(segment_id)
            count = self._apply_fingerprint_delta(
                segment_id, flat, hashes, existing, now
            )
            kind = self._kind if existing is None else existing.kind
            if doc_id is None and existing is not None:
                doc_id = existing.doc_id
            record = SegmentRecord(
                segment_id, flat, count, self._fingerprinter.config,
                threshold, kind, doc_id, now,
            )
            if existing is not None and (
                count != existing.hash_count
                or existing.threshold != threshold
                or existing.doc_id != doc_id
            ):
                # The threshold pass reads the segment's hash count,
                # threshold and document, so a cached verdict that swept
                # any of its hashes must not survive a change to one of
                # them (§13). Beyond those it reads only the hash
                # associations, and the delta apply has stamped the
                # hashes it added and withdrew, so a same-size edit
                # stamps nothing more.
                self.stamps.stamp(record.hash_values)
            self.segment_db.put(record)
            if self._journal is not None:
                self._journal.log_observe(self._kind, record, now)
            return record

    def _apply_fingerprint_delta(
        self,
        segment_id: str,
        flat: bytes,
        hashes: Optional[Collection[int]],
        existing: Optional[SegmentRecord],
        now: float,
    ) -> int:
        """Record the hashes the segment gained, withdraw the ones it
        lost; returns how many distinct hashes *flat* holds.

        An edit withdraws the segment's claim on hashes it no longer
        contains, so authority migrates to the oldest observer that
        still holds the text (paper Figure 6). The hash database stamps
        the hashes it was handed when an association changed.

        Only the delta is applied. That is exact because the engine
        keeps the hashes each segment ``s`` observes in ``hash_db`` equal
        to the values of ``segment_db[s].flat_selections``, and
        ``HashDatabase.record_fingerprint`` is a no-op for a (hash,
        segment) pair already present: re-recording the unchanged
        hashes would change nothing. Unchanged selections, the common
        re-observation, compare equal as bytes and build no set; an
        edit derives the old hash set from the stored values.
        """
        if existing is not None and flat == existing.flat_selections:
            return existing.hash_count
        if hashes is None:
            hashes = set(memoryview(flat).cast("Q")[0::3])
        if existing is None or not existing.hash_count:
            # A new segment's delta is its whole fingerprint; skipping
            # the set copy keeps the hash table's insertion order.
            added, removed = hashes, ()
        else:
            old = set(existing.hash_values)
            added = hashes - old
            removed = old - hashes
        if added:
            self.hash_db.record_fingerprint(segment_id, added, now)
        if removed:
            self.hash_db.withdraw(segment_id, removed)
        return len(hashes)

    def remove(self, segment_id: str) -> None:
        """Forget a segment entirely, releasing its hash ownership.

        The segment observes exactly its stored selection values, so
        withdrawing those releases every claim it holds.
        """
        with self.lock.write_locked():
            record = self.segment_db.remove(segment_id)
            self.hash_db.withdraw(segment_id, record.hash_values)
            if self._journal is not None:
                self._journal.log_remove(self._kind, segment_id)

    def set_threshold(self, segment_id: str, threshold: float) -> None:
        """Adjust a segment's disclosure threshold (paper §4.2)."""
        _check_threshold(threshold)
        with self.lock.write_locked():
            record = self.segment_db.get(segment_id)
            self.segment_db.put(replace(record, threshold=threshold))
            if threshold != record.threshold:
                self.stamps.stamp(record.hash_values)
            if self._journal is not None:
                self._journal.log_threshold(self._kind, segment_id, threshold)

    # ------------------------------------------------------------------
    # Pairwise disclosure
    # ------------------------------------------------------------------

    def disclosure_between(self, source_id: str, target_id: str) -> float:
        """D(source, target) for two tracked segments (§4.2–§4.3)."""
        with self.lock.read_locked():
            source = self.segment_db.get(source_id)
            target = self.segment_db.get(target_id).fingerprint
            if self._authoritative:
                return authoritative_disclosure(source, target, self.hash_db)
            return raw_disclosure(source.fingerprint, target)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def disclosing_sources(
        self,
        target_id: Optional[str] = None,
        *,
        fingerprint: Optional[Fingerprint] = None,
        exclude_doc: Optional[str] = None,
    ) -> DisclosureReport:
        """Source segments that the target discloses (Algorithm 1).

        Pass either the id of a tracked segment, or a standalone
        ``fingerprint`` for a segment not (yet) in the database.
        ``exclude_doc`` skips sources in the given document, used so a
        paragraph is not reported as disclosing its own document.

        One sweep of the target's hashes over the hash database's
        indexes (:meth:`ShardedHashDatabase.sweep`) accumulates
        per-owner matched-hash counts in O(|F(target)|) (authoritative
        mode; O(matching observations) otherwise), then
        :meth:`_threshold_pass` applies Algorithm 1's quick discard and
        threshold checks to the counts — no per-candidate set
        intersections.
        """
        if (target_id is None) == (fingerprint is None):
            raise DisclosureError("pass exactly one of target_id or fingerprint")
        with self.lock.read_locked():
            self._c_queries.inc()
            with span("algorithm1", granularity=self._kind) as sp:
                if target_id is not None:
                    fingerprint = self.segment_db.get(target_id).fingerprint
                assert fingerprint is not None
                clock = self.registry.clock
                start = clock.now()
                matched = self.hash_db.sweep(
                    fingerprint.hashes, authoritative=self._authoritative
                )
                self._c_candidates_swept.inc(len(matched))
                report = self._threshold_pass(
                    target_id, fingerprint, exclude_doc, matched
                )
                self._h_algorithm1.observe(clock.now() - start)
                sp.set(
                    cache_hit=False,
                    target_hashes=len(fingerprint.hashes),
                    candidates_checked=report.candidates_checked,
                    sources=len(report.sources),
                )
                return report

    def disclosing_sources_many(
        self,
        queries: Sequence[Tuple[Fingerprint, Optional[str]]],
    ) -> List[DisclosureReport]:
        """Batched Algorithm 1 over standalone fingerprints.

        *queries* is a sequence of ``(fingerprint, exclude_doc)`` pairs;
        the result list is aligned with it. Equivalent to calling
        :meth:`disclosing_sources` once per query (the threshold pass is
        the same code), but the whole batch shares one lock acquisition,
        one trace span, and one fused sweep: the union of the queries'
        hashes is probed once per distinct hash and matches are
        redistributed to the queries that contained them
        (:meth:`ShardedHashDatabase.sweep_many`).
        """
        if not queries:
            return []
        with self.lock.read_locked():
            self._c_queries.inc(len(queries))
            with span(
                "algorithm1", granularity=self._kind, batch=len(queries)
            ) as sp:
                clock = self.registry.clock
                start = clock.now()
                matched_list = self.hash_db.sweep_many(
                    [fingerprint.hashes for fingerprint, _excl in queries],
                    authoritative=self._authoritative,
                )
                candidates = 0
                reports: List[DisclosureReport] = []
                for (fingerprint, exclude_doc), matched in zip(
                    queries, matched_list
                ):
                    candidates += len(matched)
                    reports.append(
                        self._threshold_pass(
                            None, fingerprint, exclude_doc, matched
                        )
                    )
                self._c_candidates_swept.inc(candidates)
                self._h_algorithm1.observe(clock.now() - start)
                sp.set(
                    cache_hit=False,
                    candidates_checked=candidates,
                    sources=sum(len(r.sources) for r in reports),
                )
                return reports

    def _threshold_pass(
        self,
        target_id: Optional[str],
        fingerprint: Fingerprint,
        exclude_doc: Optional[str],
        matched: Dict[str, List[int]],
    ) -> DisclosureReport:
        """Algorithm 1's quick-discard + threshold test over swept counts.

        *matched* maps each candidate owner to the target hashes it
        counted during the sweep, merged across shards; the merge
        concatenates disjoint per-shard lists, which is what makes every
        shard count give the same report.
        """
        results: List[SourceDisclosure] = []
        checked = 0
        target_size = len(fingerprint)
        for owner, owner_matched in matched.items():
            count = len(owner_matched)
            if owner == target_id:
                continue
            source = self.segment_db.find(owner)
            if source is None:
                # Historical owner whose segment was since removed.
                continue
            if exclude_doc is not None and (
                source.doc_id == exclude_doc or source.segment_id == exclude_doc
            ):
                continue
            checked += 1
            t = source.threshold
            origin_size = source.hash_count
            # Quick discard from Algorithm 1: if the origin fingerprint
            # is so large that even a full overlap with the target could
            # not reach the threshold, skip it.
            if origin_size * t > target_size:
                continue
            if origin_size == 0:
                continue
            score = count / origin_size
            if score > 0.0 and meets_threshold(score, t):
                results.append(
                    SourceDisclosure(
                        segment_id=source.segment_id,
                        score=score,
                        threshold=t,
                        matched_hashes=frozenset(owner_matched),
                        kind=source.kind,
                        doc_id=source.doc_id,
                    )
                )
        results.sort(key=lambda s: (-s.score, s.segment_id))
        return DisclosureReport(
            target_id=target_id, sources=tuple(results), candidates_checked=checked
        )


@dataclass(frozen=True)
class TrackerReport:
    """Combined dual-granularity disclosure result (paper §4.1/§4.2)."""

    paragraph_reports: Tuple[Tuple[str, DisclosureReport], ...]
    document_report: Optional[DisclosureReport] = None

    @property
    def disclosing(self) -> bool:
        if self.document_report is not None and self.document_report.disclosing:
            return True
        return any(r.disclosing for _pid, r in self.paragraph_reports)

    def all_sources(self) -> List[SourceDisclosure]:
        out: List[SourceDisclosure] = []
        if self.document_report is not None:
            out.extend(self.document_report.sources)
        for _pid, report in self.paragraph_reports:
            out.extend(report.sources)
        return out


class DisclosureTracker:
    """Dual-granularity tracking: paragraphs and whole documents.

    The paper tracks both independently so that leaking one sentence from
    each of many paragraphs is still caught by the document requirement,
    while leaking one whole paragraph is caught by the paragraph
    requirement even inside a large document.
    """

    def __init__(
        self,
        config: Optional[FingerprintConfig] = None,
        clock: Optional[Clock] = None,
        *,
        paragraph_threshold: float = DEFAULT_THRESHOLD,
        document_threshold: float = DEFAULT_THRESHOLD,
        authoritative: bool = True,
        registry: Optional[MetricsRegistry] = None,
        n_shards: int = 1,
        router=None,
    ) -> None:
        """``n_shards`` hash-range partitions both engines' hash
        databases into that many shards (one, the default, is the
        paper's single ``DBhash``); ``router`` (an object with a
        ``map(fn, items)`` method, e.g.
        :class:`~repro.plugin.router.ShardRouter`) is handed to both
        engines, whose multi-shard sweeps pass it their per-shard jobs.
        """
        #: One clock for both engines (and the model that owns this
        #: tracker): first-seen records and audit events share a
        #: timeline, which :meth:`resume_clock` advances in place.
        self.clock = clock or LogicalClock()
        # One config object for both engines, so a paragraph fingerprint
        # reused at document granularity passes the engine's config check
        # on identity alone.
        config = config or FingerprintConfig()
        #: One registry for both granularities (and the shared lock):
        #: ``engine.paragraph.*`` and ``engine.document.*`` instruments
        #: land side by side in one snapshot.
        self.registry = registry or MetricsRegistry()
        #: One lock for both granularities: a dual-granularity check or
        #: observation is atomic with respect to concurrent updates.
        self.lock = RWLock(scope=self.registry.scope("lock."))
        #: One stamp store for both granularities and the model's label
        #: store, so a cached one-paragraph verdict validates in one
        #: pass over its hashes (DESIGN.md §13).
        self.stamps = StampStore()
        self.paragraphs, self.documents = (
            DisclosureEngine(
                config,
                self.clock,
                authoritative=authoritative,
                kind=kind,
                lock=self.lock,
                registry=self.registry,
                n_shards=n_shards,
                router=router,
                stamps=self.stamps,
            )
            for kind in ("paragraph", "document")
        )
        self._paragraph_threshold = paragraph_threshold
        self._document_threshold = document_threshold

    @property
    def paragraph_threshold(self) -> float:
        return self._paragraph_threshold

    @property
    def document_threshold(self) -> float:
        return self._document_threshold

    def resume_clock(self, after: float) -> None:
        """Advance the shared logical clock strictly past *after*.

        WAL replay applies recorded timestamps without advancing the
        tracker's clock; a standby that is promoted to primary (or a
        tracker rebuilt by recovery) calls this so its first live
        observation cannot time-travel before — and steal authoritative
        ownership from — anything already replayed. The clock object is
        advanced in place, so both engines and the model that shares it
        (whose audit events it stamps) move together.
        """
        self.clock.advance_past(after)

    def stamp_segment(self, segment_id: str) -> None:
        """Stamp a change to what a verdict reads about *segment_id*
        outside the hash databases: its label.

        Stamps the hashes of the segment's records in both engines (a
        verdict that matched it as a source swept one of them) and the
        segment's own stamp (a verdict for an upload of the segment
        read its label). Call under the write lock.
        """
        records = [
            engine.segment_db.find(segment_id)
            for engine in (self.paragraphs, self.documents)
        ]
        self.stamps.stamp_segment(
            segment_id,
            chain.from_iterable(
                record.hash_values for record in records if record is not None
            ),
        )

    def document_fingerprints(
        self,
        paragraphs: Sequence[Tuple[str, str]],
        fingerprints: Optional[Sequence[Optional[Fingerprint]]] = None,
        document_fingerprint: Optional[Fingerprint] = None,
    ) -> Tuple[Sequence[Fingerprint], Fingerprint]:
        """Per-paragraph and document fingerprints of one document.

        The one home of the document-granularity rule: the document
        fingerprint covers the ``"\\n\\n"`` join of the paragraph texts,
        and a one-paragraph document's text *is* its paragraph's text,
        so that paragraph's fingerprint is reused instead of computed
        again.

        *fingerprints* (aligned with *paragraphs*; ``None`` slots are
        missing) and *document_fingerprint* are used when given, so a
        caller that already fingerprinted the text (the plug-in's edit
        buffer, or a check that precedes an observe) pays nothing here.
        Whatever is missing, paragraphs and joined text alike, is
        computed in one ``Fingerprinter.fingerprint_many`` pass.
        Fingerprinting reads no database state, so callers run this
        before they take the lock.
        Raises :class:`~repro.errors.DisclosureError` when
        *fingerprints* is not aligned with *paragraphs*.
        """
        if fingerprints is None:
            fingerprints = [None] * len(paragraphs)
        elif len(fingerprints) != len(paragraphs):
            raise DisclosureError(
                f"got {len(fingerprints)} fingerprints for "
                f"{len(paragraphs)} paragraphs"
            )
        missing = [i for i, fp in enumerate(fingerprints) if fp is None]
        texts = [paragraphs[i][1] for i in missing]
        join = document_fingerprint is None and len(paragraphs) != 1
        if join:
            texts.append("\n\n".join(text for _pid, text in paragraphs))
        if texts:
            computed = self.paragraphs.fingerprinter.fingerprint_many(texts)
            if missing:
                fingerprints = list(fingerprints)
                for i, fp in zip(missing, computed):
                    fingerprints[i] = fp
            if join:
                document_fingerprint = computed[-1]
        if document_fingerprint is None:
            document_fingerprint = fingerprints[0]
        return fingerprints, document_fingerprint  # type: ignore[return-value]

    def fingerprint_documents(
        self,
        docs: Sequence[Tuple[str, Sequence[Tuple[str, str]]]],
        fingerprints: Optional[Sequence[Optional[Sequence]]] = None,
        document_fingerprints: Optional[Sequence[Optional[Fingerprint]]] = None,
    ) -> List[Tuple[Sequence[Fingerprint], Fingerprint]]:
        """:meth:`document_fingerprints` of each of *docs*.

        *fingerprints* and *document_fingerprints*, when given, align
        with *docs*; raises :class:`~repro.errors.DisclosureError` when
        either does not.
        """
        for given, what in (
            (fingerprints, "fingerprint lists"),
            (document_fingerprints, "document fingerprints"),
        ):
            if given is not None and len(given) != len(docs):
                raise DisclosureError(
                    f"got {len(given)} {what} for {len(docs)} documents"
                )
        return [
            self.document_fingerprints(
                paragraphs,
                None if fingerprints is None else fingerprints[i],
                None if document_fingerprints is None else document_fingerprints[i],
            )
            for i, (_doc_id, paragraphs) in enumerate(docs)
        ]

    def observe_document(
        self,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
        *,
        paragraph_threshold: Optional[float] = None,
        document_threshold: Optional[float] = None,
        fingerprints: Optional[Sequence[Fingerprint]] = None,
        document_fingerprint: Optional[Fingerprint] = None,
    ) -> None:
        """Observe a document given (paragraph_id, text) pairs.

        Paragraph ids must be stable across edits (in the plugin they are
        DOM node ids); the document fingerprint covers the concatenation.

        ``fingerprints`` and ``document_fingerprint`` optionally carry
        fingerprints the caller already computed for *paragraphs*, as
        for :meth:`check_document`; see :meth:`document_fingerprints`.
        """
        p_thresh = (
            paragraph_threshold
            if paragraph_threshold is not None
            else self._paragraph_threshold
        )
        d_thresh = (
            document_threshold
            if document_threshold is not None
            else self._document_threshold
        )
        fingerprints, document_fingerprint = self.document_fingerprints(
            paragraphs, fingerprints, document_fingerprint
        )
        with self.lock.write_locked():
            for (par_id, _text), fp in zip(paragraphs, fingerprints):
                self.paragraphs.observe_fingerprint(
                    par_id, fp, threshold=p_thresh, doc_id=doc_id
                )
            self.documents.observe_fingerprint(
                doc_id, document_fingerprint, threshold=d_thresh
            )

    def check_document(
        self,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
        *,
        fingerprints: Optional[Sequence[Fingerprint]] = None,
        document_fingerprint: Optional[Fingerprint] = None,
    ) -> TrackerReport:
        """Query, without observing, what a document would disclose.

        Each paragraph is checked against the paragraph engine and the
        whole text against the document engine; the document itself and
        its own paragraphs are excluded as sources.

        ``fingerprints`` optionally carries precomputed per-paragraph
        fingerprints aligned with *paragraphs*, and
        ``document_fingerprint`` the document's (see
        :meth:`document_fingerprints`): the lookup path passes the ones
        it keyed its caches on, and page ingest the ones it is about to
        store, so each text is fingerprinted once per request.
        """
        fingerprints, doc_fp = self.document_fingerprints(
            paragraphs, fingerprints, document_fingerprint
        )
        par_reports = []
        with self.lock.read_locked():
            for (par_id, _text), fp in zip(paragraphs, fingerprints):
                report = self.paragraphs.disclosing_sources(
                    fingerprint=fp, exclude_doc=doc_id
                )
                par_reports.append((par_id, report))
            doc_report = self.documents.disclosing_sources(
                fingerprint=doc_fp, exclude_doc=doc_id
            )
        # A document must not be reported as disclosing itself.
        doc_report = DisclosureReport(
            target_id=None,
            sources=tuple(
                s for s in doc_report.sources if s.segment_id != doc_id
            ),
            candidates_checked=doc_report.candidates_checked,
        )
        return TrackerReport(
            paragraph_reports=tuple(par_reports), document_report=doc_report
        )

    def check_documents(
        self,
        docs: Sequence[Tuple[str, Sequence[Tuple[str, str]]]],
        *,
        fingerprints: Optional[Sequence[Optional[Sequence]]] = None,
        document_fingerprints: Optional[Sequence[Optional[Fingerprint]]] = None,
    ) -> List[TrackerReport]:
        """Batched :meth:`check_document`: same reports, fused queries.

        All documents' paragraph queries go to the paragraph engine in
        one :meth:`~DisclosureEngine.disclosing_sources_many` call (and
        likewise the document-granularity queries), so the whole batch
        shares two engine lock acquisitions and two fused sweeps instead
        of two per document. One tracker read lock covers the batch: all
        reports describe the same database state.

        ``fingerprints`` optionally carries per-document lists of
        precomputed paragraph fingerprints, and ``document_fingerprints``
        the documents' own, both aligned with *docs* (see
        :meth:`fingerprint_documents`).
        """
        resolved = self.fingerprint_documents(
            docs, fingerprints, document_fingerprints
        )
        with self.lock.read_locked():
            par_queries: List[Tuple[Fingerprint, Optional[str]]] = []
            doc_queries: List[Tuple[Fingerprint, Optional[str]]] = []
            for (doc_id, _paragraphs), (fps, doc_fp) in zip(docs, resolved):
                for fp in fps:
                    par_queries.append((fp, doc_id))
                doc_queries.append((doc_fp, doc_id))
            par_flat = self.paragraphs.disclosing_sources_many(par_queries)
            doc_flat = self.documents.disclosing_sources_many(doc_queries)
        reports: List[TrackerReport] = []
        cursor = 0
        for (doc_id, paragraphs), doc_report in zip(docs, doc_flat):
            par_reports = tuple(
                (par_id, report)
                for (par_id, _text), report in zip(
                    paragraphs, par_flat[cursor : cursor + len(paragraphs)]
                )
            )
            cursor += len(paragraphs)
            doc_report = DisclosureReport(
                target_id=None,
                sources=tuple(
                    s for s in doc_report.sources if s.segment_id != doc_id
                ),
                candidates_checked=doc_report.candidates_checked,
            )
            reports.append(
                TrackerReport(
                    paragraph_reports=par_reports, document_report=doc_report
                )
            )
        return reports

    def remove_document(self, doc_id: str) -> None:
        """Forget a document and all of its paragraphs."""
        with self.lock.write_locked():
            for record in self.documents.segment_db.in_document(doc_id):
                self.documents.remove(record.segment_id)
            if self.documents.segment_db.find(doc_id) is not None:
                self.documents.remove(doc_id)
            for record in self.paragraphs.segment_db.in_document(doc_id):
                self.paragraphs.remove(record.segment_id)
