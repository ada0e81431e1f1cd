"""The disclosure engine: Algorithm 1 plus incremental observation.

:class:`DisclosureEngine` tracks one granularity (paragraphs *or*
documents); :class:`DisclosureTracker` composes two engines to implement
the paper's dual-granularity tracking (§4.1): disclosure is significant
when either the document requirement or any paragraph requirement holds.

Concurrency (DESIGN.md §8): every engine operation runs under a
reader–writer lock — queries share it, observations and discards take
it exclusively. A tracker shares *one* lock between its paragraph and
document engines so a dual-granularity check observes both databases at
a single consistent point; the lock is reentrant, so compound tracker
operations nest engine acquisitions safely. The epoch-keyed caches
(query cache, authoritative-set cache) are read *and* revalidated while
the lock is held, which is what makes a concurrently-updated epoch
unable to slip between validation and use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.disclosure.metrics import meets_threshold, raw_disclosure
from repro.disclosure.store import (
    DEFAULT_THRESHOLD,
    HashDatabase,
    SegmentDatabase,
    SegmentRecord,
)
from repro.errors import DisclosureError
from repro.fingerprint import Fingerprint, FingerprintConfig, Fingerprinter
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import span
from repro.util.clock import Clock, LogicalClock
from repro.util.rwlock import RWLock


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
        lock: reader–writer lock guarding the databases and caches; a
            private one is created when omitted. A tracker passes one
            shared lock to both of its engines.
        registry: metrics registry for the engine's counters, derived
            gauges, and per-stage latency histograms. A private one is
            created when omitted; a tracker shares one registry across
            both granularities (scoped ``engine.paragraph.`` /
            ``engine.document.``). Pass
            :data:`~repro.obs.registry.NULL_REGISTRY` for the
            counters-off path.
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
        #: Guards hash_db, segment_db, and the engine caches. Queries
        #: take the read side; observe/remove take the write side. The
        #: databases themselves are unsynchronised on purpose — the hot
        #: query sweep calls ``oldest_owner`` once per target hash, and
        #: per-call locking there would cost more than the query.
        self.lock = lock or RWLock(scope=self.registry.scope("lock."))
        self.hash_db = HashDatabase()
        self.segment_db = SegmentDatabase()
        # Durability hook: when a journal is attached every mutation is
        # appended to it (inside the write lock, after the in-memory
        # apply) so a WAL replay reconstructs this engine exactly. None
        # keeps the non-durable hot path at a single attribute test.
        self._journal = None
        # Bumped whenever a new (hash, segment) observation lands; lets
        # the query cache stay valid across no-op re-observations, which
        # is what makes per-keystroke queries cheap (paper §6.2).
        self._version = 0
        self._query_cache: Dict[str, Tuple[int, FrozenSet[int], DisclosureReport]] = {}
        # segment → (owner epoch, frozen authoritative set). Valid while
        # the hash database's owned set for the segment is unchanged:
        # any ownership migration bumps the epoch, and fingerprint edits
        # that could alter the set always move ownership too.
        self._auth_cache: Dict[str, Tuple[int, FrozenSet[int]]] = {}
        # Query-path counters (incremented under the read lock, so
        # monotonic but approximate under contention, as before) plus
        # derived gauges over database state. Legacy ``stats()`` reads
        # these same instruments — the field-identity contract.
        scope = self.metrics
        self._c_queries = scope.counter("queries")
        self._c_query_cache_hits = scope.counter("query_cache_hits")
        self._c_candidates_swept = scope.counter("candidates_swept")
        self._c_auth_cache_hits = scope.counter("auth_cache_hits")
        self._c_auth_cache_misses = scope.counter("auth_cache_misses")
        scope.gauge("segments", fn=lambda: len(self.segment_db))
        scope.gauge("distinct_hashes", fn=lambda: len(self.hash_db))
        scope.gauge("version", fn=lambda: self._version)
        scope.gauge(
            "ownership_changes", fn=lambda: self.hash_db.ownership_changes
        )
        # Per-stage latency histograms (registry clock, fixed buckets).
        self._h_algorithm1 = scope.histogram("algorithm1_seconds")
        self._h_fingerprint = scope.histogram("fingerprint_seconds")

    @property
    def config(self) -> FingerprintConfig:
        return self._fingerprinter.config

    @property
    def fingerprinter(self) -> Fingerprinter:
        return self._fingerprinter

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
        edits and re-observations.

        *timestamp* overrides the logical-clock draw. It exists for WAL
        replay, which must reproduce recorded first-seen times exactly
        (and must not advance the clock); live callers leave it None.

        Raises :class:`~repro.errors.DisclosureError` when *fingerprint*
        was computed under another :class:`FingerprintConfig`: its hashes
        are not comparable with the stored ones and would poison the
        hash database, the WAL and every later snapshot.
        """
        if not 0.0 <= threshold <= 1.0:
            raise DisclosureError(f"threshold must be in [0, 1], got {threshold}")
        config = self._fingerprinter.config
        if fingerprint.config is not config and fingerprint.config != config:
            raise DisclosureError(
                f"fingerprint config {fingerprint.config} does not match "
                f"the engine's {config}"
            )
        with self.lock.write_locked():
            now = self._clock.now() if timestamp is None else timestamp
            existing = self.segment_db.find(segment_id)
            changed = self._apply_fingerprint_delta(
                segment_id,
                fingerprint.hashes,
                existing.fingerprint.hashes if existing is not None else frozenset(),
                now,
            )
            if changed:
                self._version += 1
            if existing is not None:
                record = SegmentRecord(
                    segment_id=segment_id,
                    fingerprint=fingerprint,
                    threshold=threshold,
                    kind=existing.kind,
                    doc_id=doc_id if doc_id is not None else existing.doc_id,
                    last_updated=now,
                )
            else:
                record = SegmentRecord(
                    segment_id=segment_id,
                    fingerprint=fingerprint,
                    threshold=threshold,
                    kind=self._kind,
                    doc_id=doc_id,
                    last_updated=now,
                )
            self.segment_db.put(record)
            if self._journal is not None:
                self._journal.log_observe(self._kind, record, now)
            return record

    def _apply_fingerprint_delta(
        self,
        segment_id: str,
        new_hashes: FrozenSet[int],
        old_hashes: FrozenSet[int],
        now: float,
    ) -> bool:
        """Record the hashes the segment gained, withdraw the ones it lost.

        An edit withdraws the segment's claim on hashes it no longer
        contains, so authority migrates to the oldest observer that
        still holds the text (paper Figure 6). Returns True when any
        (hash, segment) association actually changed. The sharded
        engine overrides this with batched per-shard application.

        Only the delta is applied. That is exact because the engine
        keeps ``hash_db.hashes_of(s) == segment_db[s].fingerprint.hashes``
        for every segment ``s``, and ``HashDatabase.record`` is a no-op
        for a (hash, segment) pair already present: re-recording the
        unchanged hashes would change nothing.
        """
        # A new segment's delta is its whole fingerprint; skipping the
        # set copy keeps the hash table's insertion order as it was.
        added = new_hashes - old_hashes if old_hashes else new_hashes
        changed = False
        record = self.hash_db.record
        for h in added:
            if record(h, segment_id, now):
                changed = True
        remove = self.hash_db.remove_observation
        for h in old_hashes - new_hashes:
            if remove(h, segment_id):
                changed = True
        return changed

    def remove(self, segment_id: str) -> None:
        """Forget a segment entirely, releasing its hash ownership."""
        with self.lock.write_locked():
            self.segment_db.remove(segment_id)
            if self.hash_db.discard_segment(segment_id):
                self._version += 1
            self._query_cache.pop(segment_id, None)
            self._auth_cache.pop(segment_id, None)
            if self._journal is not None:
                self._journal.log_remove(self._kind, segment_id)

    def set_threshold(self, segment_id: str, threshold: float) -> None:
        """Adjust a segment's disclosure threshold (paper §4.2)."""
        if not 0.0 <= threshold <= 1.0:
            raise DisclosureError(f"threshold must be in [0, 1], got {threshold}")
        with self.lock.write_locked():
            record = self.segment_db.get(segment_id)
            self.segment_db.put(
                SegmentRecord(
                    segment_id=record.segment_id,
                    fingerprint=record.fingerprint,
                    threshold=threshold,
                    kind=record.kind,
                    doc_id=record.doc_id,
                    last_updated=record.last_updated,
                )
            )
            if self._journal is not None:
                self._journal.log_threshold(self._kind, segment_id, threshold)

    def version_epoch(self, hashes) -> object:
        """Opaque, hashable epoch token for a check over *hashes*.

        *hashes* may be ``None`` when the caller cannot route the check
        (e.g. a document-granularity check whose joined fingerprint is
        unknown); implementations must then return a global token.

        Two tokens compare equal only if no mutation that could change a
        verdict for a target with these hashes happened in between —
        the contract the epoch-memoized verdict cache (DESIGN.md §13)
        keys on. The unsharded engine returns its global version counter
        (every changed observe/remove invalidates everything); the
        sharded engine overrides this with a per-shard token so
        mutations on untouched shards keep cached verdicts valid. Call
        under the engine lock so the token and the verdict it guards see
        the same state.
        """
        return self._version

    # ------------------------------------------------------------------
    # Pairwise disclosure
    # ------------------------------------------------------------------

    def disclosure_between(self, source_id: str, target_id: str) -> float:
        """D(source, target) for two tracked segments."""
        with self.lock.read_locked():
            source = self.segment_db.get(source_id)
            target = self.segment_db.get(target_id)
            return self._score(source, target.fingerprint)

    def _score(self, source: SegmentRecord, target: Fingerprint) -> float:
        if self._authoritative:
            total = len(source.fingerprint)
            if total == 0:
                return 0.0
            auth = self.authoritative_set(source)
            return len(auth & target.hashes) / total
        return raw_disclosure(source.fingerprint, target)

    def authoritative_set(self, source: SegmentRecord) -> FrozenSet[int]:
        """The §4.3 authoritative hash set of *source*, cached.

        Served from a per-segment cache keyed on the hash database's
        ownership epoch, so repeated queries cost O(1) instead of
        rescanning the segment's fingerprint. The owned-hashes index is
        intersected with the current fingerprint on a miss, which keeps
        the result correct even if the databases were populated outside
        this engine (e.g. hand-built in tests).

        Epoch read, validation, and (on a miss) recomputation all happen
        under the read lock, so a concurrent ownership migration — which
        needs the write lock — cannot invalidate the entry mid-use.
        """
        segment_id = source.segment_id
        with self.lock.read_locked():
            epoch = self.hash_db.owner_epoch(segment_id)
            cached = self._auth_cache.get(segment_id)
            if cached is not None and cached[0] == epoch:
                self._c_auth_cache_hits.inc()
                return cached[1]
            self._c_auth_cache_misses.inc()
            auth = frozenset(
                self.hash_db.owned_hashes(segment_id) & source.fingerprint.hashes
            )
            self._auth_cache[segment_id] = (epoch, auth)
            return auth

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
        """
        if (target_id is None) == (fingerprint is None):
            raise DisclosureError("pass exactly one of target_id or fingerprint")
        with self.lock.read_locked():
            self._c_queries.inc()
            with span("algorithm1", granularity=self._kind) as sp:
                if target_id is not None:
                    fingerprint = self.segment_db.get(target_id).fingerprint
                    cached = self._query_cache.get(target_id)
                    if (
                        cached is not None
                        and cached[0] == self._version
                        and cached[1] == fingerprint.hashes
                    ):
                        self._c_query_cache_hits.inc()
                        sp.set(cache_hit=True, sources=len(cached[2].sources))
                        return cached[2]
                assert fingerprint is not None

                clock = self.registry.clock
                start = clock.now()
                report = self._run_algorithm(target_id, fingerprint, exclude_doc)
                self._h_algorithm1.observe(clock.now() - start)
                if target_id is not None:
                    self._query_cache[target_id] = (
                        self._version,
                        fingerprint.hashes,
                        report,
                    )
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
        (:meth:`_sweep_targets`). The per-target query cache does not
        apply — batch queries are standalone fingerprints with no
        ``target_id`` to key on.
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
                matched_list = self._sweep_targets(
                    [fingerprint.hashes for fingerprint, _excl in queries]
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

    def disclosing_sources_reference(
        self,
        target_id: Optional[str] = None,
        *,
        fingerprint: Optional[Fingerprint] = None,
        exclude_doc: Optional[str] = None,
    ) -> DisclosureReport:
        """Algorithm 1 via the naive per-candidate scan, uncached.

        The pre-index implementation, retained as the behavioural
        reference: it recomputes oldest owners from the raw observation
        maps and intersects full fingerprints per candidate. Differential
        tests assert :meth:`disclosing_sources` returns identical
        reports; benchmarks use it for before/after comparisons.
        """
        if (target_id is None) == (fingerprint is None):
            raise DisclosureError("pass exactly one of target_id or fingerprint")
        with self.lock.read_locked():
            if target_id is not None:
                fingerprint = self.segment_db.get(target_id).fingerprint
            assert fingerprint is not None
            return self._run_algorithm_reference(target_id, fingerprint, exclude_doc)

    # ------------------------------------------------------------------
    # Indexed single-sweep query (the hot path)
    # ------------------------------------------------------------------

    def _run_algorithm(
        self,
        target_id: Optional[str],
        fingerprint: Fingerprint,
        exclude_doc: Optional[str],
    ) -> DisclosureReport:
        """One sweep over the target's hashes against the inverted index.

        Accumulates per-owner matched-hash counts in O(|F(target)|)
        (authoritative mode; O(matching observations) otherwise), then
        applies Algorithm 1's quick discard and threshold checks to the
        accumulated counts — no per-candidate set intersections.
        """
        matched: Dict[str, List[int]] = {}
        if self._authoritative:
            # Under §4.3 only a hash's oldest owner may count it towards
            # its own disclosure, so one O(1) owner lookup per hash
            # replaces the per-candidate authoritative-set intersection.
            oldest_owner = self.hash_db.oldest_owner
            for h in fingerprint.hashes:
                owner = oldest_owner(h)
                if owner is None:
                    continue
                if owner in matched:
                    matched[owner].append(h)
                else:
                    matched[owner] = [h]
        else:
            observers = self.hash_db.observers
            for h in fingerprint.hashes:
                for owner in observers(h):
                    if owner in matched:
                        matched[owner].append(h)
                    else:
                        matched[owner] = [h]
        self._c_candidates_swept.inc(len(matched))
        return self._threshold_pass(target_id, fingerprint, exclude_doc, matched)

    def _sweep_targets(
        self, targets: Sequence[FrozenSet[int]]
    ) -> List[Dict[str, List[int]]]:
        """Fused sweep for a batch of targets; one matched dict each.

        Builds the union of the targets' hashes, probes the inverted
        index once per *distinct* hash, and redistributes each match to
        every target that contained the hash — so a batch of uploads
        sharing phrasing pays for the shared hashes once. Per-target
        results are exactly what the per-target sweep would produce
        (ownership of a hash does not depend on which batch asked).

        The sharded engine overrides this with the scatter/gather
        equivalent over its shards.
        """
        matched_list: List[Dict[str, List[int]]] = [{} for _ in targets]
        # hash -> owning target index, promoted to a list only when the
        # hash appears in more than one target (the common case is one).
        items_of: Dict[int, object] = {}
        get = items_of.get
        for i, target in enumerate(targets):
            for h in target:
                prev = get(h)
                if prev is None:
                    items_of[h] = i
                elif type(prev) is list:
                    prev.append(i)
                else:
                    items_of[h] = [prev, i]

        def credit(h: int, owner: str) -> None:
            entry = items_of[h]
            if type(entry) is int:
                item_ids = (entry,)
            else:
                item_ids = entry
            for i in item_ids:
                matched = matched_list[i]
                if owner in matched:
                    matched[owner].append(h)
                else:
                    matched[owner] = [h]

        if self._authoritative:
            oldest_owner = self.hash_db.oldest_owner
            for h in items_of:
                owner = oldest_owner(h)
                if owner is not None:
                    credit(h, owner)
        else:
            observers = self.hash_db.observers
            for h in items_of:
                for owner in observers(h):
                    credit(h, owner)
        return matched_list

    def _threshold_pass(
        self,
        target_id: Optional[str],
        fingerprint: Fingerprint,
        exclude_doc: Optional[str],
        matched: Dict[str, List[int]],
    ) -> DisclosureReport:
        """Algorithm 1's quick-discard + threshold test over swept counts.

        *matched* maps each candidate owner to the target hashes it
        counted during the sweep; the sharded engine reuses this pass
        verbatim after merging per-shard counts, which is what makes the
        router's merge rule provably equivalent to the single sweep.
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
            origin_size = len(source.fingerprint)
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

    # ------------------------------------------------------------------
    # Reference implementation (pre-index, kept for differential tests)
    # ------------------------------------------------------------------

    def _authoritative_hashes_reference(self, record: SegmentRecord) -> FrozenSet[int]:
        """§4.3 authoritative set recomputed from raw observations."""
        db = self.hash_db
        return frozenset(
            h
            for h in record.fingerprint.hashes
            if db.recompute_oldest_owner(h) == record.segment_id
        )

    def _score_reference(self, source: SegmentRecord, target: Fingerprint) -> float:
        if self._authoritative:
            total = len(source.fingerprint)
            if total == 0:
                return 0.0
            auth = self._authoritative_hashes_reference(source)
            return len(auth & target.hashes) / total
        return raw_disclosure(source.fingerprint, target)

    def _candidates_reference(self, fingerprint: Fingerprint) -> Iterable[str]:
        """Candidate source ids sharing at least one hash with the query.

        With the authoritative correction, only a hash's oldest owner can
        count that hash towards its own disclosure, so inspecting oldest
        owners (as in the paper's pseudocode) loses nothing. Without the
        correction every observer is a candidate.
        """
        seen = set()
        for h in fingerprint.hashes:
            if self._authoritative:
                owner = self.hash_db.recompute_oldest_owner(h)
                if owner is not None and owner not in seen:
                    seen.add(owner)
                    yield owner
            else:
                for owner, _ts in self.hash_db.owners(h):
                    if owner not in seen:
                        seen.add(owner)
                        yield owner

    def _run_algorithm_reference(
        self,
        target_id: Optional[str],
        fingerprint: Fingerprint,
        exclude_doc: Optional[str],
    ) -> DisclosureReport:
        results: List[SourceDisclosure] = []
        checked = 0
        target_size = len(fingerprint)
        for candidate_id in self._candidates_reference(fingerprint):
            if candidate_id == target_id:
                continue
            source = self.segment_db.find(candidate_id)
            if source is None:
                # Historical owner whose segment was since removed.
                continue
            if exclude_doc is not None and (
                source.doc_id == exclude_doc or source.segment_id == exclude_doc
            ):
                continue
            checked += 1
            t = source.threshold
            origin_size = len(source.fingerprint)
            # Quick discard from Algorithm 1: if the origin fingerprint
            # is so large that even a full overlap with the target could
            # not reach the threshold, skip the authoritative scan.
            if origin_size * t > target_size:
                continue
            score = self._score_reference(source, fingerprint)
            if score > 0.0 and meets_threshold(score, t):
                if self._authoritative:
                    matched = (
                        self._authoritative_hashes_reference(source)
                        & fingerprint.hashes
                    )
                else:
                    matched = source.fingerprint.hashes & fingerprint.hashes
                results.append(
                    SourceDisclosure(
                        segment_id=source.segment_id,
                        score=score,
                        threshold=t,
                        matched_hashes=frozenset(matched),
                        kind=source.kind,
                        doc_id=source.doc_id,
                    )
                )
        results.sort(key=lambda s: (-s.score, s.segment_id))
        return DisclosureReport(
            target_id=target_id, sources=tuple(results), candidates_checked=checked
        )

    def stats(self) -> Dict[str, int]:
        """Size and index/query counters (Figure 13 + cache behaviour).

        ``segments``/``distinct_hashes``/``version`` describe database
        state; the rest are monotonic counters: queries answered and
        answered from the decision cache, candidates accumulated by the
        index sweep, authoritative-set cache hits/misses, and ownership
        transitions (each of which invalidates one segment's cached
        authoritative set).

        Concurrency note (DESIGN.md §8): write-path values (``version``,
        ``ownership_changes``, the db sizes) are exact — they only move
        under the write lock. Query-path counters are incremented by
        concurrent readers without mutual exclusion and are therefore
        monotonic but *approximate* under contention; they exist for
        reporting, never for control flow.

        This is a thin view over the engine's registry scope: counter
        fields read the same :class:`~repro.obs.registry.Counter`
        instruments the query path increments, so the dict stays
        field-identical to ``metrics.snapshot()`` (differential-tested).
        Database-state fields read their sources directly — not via the
        derived gauges — so the dict remains correct even under
        :data:`~repro.obs.registry.NULL_REGISTRY` (``version`` keys the
        plugin's decision cache and must never flatten to zero).
        """
        return {
            "segments": len(self.segment_db),
            "distinct_hashes": len(self.hash_db),
            "version": self._version,
            "queries": self._c_queries.value,
            "query_cache_hits": self._c_query_cache_hits.value,
            "candidates_swept": self._c_candidates_swept.value,
            "auth_cache_hits": self._c_auth_cache_hits.value,
            "auth_cache_misses": self._c_auth_cache_misses.value,
            "ownership_changes": self.hash_db.ownership_changes,
        }


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
        n_shards: Optional[int] = None,
        router=None,
    ) -> None:
        """``n_shards=None`` (default) builds the classic single-store
        engines; any integer >= 1 builds
        :class:`~repro.disclosure.sharding.ShardedDisclosureEngine`
        pairs whose hash databases are hash-range partitioned into that
        many independently locked shards. ``router`` (an object with a
        ``map(fn, items)`` method, e.g.
        :class:`~repro.plugin.router.ShardRouter`) is handed to both
        sharded engines, whose multi-shard sweeps pass it their
        per-shard jobs; ignored unsharded.
        """
        shared_clock = clock or LogicalClock()
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
        if n_shards is None:
            engine_factory = DisclosureEngine
            extra: Dict[str, object] = {}
        else:
            # Deferred import: sharding builds on this module.
            from repro.disclosure.sharding import ShardedDisclosureEngine

            engine_factory = ShardedDisclosureEngine
            extra = {"n_shards": n_shards, "router": router}
        self.paragraphs = engine_factory(
            config,
            shared_clock,
            authoritative=authoritative,
            kind="paragraph",
            lock=self.lock,
            registry=self.registry,
            **extra,
        )
        self.documents = engine_factory(
            config,
            shared_clock,
            authoritative=authoritative,
            kind="document",
            lock=self.lock,
            registry=self.registry,
            **extra,
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
        """Share a fresh logical clock resumed strictly past *after*.

        WAL replay applies recorded timestamps without advancing the
        tracker's clock; a standby that is promoted to primary (or a
        tracker rebuilt by recovery) calls this so its first live
        observation cannot time-travel before — and steal authoritative
        ownership from — anything already replayed.
        """
        clock = LogicalClock(start=int(after) + 1)
        self.paragraphs._clock = clock
        self.documents._clock = clock

    def document_fingerprints(
        self,
        paragraphs: Sequence[Tuple[str, str]],
        fingerprints: Optional[Sequence[Fingerprint]] = None,
        document_fingerprint: Optional[Fingerprint] = None,
    ) -> Tuple[Sequence[Fingerprint], Fingerprint]:
        """Per-paragraph and document fingerprints of one document.

        The one home of the document-granularity rule: the document
        fingerprint covers the ``"\\n\\n"`` join of the paragraph texts,
        and a one-paragraph document's text *is* its paragraph's text,
        so that paragraph's fingerprint is reused instead of computed
        again.

        *fingerprints* (aligned with *paragraphs*) and
        *document_fingerprint* are used when given, so a caller that
        already fingerprinted the text (the plug-in's edit buffer, or a
        check that precedes an observe) pays nothing here; only what is
        missing is computed. Raises
        :class:`~repro.errors.DisclosureError` when *fingerprints* is not
        aligned with *paragraphs*.
        """
        if fingerprints is None:
            fingerprint = self.paragraphs.fingerprinter.fingerprint
            fingerprints = [fingerprint(text) for _pid, text in paragraphs]
        elif len(fingerprints) != len(paragraphs):
            raise DisclosureError(
                f"got {len(fingerprints)} fingerprints for "
                f"{len(paragraphs)} paragraphs"
            )
        if document_fingerprint is None:
            if len(paragraphs) == 1:
                document_fingerprint = fingerprints[0]
            else:
                document_fingerprint = self.documents.fingerprinter.fingerprint(
                    "\n\n".join(text for _pid, text in paragraphs)
                )
        return fingerprints, document_fingerprint

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
        with self.lock.write_locked():
            fingerprints, document_fingerprint = self.document_fingerprints(
                paragraphs, fingerprints, document_fingerprint
            )
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
        par_reports = []
        with self.lock.read_locked():
            fingerprints, doc_fp = self.document_fingerprints(
                paragraphs, fingerprints, document_fingerprint
            )
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
        fingerprints: Optional[Sequence[Sequence[Fingerprint]]] = None,
    ) -> List[TrackerReport]:
        """Batched :meth:`check_document`: same reports, fused queries.

        All documents' paragraph queries go to the paragraph engine in
        one :meth:`~DisclosureEngine.disclosing_sources_many` call (and
        likewise the document-granularity queries), so the whole batch
        shares two engine lock acquisitions and two fused sweeps instead
        of two per document. One tracker read lock covers the batch: all
        reports describe the same database state.

        ``fingerprints`` optionally carries per-document lists of
        precomputed paragraph fingerprints, aligned with *docs*.
        """
        if fingerprints is not None and len(fingerprints) != len(docs):
            raise DisclosureError(
                f"got {len(fingerprints)} fingerprint lists for "
                f"{len(docs)} documents"
            )
        with self.lock.read_locked():
            par_queries: List[Tuple[Fingerprint, Optional[str]]] = []
            doc_queries: List[Tuple[Fingerprint, Optional[str]]] = []
            for i, (doc_id, paragraphs) in enumerate(docs):
                fps, doc_fp = self.document_fingerprints(
                    paragraphs,
                    fingerprints[i] if fingerprints is not None else None,
                )
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
