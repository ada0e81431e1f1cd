"""The two engine databases from Algorithm 1 (paper §4.3).

``DBhash`` (:class:`HashDatabase`) associates fingerprint hashes with the
segments that have been observed to contain them, along with the
timestamp of each first observation. The earliest observer of a hash is
its *authoritative owner* — the overlap-correction mechanism of §4.3.

``DBpar`` (:class:`SegmentDatabase`) associates each segment with the
last fingerprint computed for it, plus its disclosure threshold and
metadata. Both are in-memory hash tables as the paper recommends for
lookup performance.

Both databases maintain *inverted indexes* incrementally so the paper's
headline latency claim (Figures 12–13: decisions stay fast as the hash
table grows to millions of entries "thanks to index data structures")
holds for this implementation too:

* ``hash → oldest owner`` is cached and updated in O(1) on ``record``
  and in O(observers-of-hash) on ``remove_observation`` — never by
  scanning the whole table;
* ``segment → observed hashes`` lets ``discard_segment`` release a
  segment's claims in O(|F(segment)|) instead of O(all hashes);
* ``segment → authoritatively owned hashes`` makes the §4.3
  authoritative set an O(1) lookup for the engine's single-sweep query;
* ``doc → segment ids`` makes :meth:`SegmentDatabase.in_document`
  independent of the number of tracked segments.

Concurrency contract (DESIGN.md §8): the databases are *externally
synchronised* by the owning engine's reader–writer lock. They carry no
locks of their own because the engine's hot query sweep makes one
``oldest_owner`` call per target hash — per-call locking here would
dominate the query. Code that touches a database outside its engine
(persistence snapshots, tests) must hold the engine's lock, read side
for lookups and write side for any mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import DisclosureError, UnknownSegmentError
from repro.fingerprint import Fingerprint

#: Default paragraph/document disclosure threshold (paper §6.1 adopts 0.5).
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class SegmentRecord:
    """DBpar entry: one tracked text segment.

    Attributes:
        segment_id: unique id of the paragraph or document.
        fingerprint: the latest fingerprint computed for the segment.
        threshold: this segment's disclosure threshold (Tpar or Tdoc);
            disclosure *from* this segment is reported when at least this
            fraction of its authoritative hashes is found elsewhere.
        kind: ``"paragraph"`` or ``"document"``.
        doc_id: for paragraphs, the id of the containing document.
        last_updated: timestamp of the most recent observation.
    """

    segment_id: str
    fingerprint: Fingerprint
    threshold: float = DEFAULT_THRESHOLD
    kind: str = "paragraph"
    doc_id: Optional[str] = None
    last_updated: float = 0.0

    def with_fingerprint(self, fingerprint: Fingerprint, timestamp: float) -> "SegmentRecord":
        return replace(self, fingerprint=fingerprint, last_updated=timestamp)


class HashDatabase:
    """DBhash: fingerprint hash → {segment id → first-seen timestamp}.

    The earliest observer of a hash is its authoritative owner (§4.3).
    First-seen timestamps survive re-observation, so priority is stable
    across edits — but the engine withdraws a segment's claim on hashes
    an edit removed from its fingerprint, so authority migrates to the
    next-earliest observer that still holds the text (the Figure 6
    behaviour). Removing a segment entirely releases all its claims.

    Ownership is indexed: :meth:`oldest_owner` is an O(1) dictionary
    lookup against a cache maintained on every mutation, and
    :meth:`owned_hashes` returns a segment's authoritative set without
    touching the per-hash observation maps. :attr:`ownership_changes`
    counts owner transitions (a hash gaining its first owner, changing
    owner, or losing its last one) for the engine's cache-invalidation
    stats.
    """

    def __init__(self) -> None:
        self._observations: Dict[int, Dict[str, float]] = {}
        # hash → (first_seen, segment_id) of the current authoritative
        # owner; the tuple ordering gives the deterministic tie-break.
        self._oldest: Dict[int, Tuple[float, str]] = {}
        # segment → hashes it currently observes (reverse index).
        self._by_segment: Dict[str, Set[int]] = {}
        # segment → hashes it authoritatively owns (oldest observer).
        self._owned: Dict[str, Set[int]] = {}
        # segment → bumped whenever its owned set changes; lets the
        # engine cache frozen authoritative sets safely.
        self._owner_epoch: Dict[str, int] = {}
        #: Total number of ownership transitions since creation.
        self.ownership_changes = 0

    def __len__(self) -> int:
        """Number of distinct hashes ever observed."""
        return len(self._observations)

    def __contains__(self, hash_value: int) -> bool:
        return hash_value in self._observations

    # ------------------------------------------------------------------
    # Ownership index maintenance
    # ------------------------------------------------------------------

    def _claim(self, segment_id: str, hash_value: int) -> None:
        self._owned.setdefault(segment_id, set()).add(hash_value)
        self._owner_epoch[segment_id] = self._owner_epoch.get(segment_id, 0) + 1
        self.ownership_changes += 1

    def _release(self, segment_id: str, hash_value: int) -> None:
        owned = self._owned.get(segment_id)
        if owned is not None:
            owned.discard(hash_value)
            if not owned:
                del self._owned[segment_id]
        self._owner_epoch[segment_id] = self._owner_epoch.get(segment_id, 0) + 1

    def record(self, hash_value: int, segment_id: str, timestamp: float) -> bool:
        """Record that *segment_id* contains *hash_value*.

        Only the first observation per (hash, segment) pair is kept, so
        re-observing an unchanged paragraph never steals ownership.
        Returns True if this was a new observation.
        """
        seen_by = self._observations.setdefault(hash_value, {})
        if segment_id in seen_by:
            return False
        seen_by[segment_id] = timestamp
        self._by_segment.setdefault(segment_id, set()).add(hash_value)
        current = self._oldest.get(hash_value)
        claim = (timestamp, segment_id)
        if current is None:
            self._oldest[hash_value] = claim
            self._claim(segment_id, hash_value)
        elif claim < current:
            self._oldest[hash_value] = claim
            self._release(current[1], hash_value)
            self._claim(segment_id, hash_value)
        return True

    def oldest_owner(self, hash_value: int) -> Optional[str]:
        """The segment that observed *hash_value* earliest, or None.

        Ties on timestamp break towards the lexicographically smallest
        segment id so the result is deterministic under logical clocks.
        O(1): served from the maintained ownership index.
        """
        entry = self._oldest.get(hash_value)
        return entry[1] if entry is not None else None

    def recompute_oldest_owner(self, hash_value: int) -> Optional[str]:
        """Oldest owner recomputed from the raw observation map.

        Deliberately ignores the ownership index — the reference path
        for differential tests that prove the index stays consistent.
        """
        seen_by = self._observations.get(hash_value)
        if not seen_by:
            return None
        return min(seen_by.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def owners(self, hash_value: int) -> List[Tuple[str, float]]:
        """All (segment_id, first_seen) observations, earliest first."""
        seen_by = self._observations.get(hash_value, {})
        return sorted(seen_by.items(), key=lambda kv: (kv[1], kv[0]))

    def observers(self, hash_value: int) -> Tuple[str, ...]:
        """Segment ids observing *hash_value*, in no particular order.

        Unlike :meth:`owners` this does not sort, so the non-authoritative
        query sweep can accumulate counts without O(k log k) per hash.
        """
        seen_by = self._observations.get(hash_value)
        return tuple(seen_by) if seen_by else ()

    def first_seen(self, hash_value: int, segment_id: str) -> Optional[float]:
        """When *segment_id* first contained *hash_value*, or None."""
        return self._observations.get(hash_value, {}).get(segment_id)

    def first_seen_of(self, segment_id: str) -> Dict[int, float]:
        """Every hash *segment_id* observes → its first-seen time (O(|F|))."""
        observations = self._observations
        return {
            h: observations[h][segment_id]
            for h in self._by_segment.get(segment_id, ())
        }

    def bulk_load(
        self, groups: Iterable[Tuple[float, str, Sequence[int]]]
    ) -> None:
        """Build an empty database from first-seen groups in one pass.

        *groups* holds ``(first_seen, segment_id, hashes)`` triples
        sorted by ``(first_seen, segment_id)``, naming each (hash,
        segment) pair at most once. The first group to name a hash owns
        it: the oldest claim, which :meth:`record`'s tie-break also
        keeps, so the indexes equal a ``record()`` replay's without any
        claim being released and re-won. Epochs stay zero for
        :meth:`restore_ownership_meta` to overwrite.
        """
        if self._observations:
            raise DisclosureError("bulk_load needs an empty hash database")
        observations = self._observations
        oldest = self._oldest
        for first_seen, segment_id, hashes in groups:
            if not hashes:
                continue
            owned = None
            for h in hashes:
                seen_by = observations.get(h)
                if seen_by is None:
                    observations[h] = {segment_id: first_seen}
                    oldest[h] = (first_seen, segment_id)
                    if owned is None:
                        owned = self._owned.setdefault(segment_id, set())
                    owned.add(h)
                else:
                    seen_by[segment_id] = first_seen
            self._by_segment.setdefault(segment_id, set()).update(hashes)

    def hashes(self) -> List[int]:
        """All distinct hash values currently observed."""
        return list(self._observations)

    def hashes_of(self, segment_id: str) -> Set[int]:
        """The hashes *segment_id* currently observes (index lookup)."""
        return set(self._by_segment.get(segment_id, ()))

    def owned_hashes(self, segment_id: str) -> Set[int]:
        """Hashes whose authoritative owner is *segment_id* (O(result))."""
        return set(self._owned.get(segment_id, ()))

    def owner_epoch(self, segment_id: str) -> int:
        """Version of *segment_id*'s owned set; bumps on every change."""
        return self._owner_epoch.get(segment_id, 0)

    def ownership_meta(self) -> Tuple[Dict[str, int], int]:
        """Exportable epoch state: (per-segment epochs, total changes).

        Persisted in snapshots so a recovered engine's cache-versioning
        counters are field-identical to the pre-crash engine's — a
        memoized verdict keyed on an epoch must not collide with a
        different post-recovery state that reuses the same number.
        """
        return dict(self._owner_epoch), self.ownership_changes

    def restore_ownership_meta(
        self, epochs: Dict[str, int], changes: int
    ) -> None:
        """Overwrite epoch counters with snapshot values (recovery only).

        Runs after :meth:`bulk_load` rebuilt the indexes: epochs count a
        live engine's claim history, which the load does not replay, so
        the persisted counts make recovered and pre-crash engines agree
        exactly.
        """
        self._owner_epoch = dict(epochs)
        self.ownership_changes = changes

    def remove_observation(self, hash_value: int, segment_id: str) -> bool:
        """Release one (hash, segment) association.

        Called when an edit removes a hash from a segment's current
        fingerprint: the segment's claim is withdrawn, so authority over
        the hash falls to the next-earliest observer that still contains
        it — the behaviour behind the paper's Figure 6 (the Wiki becomes
        the authoritative source once the Interview Tool text changes).
        Returns True when an association was actually removed.
        """
        seen_by = self._observations.get(hash_value)
        if seen_by is None or segment_id not in seen_by:
            return False
        del seen_by[segment_id]
        observed = self._by_segment.get(segment_id)
        if observed is not None:
            observed.discard(hash_value)
            if not observed:
                del self._by_segment[segment_id]
        if not seen_by:
            # The removed segment was necessarily the sole owner.
            del self._observations[hash_value]
            del self._oldest[hash_value]
            self._release(segment_id, hash_value)
            self.ownership_changes += 1
        elif self._oldest[hash_value][1] == segment_id:
            ts, seg = min((ts, seg) for seg, ts in seen_by.items())
            self._oldest[hash_value] = (ts, seg)
            self._release(segment_id, hash_value)
            self._claim(seg, hash_value)
        return True

    def discard_segment(self, segment_id: str) -> int:
        """Remove every observation by *segment_id*; returns count removed.

        Hashes left with no observers are dropped from the table. Runs
        in O(|F(segment)|) via the segment → hashes reverse index, not
        O(all hashes).
        """
        hashes = self._by_segment.pop(segment_id, None)
        if not hashes:
            return 0
        removed = 0
        for hash_value in hashes:
            seen_by = self._observations[hash_value]
            del seen_by[segment_id]
            removed += 1
            if not seen_by:
                del self._observations[hash_value]
                del self._oldest[hash_value]
                self._release(segment_id, hash_value)
                self.ownership_changes += 1
            elif self._oldest[hash_value][1] == segment_id:
                ts, seg = min((ts, seg) for seg, ts in seen_by.items())
                self._oldest[hash_value] = (ts, seg)
                self._release(segment_id, hash_value)
                self._claim(seg, hash_value)
        return removed

    def check_invariants(self) -> None:
        """Assert the indexes agree with the raw observation map.

        Test-only sanity pass (O(table)): every differential test calls
        this so a silently-corrupt index cannot masquerade as a passing
        equivalence check.
        """
        for hash_value, seen_by in self._observations.items():
            assert seen_by, f"empty observer map retained for {hash_value}"
            expected = min(seen_by.items(), key=lambda kv: (kv[1], kv[0]))
            ts, seg = self._oldest[hash_value]
            assert (seg, ts) == expected, (hash_value, (seg, ts), expected)
        assert set(self._oldest) == set(self._observations)
        observed: Dict[str, Set[int]] = {}
        owned: Dict[str, Set[int]] = {}
        for hash_value, seen_by in self._observations.items():
            for seg in seen_by:
                observed.setdefault(seg, set()).add(hash_value)
            owned.setdefault(self._oldest[hash_value][1], set()).add(hash_value)
        assert observed == self._by_segment, "segment reverse index drifted"
        assert owned == self._owned, "ownership index drifted"


class SegmentDatabase:
    """DBpar: segment id → :class:`SegmentRecord` (latest fingerprint).

    Maintains a doc_id → segment-ids index so :meth:`in_document` is
    O(paragraphs of the document) instead of O(all records).
    """

    def __init__(self) -> None:
        self._records: Dict[str, SegmentRecord] = {}
        self._by_doc: Dict[str, Set[str]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, segment_id: str) -> bool:
        return segment_id in self._records

    def __iter__(self) -> Iterator[SegmentRecord]:
        return iter(self._records.values())

    def put(self, record: SegmentRecord) -> None:
        old = self._records.get(record.segment_id)
        if old is not None and old.doc_id != record.doc_id and old.doc_id is not None:
            self._unindex_doc(old.doc_id, old.segment_id)
        self._records[record.segment_id] = record
        if record.doc_id is not None:
            self._by_doc.setdefault(record.doc_id, set()).add(record.segment_id)

    def _unindex_doc(self, doc_id: str, segment_id: str) -> None:
        members = self._by_doc.get(doc_id)
        if members is not None:
            members.discard(segment_id)
            if not members:
                del self._by_doc[doc_id]

    def get(self, segment_id: str) -> SegmentRecord:
        try:
            return self._records[segment_id]
        except KeyError:
            raise UnknownSegmentError(segment_id) from None

    def find(self, segment_id: str) -> Optional[SegmentRecord]:
        """Like :meth:`get` but returns None instead of raising."""
        return self._records.get(segment_id)

    def remove(self, segment_id: str) -> SegmentRecord:
        try:
            record = self._records.pop(segment_id)
        except KeyError:
            raise UnknownSegmentError(segment_id) from None
        if record.doc_id is not None:
            self._unindex_doc(record.doc_id, segment_id)
        return record

    def ids(self) -> List[str]:
        return list(self._records)

    def in_document(self, doc_id: str) -> List[SegmentRecord]:
        """All paragraph records belonging to *doc_id* (index lookup)."""
        return [self._records[sid] for sid in sorted(self._by_doc.get(doc_id, ()))]
