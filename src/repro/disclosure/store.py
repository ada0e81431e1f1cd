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

* ``hash → oldest owner`` is updated in O(1) on ``record`` and in
  O(observers-of-hash) on ``remove_observation`` — never by scanning
  the whole table — and is the whole record of a hash with one
  observer;
* ``doc → segment ids`` makes :meth:`SegmentDatabase.in_document`
  independent of the number of tracked segments.

Nothing is indexed per segment in ``DBhash``: a segment observes
exactly its stored fingerprint's hashes (the engine's cross-database
invariant), so the fingerprint in ``DBpar`` names the hashes to
withdraw or snapshot, and a segment's authoritative hashes are the
ones whose owner entry names it (§4.3).

Concurrency contract (DESIGN.md §8): the databases are *externally
synchronised* by the owning engine's reader–writer lock. They carry no
locks of their own because the hot query sweep
(:meth:`HashDatabase.sweep`) probes the owner index once per target
hash — per-call locking here would dominate the query. Code that
touches a database outside its engine (persistence snapshots, tests)
must hold the engine's lock, read side for lookups and write side for
any mutation.
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
    behaviour). Removing a segment withdraws all its claims.

    Nearly every hash has one observer, so that observer's owner entry
    ``(first_seen, segment_id)`` is the hash's whole record; an observer
    map exists only while two or more segments observe the hash, and
    collapses back into the owner entry when one observer remains
    (DESIGN.md §7).

    :meth:`oldest_owner` is an O(1) dictionary lookup against the owner
    entries maintained on every mutation. :attr:`ownership_changes`
    counts owner transitions (a hash gaining its first owner, changing
    owner, or losing its last one) since the database was created.
    """

    def __init__(self) -> None:
        # hash → (first_seen, segment_id) of the current authoritative
        # owner; the tuple ordering gives the deterministic tie-break.
        # For a hash with one observer this is its only record.
        self._oldest: Dict[int, Tuple[float, str]] = {}
        # hash → {segment → first_seen}, only while 2+ segments observe it.
        self._shared: Dict[int, Dict[str, float]] = {}
        #: Total number of ownership transitions since creation.
        self.ownership_changes = 0

    def __len__(self) -> int:
        """Number of distinct hashes currently observed."""
        return len(self._oldest)

    def __contains__(self, hash_value: int) -> bool:
        return hash_value in self._oldest

    def record(self, hash_value: int, segment_id: str, timestamp: float) -> bool:
        """Record that *segment_id* contains *hash_value*.

        Only the first observation per (hash, segment) pair is kept, so
        re-observing an unchanged paragraph never steals ownership.
        Returns True if this was a new observation.
        """
        current = self._oldest.get(hash_value)
        if current is None:
            self._oldest[hash_value] = (timestamp, segment_id)
            self.ownership_changes += 1
            return True
        seen_by = self._shared.get(hash_value)
        if seen_by is None:
            if current[1] == segment_id:
                return False
            # A second observer: the owner entry becomes an observer map.
            self._shared[hash_value] = {
                current[1]: current[0], segment_id: timestamp
            }
        elif segment_id in seen_by:
            return False
        else:
            seen_by[segment_id] = timestamp
        claim = (timestamp, segment_id)
        if claim < current:
            self._oldest[hash_value] = claim
            self.ownership_changes += 1
        return True

    def oldest_owner(self, hash_value: int) -> Optional[str]:
        """The segment that observed *hash_value* earliest, or None.

        Ties on timestamp break towards the lexicographically smallest
        segment id so the result is deterministic under logical clocks.
        O(1): served from the owner entries.
        """
        entry = self._oldest.get(hash_value)
        return entry[1] if entry is not None else None

    def sweep(
        self, hashes: Iterable[int], authoritative: bool = True
    ) -> Dict[str, List[int]]:
        """Algorithm 1's accumulation: owner → the *hashes* it counts.

        Under §4.3 only a hash's oldest owner may count it towards its
        own disclosure, so the authoritative sweep is one owner-entry
        probe per hash; without the correction every observer counts
        it. Hashes absent from the table are skipped.
        """
        matched: Dict[str, List[int]] = {}
        if authoritative:
            get = self._oldest.get
            for h in hashes:
                entry = get(h)
                if entry is None:
                    continue
                owner = entry[1]
                if owner in matched:
                    matched[owner].append(h)
                else:
                    matched[owner] = [h]
        else:
            observers = self.observers
            for h in hashes:
                for owner in observers(h):
                    if owner in matched:
                        matched[owner].append(h)
                    else:
                        matched[owner] = [h]
        return matched

    def owners(self, hash_value: int) -> List[Tuple[str, float]]:
        """All (segment_id, first_seen) observations, earliest first."""
        seen_by = self._shared.get(hash_value)
        if seen_by is not None:
            return sorted(seen_by.items(), key=lambda kv: (kv[1], kv[0]))
        entry = self._oldest.get(hash_value)
        return [(entry[1], entry[0])] if entry is not None else []

    def observers(self, hash_value: int) -> Tuple[str, ...]:
        """Segment ids observing *hash_value*, in no particular order.

        Unlike :meth:`owners` this does not sort, so the non-authoritative
        query sweep can accumulate counts without O(k log k) per hash.
        """
        seen_by = self._shared.get(hash_value)
        if seen_by is not None:
            return tuple(seen_by)
        entry = self._oldest.get(hash_value)
        return (entry[1],) if entry is not None else ()

    def first_seen(self, hash_value: int, segment_id: str) -> Optional[float]:
        """When *segment_id* first contained *hash_value*, or None."""
        seen_by = self._shared.get(hash_value)
        if seen_by is not None:
            return seen_by.get(segment_id)
        entry = self._oldest.get(hash_value)
        if entry is not None and entry[1] == segment_id:
            return entry[0]
        return None

    def first_seen_of(
        self, segment_id: str, hashes: Iterable[int]
    ) -> Dict[int, float]:
        """Each of *hashes* that *segment_id* observes → its first-seen
        time, in O(|hashes|); hashes it does not observe are left out."""
        oldest = self._oldest
        shared = self._shared
        out: Dict[int, float] = {}
        for h in hashes:
            seen_by = shared.get(h)
            if seen_by is not None:
                if segment_id in seen_by:
                    out[h] = seen_by[segment_id]
                continue
            entry = oldest.get(h)
            if entry is not None and entry[1] == segment_id:
                out[h] = entry[0]
        return out

    def bulk_load(
        self, groups: Iterable[Tuple[float, str, Sequence[int]]]
    ) -> None:
        """Build an empty database from first-seen groups in one pass.

        *groups* holds ``(first_seen, segment_id, hashes)`` triples
        sorted by ``(first_seen, segment_id)``, naming each (hash,
        segment) pair at most once. The first group to name a hash owns
        it: the oldest claim, which :meth:`record`'s tie-break also
        keeps, so the owner entries equal a ``record()`` replay's
        without any claim being released and re-won. A group's hashes
        share one owner-entry tuple. :attr:`ownership_changes` is not
        advanced: a loaded database counts from zero.
        """
        if self._oldest:
            raise DisclosureError("bulk_load needs an empty hash database")
        oldest = self._oldest
        claim_first = oldest.setdefault
        shared = self._shared
        for first_seen, segment_id, hashes in groups:
            claim = (first_seen, segment_id)
            taken = [h for h in hashes if claim_first(h, claim) is not claim]
            for h in taken:
                seen_by = shared.get(h)
                if seen_by is None:
                    owner_seen, owner = oldest[h]
                    shared[h] = {owner: owner_seen, segment_id: first_seen}
                else:
                    seen_by[segment_id] = first_seen

    def hashes(self) -> List[int]:
        """All distinct hash values currently observed."""
        return list(self._oldest)

    def remove_observation(self, hash_value: int, segment_id: str) -> bool:
        """Release one (hash, segment) association.

        Called when an edit removes a hash from a segment's current
        fingerprint, or the segment is removed: the segment's claim is
        withdrawn, so authority over the hash falls to the next-earliest
        observer that still contains it — the behaviour behind the
        paper's Figure 6 (the Wiki becomes the authoritative source once
        the Interview Tool text changes). A shared hash left with one
        observer collapses back into that observer's owner entry; an
        unshared hash losing its observer leaves the table. Returns True
        when an association was actually removed.
        """
        current = self._oldest.get(hash_value)
        if current is None:
            return False
        seen_by = self._shared.get(hash_value)
        if seen_by is None:
            if current[1] != segment_id:
                return False
            # The sole observer, hence the owner.
            del self._oldest[hash_value]
            self.ownership_changes += 1
            return True
        if segment_id not in seen_by:
            return False
        del seen_by[segment_id]
        if len(seen_by) == 1:
            # Collapse: the one observer left owns the hash, and its
            # owner entry holds its first-seen time.
            del self._shared[hash_value]
        if current[1] == segment_id:
            ts, seg = min((ts, seg) for seg, ts in seen_by.items())
            self._oldest[hash_value] = (ts, seg)
            self.ownership_changes += 1
        return True

    def check_invariants(self) -> None:
        """Assert the owner entries agree with the observer maps.

        Test-only sanity pass (O(shared hashes)): every differential
        test calls this so a silently-corrupt owner entry cannot
        masquerade as a passing equivalence check. A shared hash's owner
        entry must be the minimum of its observer map, which must hold
        two or more observers; every other hash's owner entry is its
        only observer.
        """
        oldest = self._oldest
        for hash_value, seen_by in self._shared.items():
            assert len(seen_by) >= 2, (
                f"shared entry for {hash_value} has {len(seen_by)} observers"
            )
            assert hash_value in oldest, f"shared {hash_value} has no owner"
            expected = min(seen_by.items(), key=lambda kv: (kv[1], kv[0]))
            ts, seg = oldest[hash_value]
            assert (seg, ts) == expected, (hash_value, (seg, ts), expected)


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
