"""Tests for DBhash / DBpar (repro.disclosure.store)."""

import pytest

from reference_engine import oldest_owner_reference
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.store import HashDatabase, SegmentDatabase, SegmentRecord
from repro.errors import UnknownSegmentError
from repro.fingerprint import Fingerprint, Fingerprinter
from repro.fingerprint.config import TINY_CONFIG


def record_for(segment_id, text, **kwargs):
    fp = Fingerprinter(TINY_CONFIG).fingerprint(text)
    return SegmentRecord(segment_id=segment_id, fingerprint=fp, **kwargs)


def stored(segment_id, *hashes):
    """A record whose stored fingerprint holds *hashes*: what the engine
    reads a segment's observed hashes from."""
    return SegmentRecord(
        segment_id=segment_id, fingerprint=Fingerprint(hashes=frozenset(hashes))
    )


def withdraw(db, record):
    """Withdraw every hash of *record*'s stored fingerprint, as the
    engine removes a segment; the number of associations released."""
    return sum(
        db.remove_observation(h, record.segment_id)
        for h in record.fingerprint.hashes
    )


class TestHashDatabase:
    def test_record_and_len(self):
        db = HashDatabase()
        assert db.record(1, "a", 0.0)
        assert db.record(2, "a", 1.0)
        assert len(db) == 2

    def test_duplicate_observation_ignored(self):
        db = HashDatabase()
        assert db.record(1, "a", 0.0)
        assert not db.record(1, "a", 5.0)
        assert db.first_seen(1, "a") == 0.0

    def test_oldest_owner(self):
        db = HashDatabase()
        db.record(1, "b", 1.0)
        db.record(1, "a", 2.0)
        assert db.oldest_owner(1) == "b"

    def test_oldest_owner_tie_breaks_lexicographically(self):
        db = HashDatabase()
        db.record(1, "zeta", 1.0)
        db.record(1, "alpha", 1.0)
        assert db.oldest_owner(1) == "alpha"

    def test_oldest_owner_unknown_hash(self):
        assert HashDatabase().oldest_owner(99) is None

    def test_owners_sorted_by_time(self):
        db = HashDatabase()
        db.record(1, "c", 3.0)
        db.record(1, "a", 1.0)
        db.record(1, "b", 2.0)
        assert [s for s, _t in db.owners(1)] == ["a", "b", "c"]

    def test_contains(self):
        db = HashDatabase()
        db.record(7, "a", 0.0)
        assert 7 in db
        assert 8 not in db

    def test_withdraw_releases_ownership(self):
        db = HashDatabase()
        db.record(1, "first", 0.0)
        db.record(1, "second", 1.0)
        assert withdraw(db, stored("first", 1)) == 1
        assert db.oldest_owner(1) == "second"

    def test_withdraw_drops_orphan_hashes(self):
        db = HashDatabase()
        db.record(1, "only", 0.0)
        withdraw(db, stored("only", 1))
        assert len(db) == 0
        assert 1 not in db

    def test_withdraw_unknown_segment_noop(self):
        db = HashDatabase()
        db.record(1, "a", 0.0)
        assert withdraw(db, stored("missing", 1, 2)) == 0
        assert len(db) == 1


class TestSegmentDatabase:
    def test_put_get(self):
        db = SegmentDatabase()
        rec = record_for("s1", "some paragraph text that is long enough to matter")
        db.put(rec)
        assert db.get("s1") is rec

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownSegmentError):
            SegmentDatabase().get("nope")

    def test_find_returns_none(self):
        assert SegmentDatabase().find("nope") is None

    def test_put_replaces(self):
        db = SegmentDatabase()
        db.put(record_for("s1", "original paragraph content for the segment"))
        newer = record_for("s1", "replacement paragraph content for the segment")
        db.put(newer)
        assert db.get("s1") is newer
        assert len(db) == 1

    def test_remove(self):
        db = SegmentDatabase()
        rec = record_for("s1", "content to be removed from the database later")
        db.put(rec)
        assert db.remove("s1") is rec
        assert "s1" not in db

    def test_remove_unknown_raises(self):
        with pytest.raises(UnknownSegmentError):
            SegmentDatabase().remove("ghost")

    def test_iteration_and_ids(self):
        db = SegmentDatabase()
        db.put(record_for("a", "first paragraph with enough characters inside"))
        db.put(record_for("b", "second paragraph with enough characters inside"))
        assert sorted(db.ids()) == ["a", "b"]
        assert {r.segment_id for r in db} == {"a", "b"}

    def test_in_document(self):
        db = SegmentDatabase()
        db.put(record_for("p1", "paragraph one content inside document alpha", doc_id="alpha"))
        db.put(record_for("p2", "paragraph two content inside document alpha", doc_id="alpha"))
        db.put(record_for("p3", "paragraph in a different document entirely", doc_id="beta"))
        assert {r.segment_id for r in db.in_document("alpha")} == {"p1", "p2"}

    def test_in_document_index_follows_updates(self):
        db = SegmentDatabase()
        db.put(record_for("p1", "paragraph one content inside document alpha", doc_id="alpha"))
        # Re-homing a paragraph moves it between document buckets.
        db.put(record_for("p1", "paragraph one content inside document alpha", doc_id="beta"))
        assert db.in_document("alpha") == []
        assert {r.segment_id for r in db.in_document("beta")} == {"p1"}

    def test_in_document_index_follows_removal(self):
        db = SegmentDatabase()
        db.put(record_for("p1", "paragraph one content inside document alpha", doc_id="alpha"))
        db.put(record_for("p2", "paragraph two content inside document alpha", doc_id="alpha"))
        db.remove("p1")
        assert {r.segment_id for r in db.in_document("alpha")} == {"p2"}
        db.remove("p2")
        assert db.in_document("alpha") == []

    def test_in_document_ignores_docless_segments(self):
        db = SegmentDatabase()
        db.put(record_for("solo", "a standalone segment with no containing document"))
        assert db.in_document("anything") == []


class TestOwnershipIndexes:
    def test_authoritative_hashes_track_claims(self):
        db = HashDatabase()
        db.record(1, "a", 0.0)
        db.record(2, "a", 0.0)
        db.record(1, "b", 1.0)
        assert authoritative_hashes(stored("a", 1, 2), db) == {1, 2}
        assert authoritative_hashes(stored("b", 1), db) == set()

    def test_authoritative_hashes_migrate_on_removal(self):
        db = HashDatabase()
        db.record(1, "a", 0.0)
        db.record(1, "b", 1.0)
        db.remove_observation(1, "a")
        assert authoritative_hashes(stored("a", 1), db) == set()
        assert authoritative_hashes(stored("b", 1), db) == {1}
        assert db.oldest_owner(1) == "b"

    def test_earlier_record_steals_ownership(self):
        db = HashDatabase()
        db.record(1, "late", 5.0)
        assert db.oldest_owner(1) == "late"
        db.record(1, "early", 1.0)
        assert db.oldest_owner(1) == "early"
        assert authoritative_hashes(stored("late", 1), db) == set()
        assert authoritative_hashes(stored("early", 1), db) == {1}

    def test_ownership_changes_count_transitions(self):
        db = HashDatabase()
        db.record(1, "a", 0.0)  # first owner
        db.record(1, "b", 1.0)  # a later observer claims nothing
        db.record(1, "c", -1.0)  # an earlier claim steals it
        db.remove_observation(1, "b")  # a non-owner leaves
        db.remove_observation(1, "c")  # the owner leaves: "a" inherits
        db.remove_observation(1, "a")  # the last observer leaves
        assert db.ownership_changes == 4

    def test_first_seen_of_reads_the_stored_hashes(self):
        db = HashDatabase()
        db.record(1, "a", 0.0)
        db.record(2, "a", 0.0)
        db.record(2, "b", 1.0)
        assert db.first_seen_of("a", [1, 2, 3]) == {1: 0.0, 2: 0.0}
        assert db.first_seen_of("b", [1, 2]) == {2: 1.0}
        withdraw(db, stored("a", 1, 2))
        assert db.first_seen_of("a", [1, 2]) == {}
        assert db.first_seen_of("b", [2]) == {2: 1.0}

    def test_observers_unordered_view(self):
        db = HashDatabase()
        db.record(1, "a", 2.0)
        db.record(1, "b", 1.0)
        assert set(db.observers(1)) == {"a", "b"}
        assert db.observers(99) == ()

    def test_recompute_matches_cached(self):
        db = HashDatabase()
        db.record(1, "a", 2.0)
        db.record(1, "b", 1.0)
        db.record(2, "c", 0.0)
        db.remove_observation(1, "b")
        for h in db.hashes():
            assert db.oldest_owner(h) == oldest_owner_reference(db, h)
        db.check_invariants()

    def test_invariants_after_withdraw(self):
        db = HashDatabase()
        for h in range(10):
            db.record(h, "a", 0.0)
            if h % 2:
                db.record(h, "b", 1.0)
        assert withdraw(db, stored("a", *range(10))) == 10
        db.check_invariants()
        for h in range(10):
            assert db.oldest_owner(h) == ("b" if h % 2 else None)


class TestSegmentRecord:
    def test_with_fingerprint(self):
        rec = record_for("s", "the original content of this tracked segment")
        new_fp = Fingerprinter(TINY_CONFIG).fingerprint("totally different words here now")
        updated = rec.with_fingerprint(new_fp, 9.0)
        assert updated.fingerprint is new_fp
        assert updated.last_updated == 9.0
        assert updated.segment_id == "s"
        assert rec.last_updated != 9.0  # original untouched

    def test_default_threshold(self):
        assert record_for("s", "text that is long enough for a fingerprint").threshold == 0.5
