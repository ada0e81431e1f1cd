"""Regression test: a fingerprint store is small and adds few GC-tracked
objects.

CPython's cyclic collector walks every tracked container on each full
pass, and the passes a recovery triggers grow with that population. A
stored segment's record keeps its fingerprint's selections packed in
one ``bytes``, which the collector never tracks, and a count instead of
a hash set; the hash database keeps a hash with one observer as an
owner-entry tuple of a float and a string, which is untracked too. What
stays tracked is about one container per segment (its record), not a
fingerprint and its hash set beside it, nor one object per selection as
when each selection was its own instance, nor per-segment index sets in
the hash database. The bound holds for a live engine and for one
rebuilt from its snapshot. The hashes one observation records share one
owner-entry tuple, in a live engine and in one that replays its log.

Memory is bounded too, measured with ``tracemalloc`` as DESIGN.md §7
does: what an engine retains per distinct hash, all-in, once it has
observed the corpus from text; what the databases add per distinct
hash when the fingerprints were computed beforehand; and what the
fingerprints hold per selection.

A segment whose n-gram recurs selects one hash value twice. Its stored
count, its derived hash set, its removal and the ownership transitions
it causes are those of its distinct values, in a live, a restored and a
replayed engine.

So is an ``EditBuffer``'s, which the plug-in keeps per edited paragraph:
its selections are flat int lists, so the objects it adds do not grow
with the paragraph.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import DisclosureEngine
from repro.datasets import EbookCorpus
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.persistence import (
    decode_snapshot,
    encode_snapshot,
    restore_into,
    snapshot_engine,
)
from repro.disclosure.store import HashDatabase
from repro.disclosure.wal import (
    DurableEngine,
    WriteAheadLog,
    apply_record,
    scan_wal_file,
)
from repro.fingerprint import Fingerprinter
from repro.fingerprint.config import PAPER_CONFIG, TINY_CONFIG
from repro.fingerprint.incremental import EditBuffer
from repro.util.clock import LogicalClock

#: Tracked objects one stored segment may add, all-in: about 1.1 live
#: and 1.4 restored, against 3.0 and 3.4 while each record kept a
#: fingerprint object and its hash set, and 5.0 and 5.4 while the hash
#: database kept per-segment owned and observed sets.
MAX_TRACKED_PER_SEGMENT = 2
#: Bytes an engine may retain per distinct hash, all-in, after observing
#: this corpus from text: about 123 here on Python 3.11 (110 on 3.12),
#: against 198 while each record kept a fingerprint object and its hash
#: set.
MAX_RETAINED_BYTES_PER_HASH = 140
#: Bytes the engine databases may hold per distinct hash on this corpus
#: when the fingerprints were computed beforehand: about 57 here on
#: Python 3.11, against 113 with one owner-entry tuple per hash and 258
#: with the per-segment sets and epochs.
MAX_DATABASE_BYTES_PER_HASH = 75
#: Bytes the fingerprints may hold per selection on this corpus: about
#: 128 here with the selections packed 8 bytes a value, against 167
#: with a tuple of three int objects per selection.
MAX_FINGERPRINT_BYTES_PER_SELECTION = 145
#: Tracked objects one ``TINY_CONFIG`` edit buffer may add, whatever its
#: length: 9 (the buffer, its fingerprinter, five lists, the cached
#: fingerprint and its hash set), against one per selection and more
#: (403 for 387 selections) while each selection was a NamedTuple.
MAX_TRACKED_PER_BUFFER = 12
#: Bytes such a buffer may hold per character of its paragraph: about
#: 100-140 here, against 218-271 with a NamedTuple per selection.
MAX_BUFFER_BYTES_PER_CHAR = 160


@pytest.fixture(scope="module")
def paragraphs():
    corpus = EbookCorpus.generate(n_books=4, paragraphs_per_book=50, seed=2016)
    out = [
        (f"{book.book_id}#p{i}", text, book.book_id)
        for book in corpus
        for i, text in enumerate(book.paragraphs)
    ]
    assert len(out) == 200
    return out


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def observe_all(engine, paragraphs):
    for segment_id, text, doc_id in paragraphs:
        engine.observe(segment_id, text, doc_id=doc_id)
    return engine


class TestTrackedObjectsPerSegment:
    def test_live_engine(self, paragraphs):
        engine = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        before = tracked_objects()
        observe_all(engine, paragraphs)
        added = tracked_objects() - before
        assert added / len(paragraphs) <= MAX_TRACKED_PER_SEGMENT, added

    def test_engine_restored_from_snapshot(self, paragraphs):
        live = observe_all(DisclosureEngine(PAPER_CONFIG, LogicalClock()), paragraphs)
        data = decode_snapshot(encode_snapshot(snapshot_engine(live)))
        before = tracked_objects()
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        added = tracked_objects() - before
        assert len(restored.segment_db) == len(paragraphs)
        assert added / len(paragraphs) <= MAX_TRACKED_PER_SEGMENT, added


class TestRetainedBytesPerHash:
    def test_engine_observing_from_text(self, paragraphs):
        """Everything the engine keeps once each fingerprint it computed
        is dropped: records, packed selections, the hash table and its
        keys."""
        engine = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            observe_all(engine, paragraphs)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_hash = grown / len(engine.hash_db)
        assert per_hash <= MAX_RETAINED_BYTES_PER_HASH, per_hash


class TestDatabaseBytesPerHash:
    def test_live_engine(self, paragraphs):
        engine = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        fingerprints = engine.fingerprinter.fingerprint_many(
            [text for _segment_id, text, _doc_id in paragraphs]
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for (segment_id, _text, doc_id), fingerprint in zip(
                paragraphs, fingerprints
            ):
                engine.observe_fingerprint(segment_id, fingerprint, doc_id=doc_id)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_hash = grown / len(engine.hash_db)
        assert per_hash <= MAX_DATABASE_BYTES_PER_HASH, per_hash


class TestFingerprintBytesPerSelection:
    def test_kernel_fingerprints(self, paragraphs):
        fingerprinter = Fingerprinter(PAPER_CONFIG)
        texts = [text for _segment_id, text, _doc_id in paragraphs]
        tracemalloc.start()
        try:
            # A first pass leaves the kernel's kept state, traced so that
            # the pass measured may replace it.
            fingerprinter.fingerprint_many(texts)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            fingerprints = fingerprinter.fingerprint_many(texts)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_selection = grown / sum(len(f.selections) for f in fingerprints)
        assert per_selection <= MAX_FINGERPRINT_BYTES_PER_SELECTION, per_selection


def owner_entries(engine) -> int:
    """Distinct owner-entry objects in *engine*'s hash database."""
    return len({
        id(entry)
        for shard in engine.hash_db.shards
        for entry in shard._oldest.values()
    })


class TestOwnerEntriesPerObservation:
    """The hashes one observation adds share one owner-entry tuple, not
    one tuple each, however the database was built."""

    def test_live_engine(self, paragraphs):
        engine = observe_all(DisclosureEngine(PAPER_CONFIG, LogicalClock()), paragraphs)
        assert len(engine.hash_db) > 10 * len(paragraphs)
        assert owner_entries(engine) <= len(paragraphs)

    def test_engine_replayed_from_its_log(self, paragraphs, tmp_path):
        observe_all(DurableEngine(tmp_path, config=PAPER_CONFIG), paragraphs).close()
        replayed = DurableEngine(tmp_path, config=PAPER_CONFIG)
        try:
            assert replayed.recovery.replayed == len(paragraphs)
            assert len(replayed.hash_db) > 10 * len(paragraphs)
            assert owner_entries(replayed) <= len(paragraphs)
        finally:
            replayed.close()

    def test_engine_restored_from_snapshot(self, paragraphs):
        live = observe_all(DisclosureEngine(PAPER_CONFIG, LogicalClock()), paragraphs)
        data = decode_snapshot(encode_snapshot(snapshot_engine(live)))
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        assert owner_entries(restored) <= len(paragraphs)


class TestEditBufferFootprint:
    def test_objects_and_bytes_of_one_buffer(self, paragraphs):
        text = max((text for _segment_id, text, _doc_id in paragraphs), key=len)
        EditBuffer(TINY_CONFIG, text).current()  # the per-config shared state
        before = tracked_objects()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            buffer = EditBuffer(TINY_CONFIG, text)
            selections = len(buffer.current().selections)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        added = tracked_objects() - before
        assert selections > 10 * MAX_TRACKED_PER_BUFFER
        assert added <= MAX_TRACKED_PER_BUFFER, added
        assert grown / len(text) <= MAX_BUFFER_BYTES_PER_CHAR, grown


class TestFlatSelectionsAreUntracked:
    """Every path that builds a fingerprint yields its selections packed
    in ``bytes``, which the collector never tracks."""

    TEXT = (
        "The acquisition target list stays confidential until the board "
        "signs off on the final offer and the lawyers close the deal."
    )

    def assert_untracked(self, fingerprint):
        assert fingerprint.flat_selections
        assert type(fingerprint.flat_selections) is bytes
        assert not gc.is_tracked(fingerprint.flat_selections)

    def test_kernel_and_reference_fingerprints(self):
        for mode in ("auto", "pure"):
            fingerprinter = Fingerprinter(PAPER_CONFIG, kernel_mode=mode)
            self.assert_untracked(fingerprinter.fingerprint(self.TEXT))
            for fingerprint in fingerprinter.fingerprint_many(
                [self.TEXT, self.TEXT.upper()]
            ):
                self.assert_untracked(fingerprint)
            self.assert_untracked(fingerprinter.fingerprint_reference(self.TEXT))

    def test_incremental_fingerprints(self):
        buffer = EditBuffer(PAPER_CONFIG, self.TEXT)
        self.assert_untracked(buffer.current())
        self.assert_untracked(buffer.update(self.TEXT.replace("board", "panel")))

    def test_restored_and_replayed_fingerprints(self, tmp_path):
        live = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        record = live.observe("s", self.TEXT)
        data = decode_snapshot(encode_snapshot(snapshot_engine(live)))
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        self.assert_untracked(restored.segment_db.get("s").fingerprint)
        # The replayed record is what the log's decoder returns for it.
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
        wal.append(
            "observe", kind="paragraph", id="s", doc_id=None,
            threshold=0.5, ts=0.0,
            selections=record.fingerprint.flat_selections,
        )
        wal.close()
        (logged,), _good, _torn = scan_wal_file(tmp_path / "wal.log")
        replayed = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        apply_record(logged, lambda kind: replayed)
        fingerprint = replayed.segment_db.get("s").fingerprint
        self.assert_untracked(fingerprint)
        assert fingerprint.flat_selections == record.fingerprint.flat_selections
        assert fingerprint.hashes == record.fingerprint.hashes


class TestRecurringSelection:
    """A hash value selected twice counts once, wherever the record came
    from: the stored count and the derived hash set are the distinct
    values, and removing the segment withdraws each value once, so its
    hashes and the ownership transitions match a hash database that was
    handed the distinct set, as the engine's calls were while records
    kept one."""

    PHRASE = "the quarterly numbers stay under embargo until the board signs off"
    RECURRING = (
        f"Draft notes for the planning meeting. {PHRASE}. Travel budgets "
        f"are frozen for the next two quarters while {PHRASE}, and legal "
        f"reviews every announcement before {PHRASE}."
    )
    SHARING = f"A separate memo repeats that {PHRASE} and nothing else changes this week."

    @pytest.fixture(scope="class")
    def fingerprints(self):
        fingerprinter = Fingerprinter(PAPER_CONFIG)
        recurring = fingerprinter.fingerprint(self.RECURRING)
        sharing = fingerprinter.fingerprint(self.SHARING)
        assert len(recurring.selections) > len(recurring.hashes)
        assert recurring.hashes & sharing.hashes
        return recurring, sharing

    def observe(self, engine):
        engine.observe("dup", self.RECURRING, doc_id="notes")
        engine.observe("memo", self.SHARING, doc_id="memo")
        return engine

    def reference(self, fingerprints) -> HashDatabase:
        """The hash database the two observations build from the
        distinct sets, before the removal."""
        recurring, sharing = fingerprints
        db = HashDatabase()
        db.record_fingerprint("dup", recurring.hashes, 0.0)
        db.record_fingerprint("memo", sharing.hashes, 1.0)
        return db

    def assert_matches(self, engine, fingerprints, counts_from_zero: bool):
        """*engine* holds the two observations; a restored one counts
        ownership transitions from zero, the others from its first
        observation."""
        recurring, sharing = fingerprints
        reference = self.reference(fingerprints)
        record = engine.segment_db.get("dup")
        assert record.hash_count == len(recurring.hashes)
        assert record.fingerprint == recurring
        assert len(record.hash_values) == len(recurring.selections)
        assert authoritative_hashes(record, engine.hash_db) == recurring.hashes
        before = engine.hash_db.ownership_changes
        assert before == (0 if counts_from_zero else reference.ownership_changes)
        observed = reference.ownership_changes
        engine.remove("dup")
        reference.withdraw("dup", recurring.hashes)
        for h in recurring.hashes | sharing.hashes:
            assert engine.hash_db.owners(h) == reference.owners(h)
        assert engine.hash_db.ownership_changes - before == (
            reference.ownership_changes - observed
        )
        engine.hash_db.check_invariants()

    def test_live_engine(self, fingerprints):
        engine = self.observe(DisclosureEngine(PAPER_CONFIG, LogicalClock()))
        self.assert_matches(engine, fingerprints, counts_from_zero=False)

    def test_engine_restored_from_snapshot(self, fingerprints):
        live = self.observe(DisclosureEngine(PAPER_CONFIG, LogicalClock()))
        data = decode_snapshot(encode_snapshot(snapshot_engine(live)))
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        self.assert_matches(restored, fingerprints, counts_from_zero=True)

    def test_engine_replayed_from_its_log(self, fingerprints, tmp_path):
        self.observe(DurableEngine(tmp_path, config=PAPER_CONFIG)).close()
        replayed = DurableEngine(tmp_path, config=PAPER_CONFIG)
        try:
            assert replayed.recovery.replayed == 2
            self.assert_matches(replayed, fingerprints, counts_from_zero=False)
        finally:
            replayed.close()
