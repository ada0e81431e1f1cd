"""Regression test: a fingerprint store is small and adds few GC-tracked
objects.

CPython's cyclic collector walks every tracked container on each full
pass, and the passes a recovery triggers grow with that population. A
fingerprint keeps its selections packed in one ``bytes``, which the
collector never tracks, and the hash database keeps a hash with one
observer as an owner-entry tuple of a float and a string, which is
untracked too. What stays tracked is about three containers per segment
(its record, fingerprint and hash set), not one object per selection as
when each selection was its own instance, nor per-segment index sets in
the hash database. The bound holds for a live engine and for one
rebuilt from its snapshot. The hashes one observation records share one
owner-entry tuple, in a live engine and in one that replays its log.

The databases' memory is bounded too, per distinct hash, measured with
``tracemalloc`` as DESIGN.md §7 does: fingerprint the paragraphs, then
observe them, and divide the traced growth by the distinct hashes. So
is the fingerprints' memory, per selection.

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
from repro.disclosure.persistence import (
    decode_snapshot,
    encode_snapshot,
    restore_into,
    snapshot_engine,
)
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

#: Tracked objects one stored segment may add, all-in: about 3.0 live
#: and 3.4 restored, against 5.0 and 5.4 while the hash database kept
#: per-segment owned and observed sets.
MAX_TRACKED_PER_SEGMENT = 4
#: Bytes the engine databases may hold per distinct hash on this corpus:
#: about 59 here on Python 3.11 and 3.12, against 113 with one
#: owner-entry tuple per hash and 258 with the per-segment sets and
#: epochs.
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
