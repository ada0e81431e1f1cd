"""Regression test: a fingerprint store adds few GC-tracked objects.

CPython's cyclic collector walks every tracked container on each full
pass, and the passes a recovery triggers grow with that population. A
fingerprint keeps its selections as one flat tuple of ints, which the
collector stops tracking after its first pass, and the hash database
keeps a hash with one observer as an owner-entry tuple of a float and a
string, which is untracked too. What stays tracked is a handful of
containers per segment (its record, fingerprint, hash set and index
sets), not one object per selection as when each selection was its own
instance. The bound holds for a live engine and for one rebuilt from
its snapshot.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro import DisclosureEngine
from repro.datasets import EbookCorpus
from repro.disclosure.persistence import restore_into, snapshot_engine
from repro.disclosure.wal import apply_record
from repro.fingerprint import Fingerprinter
from repro.fingerprint.config import PAPER_CONFIG
from repro.fingerprint.incremental import EditBuffer
from repro.util.clock import LogicalClock

#: Tracked objects one stored segment may add, all-in.
MAX_TRACKED_PER_SEGMENT = 8


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
        data = json.loads(json.dumps(snapshot_engine(live)))
        before = tracked_objects()
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        added = tracked_objects() - before
        assert len(restored.segment_db) == len(paragraphs)
        assert added / len(paragraphs) <= MAX_TRACKED_PER_SEGMENT, added


class TestFlatSelectionsAreUntracked:
    """Every path that builds a fingerprint yields a plain int tuple the
    collector drops after one pass."""

    TEXT = (
        "The acquisition target list stays confidential until the board "
        "signs off on the final offer and the lawyers close the deal."
    )

    def assert_untracked(self, fingerprint):
        assert fingerprint.flat_selections
        assert type(fingerprint.flat_selections) is tuple
        gc.collect()
        assert not gc.is_tracked(fingerprint.flat_selections)

    def test_kernel_and_reference_fingerprints(self):
        fingerprinter = Fingerprinter(PAPER_CONFIG)
        self.assert_untracked(fingerprinter.fingerprint(self.TEXT))
        self.assert_untracked(fingerprinter.fingerprint_reference(self.TEXT))

    def test_incremental_fingerprints(self):
        buffer = EditBuffer(PAPER_CONFIG, self.TEXT)
        self.assert_untracked(buffer.current())
        self.assert_untracked(buffer.update(self.TEXT.replace("board", "panel")))

    def test_restored_and_replayed_fingerprints(self):
        live = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        record = live.observe("s", self.TEXT)
        data = json.loads(json.dumps(snapshot_engine(live)))
        restored = restore_into(DisclosureEngine(PAPER_CONFIG, LogicalClock()), data)
        self.assert_untracked(restored.segment_db.get("s").fingerprint)
        flat = record.fingerprint.flat_selections
        replayed = DisclosureEngine(PAPER_CONFIG, LogicalClock())
        apply_record(
            {
                "lsn": 1, "op": "observe", "kind": "paragraph", "id": "s",
                "doc_id": None, "threshold": 0.5, "ts": 0.0,
                "selections": [list(flat[i:i + 3]) for i in range(0, len(flat), 3)],
            },
            lambda kind: replayed,
        )
        self.assert_untracked(replayed.segment_db.get("s").fingerprint)
