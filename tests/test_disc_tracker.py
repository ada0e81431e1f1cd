"""Tests for dual-granularity tracking (DisclosureTracker)."""

import pytest

from repro.disclosure import DisclosureTracker
from repro.errors import DisclosureError
from repro.fingerprint.config import TINY_CONFIG

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT


@pytest.fixture
def tracker():
    return DisclosureTracker(TINY_CONFIG)


def pars(doc, *texts):
    return [(f"{doc}#p{i}", t) for i, t in enumerate(texts)]


class TestObserveDocument:
    def test_observes_both_granularities(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT, OTHER_TEXT))
        assert len(tracker.paragraphs) == 2
        assert len(tracker.documents) == 1

    def test_paragraphs_carry_doc_id(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT))
        assert tracker.paragraphs.segment_db.get("d1#p0").doc_id == "d1"

    def test_custom_thresholds(self, tracker):
        tracker.observe_document(
            "d1",
            pars("d1", SECRET_TEXT),
            paragraph_threshold=0.3,
            document_threshold=0.7,
        )
        assert tracker.paragraphs.segment_db.get("d1#p0").threshold == 0.3
        assert tracker.documents.segment_db.get("d1").threshold == 0.7

    def test_misaligned_fingerprints_rejected(self, tracker):
        paragraphs = pars("d1", SECRET_TEXT, OTHER_TEXT)
        fingerprints = [tracker.paragraphs.fingerprint(SECRET_TEXT)]
        with pytest.raises(DisclosureError, match="got 1 fingerprints for 2"):
            tracker.observe_document("d1", paragraphs, fingerprints=fingerprints)
        assert len(tracker.paragraphs) == 0
        assert len(tracker.documents) == 0

    def test_passed_fingerprints_stored_as_computed(self, tracker):
        paragraphs = pars("d1", SECRET_TEXT)
        fingerprint = tracker.paragraphs.fingerprint(SECRET_TEXT)
        tracker.observe_document("d1", paragraphs, fingerprints=[fingerprint])
        # One paragraph: the document fingerprint is the paragraph's, and
        # both records keep its selection bytes, not a copy.
        flat = fingerprint.flat_selections
        assert tracker.paragraphs.segment_db.get("d1#p0").flat_selections is flat
        assert tracker.documents.segment_db.get("d1").flat_selections is flat
        fresh = DisclosureTracker(TINY_CONFIG)
        fresh.observe_document("d1", paragraphs)
        assert fresh.documents.segment_db.get("d1").fingerprint == fingerprint


class TestCheckDocument:
    def test_paragraph_copy_detected(self, tracker):
        tracker.observe_document("src", pars("src", SECRET_TEXT, OTHER_TEXT))
        report = tracker.check_document("new", pars("new", SECRET_TEXT))
        assert report.disclosing
        par_sources = [s.segment_id for _pid, r in report.paragraph_reports for s in r.sources]
        assert "src#p0" in par_sources

    def test_own_document_excluded(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT, OTHER_TEXT))
        report = tracker.check_document("d1", pars("d1", SECRET_TEXT, OTHER_TEXT))
        assert not report.disclosing

    def test_unrelated_clean(self, tracker):
        tracker.observe_document("src", pars("src", SECRET_TEXT))
        report = tracker.check_document("new", pars("new", THIRD_TEXT))
        assert not report.disclosing

    def test_document_requirement_catches_spread(self, tracker):
        """One sentence from each paragraph leaks across the document.

        Each individual fragment stays under the paragraph threshold,
        but together they cross the document threshold — the case the
        paper's dual granularity exists for (§4.1).
        """
        a = SECRET_TEXT + " " + THIRD_TEXT
        b = OTHER_TEXT + " " + "The schedule for maintenance windows rotates monthly between the two regions."
        tracker.observe_document(
            "src",
            pars("src", a, b),
            paragraph_threshold=0.9,
            document_threshold=0.4,
        )
        # Take about half of each source paragraph.
        leak = (
            SECRET_TEXT
            + " "
            + OTHER_TEXT
        )
        report = tracker.check_document("new", pars("new", leak))
        assert report.document_report is not None
        assert report.document_report.disclosing
        # Paragraph granularity alone would have missed it.
        par_hits = [s for _pid, r in report.paragraph_reports for s in r.sources]
        assert not par_hits

    def test_check_does_not_observe(self, tracker):
        tracker.observe_document("src", pars("src", SECRET_TEXT))
        state_keys = ("segments", "distinct_hashes", "ownership_changes")
        before = tracker.paragraphs.metrics.snapshot()
        version = tracker.stamps.version
        tracker.check_document("probe", pars("probe", OTHER_TEXT))
        after = tracker.paragraphs.metrics.snapshot()
        # Query counters move; the database state and the stamp version
        # (which moves on any hash/segment association change) must not.
        assert {k: after[k] for k in state_keys} == {
            k: before[k] for k in state_keys
        }
        assert tracker.stamps.version == version

    def test_all_sources_accumulates(self, tracker):
        tracker.observe_document("src", pars("src", SECRET_TEXT))
        report = tracker.check_document("new", pars("new", SECRET_TEXT))
        assert {s.segment_id for s in report.all_sources()} >= {"src#p0"}


class TestRemoveDocument:
    def test_removes_everything(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT, OTHER_TEXT))
        tracker.remove_document("d1")
        assert len(tracker.paragraphs) == 0
        assert len(tracker.documents) == 0

    def test_other_documents_untouched(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT))
        tracker.observe_document("d2", pars("d2", OTHER_TEXT))
        tracker.remove_document("d1")
        assert len(tracker.paragraphs) == 1
        assert tracker.paragraphs.segment_db.find("d2#p0") is not None

    def test_removed_document_no_longer_reported(self, tracker):
        tracker.observe_document("d1", pars("d1", SECRET_TEXT))
        tracker.remove_document("d1")
        report = tracker.check_document("new", pars("new", SECRET_TEXT))
        assert not report.disclosing


class TestThresholdProperties:
    def test_defaults(self):
        tracker = DisclosureTracker(TINY_CONFIG)
        assert tracker.paragraph_threshold == 0.5
        assert tracker.document_threshold == 0.5

    def test_custom(self):
        tracker = DisclosureTracker(
            TINY_CONFIG, paragraph_threshold=0.2, document_threshold=0.8
        )
        assert tracker.paragraph_threshold == 0.2
        assert tracker.document_threshold == 0.8
