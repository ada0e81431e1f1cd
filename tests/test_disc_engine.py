"""Tests for the disclosure engine (Algorithm 1, incremental updates)."""

import dataclasses

import pytest

from repro.disclosure import DisclosureEngine
from repro.disclosure.sharding import STRIPES
from repro.errors import DisclosureError, UnknownSegmentError
from repro.fingerprint import Fingerprinter
from repro.fingerprint.config import PAPER_CONFIG, TINY_CONFIG
from repro.obs import NULL_REGISTRY
from repro.util.clock import LogicalClock

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT


@pytest.fixture
def engine():
    return DisclosureEngine(TINY_CONFIG, LogicalClock())


class TestObserve:
    def test_observe_creates_record(self, engine):
        record = engine.observe("s1", SECRET_TEXT)
        assert record.segment_id == "s1"
        assert not record.fingerprint.is_empty()
        assert len(engine) == 1

    def test_observe_updates_record(self, engine):
        engine.observe("s1", SECRET_TEXT)
        updated = engine.observe("s1", OTHER_TEXT)
        assert engine.segment_db.get("s1") is updated
        assert len(engine) == 1

    def test_observe_records_hashes(self, engine):
        record = engine.observe("s1", SECRET_TEXT)
        for h in record.fingerprint.hashes:
            assert engine.hash_db.oldest_owner(h) == "s1"

    def test_reobservation_keeps_first_timestamps(self, engine):
        record = engine.observe("s1", SECRET_TEXT)
        some_hash = next(iter(record.fingerprint.hashes))
        first = engine.hash_db.first_seen(some_hash, "s1")
        engine.observe("s1", SECRET_TEXT)
        assert engine.hash_db.first_seen(some_hash, "s1") == first

    def test_invalid_threshold_rejected(self, engine):
        with pytest.raises(DisclosureError):
            engine.observe("s1", SECRET_TEXT, threshold=1.5)

    def test_doc_id_recorded(self, engine):
        record = engine.observe("s1", SECRET_TEXT, doc_id="doc-9")
        assert record.doc_id == "doc-9"

    def test_doc_id_preserved_when_not_repassed(self, engine):
        engine.observe("s1", SECRET_TEXT, doc_id="doc-9")
        updated = engine.observe("s1", SECRET_TEXT + " more")
        assert updated.doc_id == "doc-9"

    def test_fingerprint_of_another_config_rejected(self, engine):
        # Hashes computed under other parameters are not comparable with
        # the stored ones; storing them would poison the hash database.
        foreign = Fingerprinter(PAPER_CONFIG).fingerprint(SECRET_TEXT)
        with pytest.raises(DisclosureError, match="config"):
            engine.observe_fingerprint("s1", foreign)
        assert len(engine) == 0
        assert len(engine.hash_db) == 0
        # An equal config built separately is the same config.
        twin = Fingerprinter(dataclasses.replace(TINY_CONFIG))
        assert twin.config is not engine.config
        record = engine.observe_fingerprint("s1", twin.fingerprint(SECRET_TEXT))
        assert record.fingerprint.config == engine.config


class TestRemove:
    def test_remove_forgets_segment(self, engine):
        engine.observe("s1", SECRET_TEXT)
        engine.remove("s1")
        assert len(engine) == 0
        with pytest.raises(UnknownSegmentError):
            engine.segment_db.get("s1")

    def test_remove_releases_ownership(self, engine):
        engine.observe("first", SECRET_TEXT)
        engine.observe("second", SECRET_TEXT)
        engine.remove("first")
        record = engine.segment_db.get("second")
        for h in record.fingerprint.hashes:
            assert engine.hash_db.oldest_owner(h) == "second"

    def test_remove_unknown_raises(self, engine):
        with pytest.raises(UnknownSegmentError):
            engine.remove("ghost")


class TestSetThreshold:
    def test_updates_threshold(self, engine):
        engine.observe("s1", SECRET_TEXT, threshold=0.5)
        engine.set_threshold("s1", 0.9)
        assert engine.segment_db.get("s1").threshold == 0.9

    def test_invalid_value(self, engine):
        engine.observe("s1", SECRET_TEXT)
        with pytest.raises(DisclosureError):
            engine.set_threshold("s1", -0.1)

    def test_affects_detection(self, engine):
        engine.observe("s1", SECRET_TEXT, threshold=0.99)
        # A partial copy no longer triggers at threshold 0.99 ...
        partial = SECRET_TEXT[: len(SECRET_TEXT) // 2]
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(partial))
        assert not report.disclosing
        # ... but does after lowering the threshold.
        engine.set_threshold("s1", 0.2)
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(partial))
        assert report.source_ids() == ["s1"]

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("change", ["set_threshold", "reobserve", "doc_id"])
    def test_record_changes_stamp_the_segment_hashes(self, n_shards, change):
        """The threshold pass reads a source's threshold and document, so
        changing either must stamp the hashes a verdict reached it by,
        and a no-op must stamp nothing."""
        engine = DisclosureEngine(TINY_CONFIG, n_shards=n_shards)
        engine.observe("s1", SECRET_TEXT, threshold=0.3, doc_id="d1")
        hashes = engine.fingerprint(SECRET_TEXT[: len(SECRET_TEXT) // 2]).hashes
        stamps = engine.stamps
        checked_at = stamps.version
        assert stamps.unchanged_since(checked_at, hashes, ())
        engine.set_threshold("s1", 0.3)  # no change: nothing stamped
        engine.observe("s1", SECRET_TEXT, threshold=0.3, doc_id="d1")
        assert stamps.version == checked_at
        if change == "set_threshold":
            engine.set_threshold("s1", 0.99)
        elif change == "reobserve":
            engine.observe("s1", SECRET_TEXT, threshold=0.99, doc_id="d1")
        else:
            engine.observe("s1", SECRET_TEXT, threshold=0.3, doc_id="d2")
        assert stamps.version > checked_at
        assert not stamps.unchanged_since(checked_at, hashes, ())
        # Stripes the segment's hashes do not fall in are left alone.
        held = {h % STRIPES for h in engine.fingerprint(SECRET_TEXT).hashes}
        other = [
            h for h in engine.fingerprint(OTHER_TEXT).hashes
            if h % STRIPES not in held
        ]
        assert other and stamps.unchanged_since(checked_at, other, ())


class TestDisclosureBetween:
    def test_copy_scores_one(self, engine):
        engine.observe("src", SECRET_TEXT)
        engine.observe("dst", SECRET_TEXT)
        assert engine.disclosure_between("src", "dst") == 1.0

    def test_unrelated_scores_zero(self, engine):
        engine.observe("src", SECRET_TEXT)
        engine.observe("dst", OTHER_TEXT)
        assert engine.disclosure_between("src", "dst") == 0.0

    def test_unknown_segment_raises(self, engine):
        engine.observe("src", SECRET_TEXT)
        with pytest.raises(UnknownSegmentError):
            engine.disclosure_between("src", "missing")


class TestAlgorithm1:
    def test_detects_copy(self, engine):
        engine.observe("src", SECRET_TEXT)
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(SECRET_TEXT))
        assert report.source_ids() == ["src"]
        assert report.sources[0].score == 1.0

    def test_no_sources_for_unrelated(self, engine):
        engine.observe("src", SECRET_TEXT)
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(OTHER_TEXT))
        assert not report.disclosing

    def test_detects_embedded_copy(self, engine):
        engine.observe("src", SECRET_TEXT)
        combined = OTHER_TEXT + " " + SECRET_TEXT + " " + THIRD_TEXT
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(combined))
        assert "src" in report.source_ids()

    def test_modified_text_below_threshold_not_reported(self, engine):
        engine.observe("src", SECRET_TEXT, threshold=0.5)
        words = SECRET_TEXT.split()
        # Replace most words: similarity falls below 50%.
        mangled = " ".join(
            w if i % 3 == 0 else "changed" for i, w in enumerate(words)
        )
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(mangled))
        assert not report.disclosing

    def test_self_excluded_for_tracked_target(self, engine):
        engine.observe("solo", SECRET_TEXT)
        report = engine.disclosing_sources("solo")
        assert "solo" not in report.source_ids()

    def test_multiple_sources(self, engine):
        engine.observe("a", SECRET_TEXT)
        engine.observe("b", OTHER_TEXT)
        combined = SECRET_TEXT + " " + OTHER_TEXT
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(combined))
        assert set(report.source_ids()) == {"a", "b"}

    def test_sources_sorted_by_score(self, engine):
        engine.observe("full", SECRET_TEXT)
        engine.observe("partial", THIRD_TEXT)
        target = SECRET_TEXT + " " + THIRD_TEXT[: len(THIRD_TEXT) * 2 // 3]
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(target))
        scores = [s.score for s in report.sources]
        assert scores == sorted(scores, reverse=True)

    def test_requires_exactly_one_target_form(self, engine):
        engine.observe("a", SECRET_TEXT)
        with pytest.raises(DisclosureError):
            engine.disclosing_sources()
        with pytest.raises(DisclosureError):
            engine.disclosing_sources("a", fingerprint=engine.fingerprint("x"))

    def test_exclude_doc_filters_sources(self, engine):
        engine.observe("p1", SECRET_TEXT, doc_id="docA")
        report = engine.disclosing_sources(
            fingerprint=engine.fingerprint(SECRET_TEXT), exclude_doc="docA"
        )
        assert not report.disclosing

    def test_quick_discard_counts(self, engine):
        # A source much longer than the target cannot meet a 0.5
        # threshold; it must be discarded without a full scan.
        engine.observe("long", " ".join([SECRET_TEXT, OTHER_TEXT, THIRD_TEXT]))
        short = SECRET_TEXT[:60]
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(short))
        assert not report.disclosing

    def test_matched_hashes_subset_of_both(self, engine):
        engine.observe("src", SECRET_TEXT)
        target_fp = engine.fingerprint(SECRET_TEXT + " with a small extra tail")
        report = engine.disclosing_sources(fingerprint=target_fp)
        source = report.sources[0]
        src_fp = engine.segment_db.get("src").fingerprint
        assert source.matched_hashes <= src_fp.hashes
        assert source.matched_hashes <= target_fp.hashes


class TestFigure7Overlap:
    def test_superset_not_blamed(self, engine):
        """Paper Figure 7: C copies A; B (a superset of A) is not blamed."""
        engine.observe("A", SECRET_TEXT, threshold=0.5)
        engine.observe("B", SECRET_TEXT + " " + OTHER_TEXT, threshold=0.5)
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(SECRET_TEXT))
        assert report.source_ids() == ["A"]

    def test_without_authoritative_superset_is_blamed(self):
        # B's raw containment in the target is ~0.5 (half of B is the
        # secret), so use a threshold safely below that boundary.
        engine = DisclosureEngine(TINY_CONFIG, authoritative=False)
        engine.observe("A", SECRET_TEXT, threshold=0.3)
        engine.observe("B", SECRET_TEXT + " " + OTHER_TEXT, threshold=0.3)
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(SECRET_TEXT))
        assert set(report.source_ids()) == {"A", "B"}


class TestQueryCache:
    def test_cache_invalidated_by_new_observation(self, engine):
        engine.observe("src", SECRET_TEXT)
        engine.observe("target", SECRET_TEXT + " " + OTHER_TEXT)
        first = engine.disclosing_sources("target")
        engine.observe("other", OTHER_TEXT)  # changes ownership landscape
        second = engine.disclosing_sources("target")
        assert second is not first

    def test_cache_invalidated_by_target_edit(self, engine):
        engine.observe("src", SECRET_TEXT)
        engine.observe("target", SECRET_TEXT)
        first = engine.disclosing_sources("target")
        engine.observe("target", OTHER_TEXT)
        second = engine.disclosing_sources("target")
        assert second is not first
        assert not second.disclosing


class TestStats:
    def test_counters(self, engine):
        counters = engine.metrics.snapshot()
        assert counters["segments"] == 0
        assert counters["distinct_hashes"] == 0
        assert counters["queries"] == 0
        assert counters["shards"] == 1
        engine.observe("s", SECRET_TEXT)
        counters = engine.metrics.snapshot()
        assert counters["segments"] == 1
        assert counters["distinct_hashes"] == len(engine.hash_db) > 0

    def test_query_counters(self, engine):
        engine.observe("s", SECRET_TEXT)
        engine.disclosing_sources("s")
        counters = engine.metrics.snapshot()
        assert counters["queries"] == 1
        assert counters["candidates_swept"] == 1
        # Queries by target id are not cached: the second sweeps again.
        engine.disclosing_sources("s")
        counters = engine.metrics.snapshot()
        assert counters["queries"] == 2
        assert counters["candidates_swept"] == 2

    def test_ownership_change_counter(self, engine):
        ownership_changes = lambda: engine.metrics.snapshot()["ownership_changes"]
        engine.observe("old", SECRET_TEXT)
        before = ownership_changes()
        engine.observe("young", SECRET_TEXT)
        # The younger twin claims nothing: no ownership transitions.
        assert ownership_changes() == before
        engine.observe("old", OTHER_TEXT)
        # The edit withdraws "old"'s claims; authority migrates.
        assert ownership_changes() > before

    def test_counters_off_engine_reports_nothing(self):
        engine = DisclosureEngine(TINY_CONFIG, registry=NULL_REGISTRY)
        engine.observe("s", SECRET_TEXT)
        engine.disclosing_sources("s")
        assert engine.metrics.snapshot() == {}
        # Sizes are read from the databases themselves.
        assert len(engine.segment_db) == 1
        assert len(engine.hash_db) > 0
