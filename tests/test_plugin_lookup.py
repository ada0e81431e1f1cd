"""Tests for the policy lookup module (caching behaviour)."""

import pytest

from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.model import Suppression

from conftest import OTHER_TEXT, SECRET_TEXT

SRC = "https://src.example.com"
DST = "https://dst.example.com"


@pytest.fixture
def lookup():
    policies = PolicyStore()
    policies.register_service(SRC, privilege=Label.of("s"), confidentiality=Label.of("s"))
    policies.register_service(DST)
    model = TextDisclosureModel(policies, TINY_CONFIG)
    model.observe(SRC, "doc-src", [("doc-src#p0", SECRET_TEXT)])
    return PolicyLookup(model)


class TestLookup:
    def test_detects_violation(self, lookup):
        decision = lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        assert not decision.allowed

    def test_allows_clean_text(self, lookup):
        decision = lookup.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        assert decision.allowed

    def test_repeated_lookup_hits_cache(self, lookup):
        segments = [("d#p0", SECRET_TEXT)]
        first = lookup.lookup(DST, "d", segments)
        second = lookup.lookup(DST, "d", segments)
        assert second is first
        assert lookup.cache.hits == 1

    def test_text_change_misses_cache(self, lookup):
        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        lookup.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        assert lookup.cache.hits == 0
        assert lookup.cache.misses == 2

    def test_fingerprint_stable_keystroke_hits_cache(self, lookup):
        """A trailing keystroke that doesn't change the winnowed hashes
        reuses the previous decision (paper §6.2)."""
        engine = lookup.model.tracker.paragraphs
        base = SECRET_TEXT
        hits_before = lookup.cache.hits
        lookup.lookup(DST, "d", [("d#p0", base)])
        # Find a one-char extension that keeps the fingerprint identical.
        fp = engine.fingerprinter.fingerprint(base)
        for ch in "abcdefghij":
            if engine.fingerprinter.fingerprint(base + ch).hashes == fp.hashes:
                lookup.lookup(DST, "d", [("d#p0", base + ch)])
                assert lookup.cache.hits == hits_before + 1
                return
        pytest.skip("no fingerprint-stable keystroke found for this text")

    def test_new_observation_invalidates(self, lookup):
        segments = [("d#p0", OTHER_TEXT)]
        first = lookup.lookup(DST, "d", segments)
        lookup.model.observe(SRC, "doc2", [("doc2#p0", OTHER_TEXT)])
        second = lookup.lookup(DST, "d", segments)
        assert second is not first
        assert not second.allowed  # now a known source exists

    def test_label_change_invalidates(self, lookup):
        """A label-store mutation with no fingerprint delta must not be
        served a stale verdict (the §13 label-epoch key component).

        Regression: under sharded per-segment epochs this was the only
        verdict dependency not covered by the disclosure-database
        epochs, and the churn fleet diverged between tiers through it.
        """
        segments = [("d#p0", SECRET_TEXT)]
        first = lookup.lookup(DST, "d", segments)
        assert not first.allowed
        # Declassify the source outright: wipe its confidential label.
        from repro.tdm.labels import SegmentLabel

        lookup.model.set_label("doc-src#p0", SegmentLabel())
        lookup.model.set_label("doc-src", SegmentLabel())
        second = lookup.lookup(DST, "d", segments)
        assert second is not first
        assert second.allowed

    def test_tag_addition_invalidates(self, lookup):
        """add_tag_to_segment flips a cached allow to a block."""
        segments = [("d#p0", OTHER_TEXT)]
        lookup.model.observe(SRC, "doc2", [("doc2#p0", OTHER_TEXT)])
        first = lookup.lookup(DST, "d", segments)
        tag = lookup.model.allocate_custom_tag("project-x", owner="alice")
        lookup.model.add_tag_to_segment("doc2#p0", tag)
        # The tag write changed no fingerprint, but the key must churn:
        # a cached decision would be `second is first`.
        second = lookup.lookup(DST, "d", segments)
        assert second is not first
        assert tag in second.violations[0].label.full().tags

    def test_reobserving_public_text_keeps_cache_warm(self, lookup):
        """Label writes that don't change any label must not bump the
        epoch: re-observing public text leaves cached verdicts valid."""
        segments = [("d#p0", OTHER_TEXT)]
        lookup.model.observe(DST, "pub", [("pub#p0", OTHER_TEXT)])
        first = lookup.lookup(DST, "d", segments)
        epoch = lookup.model.label_epoch()
        lookup.model.observe(DST, "pub", [("pub#p0", OTHER_TEXT)])
        assert lookup.model.label_epoch() == epoch

    def test_suppressed_lookup_not_cached(self, lookup):
        suppression = Suppression.of("s", "alice", "approved")
        segments = [("d#p0", SECRET_TEXT)]
        decision = lookup.lookup(
            DST, "d", segments, suppressions={"d#p0": [suppression], "d": [suppression]}
        )
        assert decision.allowed
        # Without the suppression the cached path must not return the
        # declassified decision.
        decision2 = lookup.lookup(DST, "d", segments)
        assert not decision2.allowed


class TestStats:
    def test_combines_cache_and_engine_counters(self, lookup):
        segments = [("d#p0", SECRET_TEXT)]
        lookup.lookup(DST, "d", segments)
        lookup.lookup(DST, "d", segments)
        stats = lookup.stats()
        assert stats["decision_cache_hits"] == 1
        assert stats["decision_cache_misses"] == 1
        assert stats["decision_cache_hit_rate"] == 0.5
        # Engine counters sum both granularities and reflect the sweep.
        assert stats["engine_segments"] >= 1
        assert stats["engine_queries"] >= 1
        assert stats["engine_candidates_swept"] >= 1
        assert "engine_ownership_changes" in stats

    def test_surfaces_evictions_and_lock_counters(self):
        from repro.plugin.cache import DecisionCache

        policies = PolicyStore()
        policies.register_service(DST)
        model = TextDisclosureModel(policies, TINY_CONFIG)
        lookup = PolicyLookup(model, cache=DecisionCache(capacity=1))
        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        lookup.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        stats = lookup.stats()
        # Two distinct fingerprints through a 1-entry cache: the second
        # put must have dropped the first for capacity.
        assert stats["decision_cache_evictions"] == 1
        assert stats["decision_cache_misses"] == 2
        # The tracker's reader-writer lock counters ride along (nested
        # reentrant acquisitions each count, so >= one per lookup).
        assert stats["lock_read_acquisitions"] >= 2
        assert stats["lock_write_acquisitions"] == 0


class TestThresholdChangeInvalidates:
    """A source's threshold is part of every verdict it can flip, so a
    change to it must not leave a cached decision behind."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("change", ["reobserve", "set_threshold"])
    def test_raised_threshold_releases_a_cached_block(self, n_shards, change):
        policies = PolicyStore()
        policies.register_service(
            SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
        )
        policies.register_service(DST)
        model = TextDisclosureModel(policies, TINY_CONFIG, n_shards=n_shards)
        source = [("wiki#p0", SECRET_TEXT), ("wiki#p1", OTHER_TEXT)]
        model.observe(SRC, "wiki", source, paragraph_threshold=0.3)
        words = SECRET_TEXT.split()
        upload = [("up#p0", " ".join(words[: len(words) // 2 + 1]))]
        lookup = PolicyLookup(model)
        assert not lookup.lookup(DST, "up", upload).allowed

        if change == "reobserve":
            model.observe(SRC, "wiki", source, paragraph_threshold=0.99)
        else:
            model.tracker.paragraphs.set_threshold("wiki#p0", 0.99)
        # The uncached check allows the upload now; so must the lookup.
        assert model.check_upload(DST, "up", upload).allowed
        assert lookup.lookup(DST, "up", upload).allowed
