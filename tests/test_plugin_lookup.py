"""Tests for the policy lookup module (caching behaviour)."""

import pytest

from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.model import Suppression

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT

SRC = "https://src.example.com"
DST = "https://dst.example.com"


def _build_stripes(model) -> None:
    """Build the stamp store's stripes now, as a first revalidation
    would: an entry cached after this is rejected by the stripes a
    write stamps, not by the build floor."""
    model.tracker.stamps.unchanged_since(0, (), ())


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
        assert lookup.cache.metrics.snapshot()["hits"] == 1

    def test_text_change_misses_cache(self, lookup):
        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        lookup.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        assert lookup.cache.metrics.snapshot()["hits"] == 0
        assert lookup.cache.metrics.snapshot()["misses"] == 2

    def test_fingerprint_stable_keystroke_hits_cache(self, lookup):
        """A trailing keystroke that doesn't change the winnowed hashes
        reuses the previous decision (paper §6.2)."""
        engine = lookup.model.tracker.paragraphs
        base = SECRET_TEXT
        hits_before = lookup.cache.metrics.snapshot()["hits"]
        lookup.lookup(DST, "d", [("d#p0", base)])
        # Find a one-char extension that keeps the fingerprint identical.
        fp = engine.fingerprinter.fingerprint(base)
        for ch in "abcdefghij":
            if engine.fingerprinter.fingerprint(base + ch).hashes == fp.hashes:
                lookup.lookup(DST, "d", [("d#p0", base + ch)])
                assert lookup.cache.metrics.snapshot()["hits"] == hits_before + 1
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
        served a stale verdict: a source's label change stamps its
        hashes (§13).

        Regression: under sharded per-segment epochs this was the only
        verdict dependency not covered by the disclosure-database
        epochs, and the churn fleet diverged between tiers through it.
        """
        segments = [("d#p0", SECRET_TEXT)]
        _build_stripes(lookup.model)
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
        """Label writes that don't change any label stamp nothing:
        re-observing public text leaves cached verdicts valid."""
        segments = [("d#p0", OTHER_TEXT)]
        lookup.model.observe(DST, "pub", [("pub#p0", OTHER_TEXT)])
        first = lookup.lookup(DST, "d", segments)
        version = lookup.model.tracker.stamps.version
        lookup.model.observe(DST, "pub", [("pub#p0", OTHER_TEXT)])
        assert lookup.model.tracker.stamps.version == version
        assert lookup.lookup(DST, "d", segments) is first

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
        snapshot = lookup.model.registry.snapshot()
        assert snapshot["decision_cache.hits"] == 1
        assert snapshot["decision_cache.misses"] == 1
        # Both granularities' engine counters reflect the sweep.
        engine = lambda name: (
            snapshot[f"engine.paragraph.{name}"]
            + snapshot[f"engine.document.{name}"]
        )
        assert engine("segments") >= 1
        assert engine("queries") >= 1
        assert engine("candidates_swept") >= 1
        assert "engine.paragraph.ownership_changes" in snapshot

    def test_surfaces_evictions_and_lock_counters(self):
        from repro.plugin.cache import DecisionCache

        policies = PolicyStore()
        policies.register_service(DST)
        model = TextDisclosureModel(policies, TINY_CONFIG)
        lookup = PolicyLookup(model, cache=DecisionCache(capacity=1))
        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        lookup.lookup(DST, "d", [("d#p0", OTHER_TEXT)])
        # Two distinct fingerprints through a 1-entry cache: the second
        # put must have dropped the first for capacity.
        cache = lookup.cache.metrics.snapshot()
        assert cache["evictions"] == 1
        assert cache["misses"] == 2
        # The tracker's reader-writer lock counters (nested reentrant
        # acquisitions each count, so >= one per lookup).
        snapshot = model.registry.snapshot()
        assert snapshot["lock.read_acquisitions"] >= 2
        assert snapshot["lock.write_acquisitions"] == 0


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


def _wiki_and_docs(n_shards):
    """The wiki (``Lp = Lc = {tw}``) and Docs (``Lp = {tw}``)."""
    policies = PolicyStore()
    policies.register_service(
        SRC, privilege=Label.of("tw"), confidentiality=Label.of("tw")
    )
    policies.register_service(DST, privilege=Label.of("tw"))
    model = TextDisclosureModel(policies, TINY_CONFIG, n_shards=n_shards)
    model.observe(SRC, "wiki", [("wiki#p0", SECRET_TEXT)])
    return model


class TestPrivilegeChangeInvalidates:
    """The target's privilege label decides every verdict, so a grant or
    revoke must not leave a cached decision behind: the key carries the
    policy store's registration count."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_revoke_then_grant(self, n_shards):
        model = _wiki_and_docs(n_shards)
        lookup = PolicyLookup(model)
        upload = [("docs|d#p0", SECRET_TEXT)]
        assert lookup.lookup(DST, "docs|d", upload).allowed

        model.policies.revoke_privilege(DST, "tw")
        assert not model.check_upload(DST, "docs|d", upload).allowed
        assert not lookup.lookup(DST, "docs|d", upload).allowed

        model.policies.grant_privilege(DST, "tw")
        assert model.check_upload(DST, "docs|d", upload).allowed
        assert lookup.lookup(DST, "docs|d", upload).allowed

    def test_registrations_count_every_register(self):
        policies = PolicyStore()
        assert policies.registrations == 0
        policies.register_service(DST, privilege=Label.of("tw"))
        policies.revoke_privilege(DST, "tw")
        policies.grant_privilege(DST, "tw")
        assert policies.registrations == 3


class TestRevalidation:
    """A cached one-paragraph verdict survives writes that touch none of
    what it read, and is never handed to another paragraph."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_unrelated_write_keeps_the_verdict(self, n_shards):
        model = _wiki_and_docs(n_shards)
        lookup = PolicyLookup(model)
        upload = [("docs|d#p0", SECRET_TEXT)]
        lookup.lookup(DST, "docs|d", upload)
        model.observe(SRC, "other", [("other#p0", THIRD_TEXT)])
        # The first revalidation creates the stripes, stamped with the
        # current version, so it recomputes.
        first = lookup.lookup(DST, "docs|d", upload)
        model.observe(SRC, "more", [("more#p0", OTHER_TEXT)])
        assert lookup.lookup(DST, "docs|d", upload) is first
        counters = lookup.cache.metrics.snapshot()
        assert (counters["hits"], counters["misses"]) == (1, 2)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_no_decision_for_another_paragraph_after_a_write(self, n_shards):
        """Same document, same text, another paragraph id: once anything
        was written in between, the lookup recomputes for the paragraph
        it was asked about (the key names the document only)."""
        model = _wiki_and_docs(n_shards)
        lookup = PolicyLookup(model)
        lookup.lookup(DST, "docs|e", [("docs|e#p1", SECRET_TEXT)])
        model.observe(SRC, "other", [("other#p0", THIRD_TEXT)])
        # Revalidated from here on: the first revalidation created the
        # stripes and recomputed.
        first = lookup.lookup(DST, "docs|e", [("docs|e#p1", SECRET_TEXT)])
        assert set(first.labels) == {"docs|e#p1", "docs|e"}
        model.observe(SRC, "more", [("more#p0", OTHER_TEXT)])
        second = lookup.lookup(DST, "docs|e", [("docs|e#p2", SECRET_TEXT)])
        assert set(second.labels) == {"docs|e#p2", "docs|e"}
        assert second == model.check_upload(
            DST, "docs|e", [("docs|e#p2", SECRET_TEXT)]
        )
        # The entry now holds p2's decision, served to p2 across a write.
        model.observe(SRC, "third", [("third#p0", OTHER_TEXT + " again")])
        assert lookup.lookup(DST, "docs|e", [("docs|e#p2", SECRET_TEXT)]) is second

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_own_label_change_rejects_the_entry(self, n_shards):
        model = _wiki_and_docs(n_shards)
        lookup = PolicyLookup(model)
        upload = [("docs|d#p0", OTHER_TEXT)]
        assert lookup.lookup(DST, "docs|d", upload).allowed
        tag = model.allocate_custom_tag("project-x", owner="alice")
        model.add_tag_to_segment("docs|d#p0", tag)
        decision = lookup.lookup(DST, "docs|d", upload)
        assert decision == model.check_upload(DST, "docs|d", upload)
        assert not decision.allowed

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_own_label_change_rejects_an_entry_with_no_hashes(self, n_shards):
        """A paragraph shorter than one n-gram fingerprints to nothing,
        so no hash stripe can reject its cached verdict: its own label
        stamp must, also when another entry built the stripes in
        between."""
        model = _wiki_and_docs(n_shards)
        lookup = PolicyLookup(model)
        short = [("docs|d#p0", "hi")]
        assert not model.tracker.paragraphs.fingerprint("hi").hashes
        other = [("docs|e#p0", OTHER_TEXT)]
        assert lookup.lookup(DST, "docs|d", short).allowed
        lookup.lookup(DST, "docs|e", other)
        tag = model.allocate_custom_tag("project-x", owner="alice")
        model.add_tag_to_segment("docs|d#p0", tag)
        lookup.lookup(DST, "docs|e", other)
        decision = lookup.lookup(DST, "docs|d", short)
        assert decision == model.check_upload(DST, "docs|d", short)
        assert not decision.allowed
        # Once the stripes exist, the same change is caught by the
        # segment's own stamp alone.
        lookup.lookup(DST, "docs|f", [("docs|f#p0", "hi")])
        model.add_tag_to_segment("docs|f#p0", tag)
        decision = lookup.lookup(DST, "docs|f", [("docs|f#p0", "hi")])
        assert not decision.allowed


class TestKeyDigest:
    """The verdict key's digest is the fingerprint's own, computed once
    per fingerprint object and outside the tracker lock."""

    @staticmethod
    def _record_digests(lookup, monkeypatch) -> list:
        """Patch the set digest; return the list each call appends to:
        whether the tracker lock was held at the time."""
        import repro.fingerprint.fingerprint as fingerprint_module

        lock = lookup.model.tracker.lock
        calls: list = []
        real = fingerprint_module.fingerprint_set_digest

        def recording(hash_sets):
            calls.append(bool(lock._readers) or lock._writer is not None)
            return real(hash_sets)

        monkeypatch.setattr(fingerprint_module, "fingerprint_set_digest", recording)
        return calls

    def test_one_paragraph_key_carries_the_set_digest(self, lookup):
        from repro.fingerprint.fingerprint import fingerprint_set_digest

        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        fp = lookup.fingerprint_cache.fingerprint(
            lookup.model.tracker.paragraphs.fingerprinter, SECRET_TEXT
        )
        (key,) = lookup.cache._entries
        assert key == (
            DST,
            "d",
            fingerprint_set_digest([fp.hashes]),
            lookup.model.policies.registrations,
        )

    def test_same_fingerprint_object_is_not_digested_again(
        self, lookup, monkeypatch
    ):
        calls = self._record_digests(lookup, monkeypatch)
        fp = lookup.model.tracker.paragraphs.fingerprint(SECRET_TEXT)
        segments = [("d#p0", SECRET_TEXT)]
        first = lookup.lookup(DST, "d", segments, fingerprints=[fp])
        assert len(calls) == 1
        second = lookup.lookup(DST, "d", segments, fingerprints=[fp])
        assert second is first
        assert len(calls) == 1
        assert lookup.cache.metrics.snapshot()["hits"] == 1

    def test_lock_is_not_held_while_digesting(self, lookup, monkeypatch):
        calls = self._record_digests(lookup, monkeypatch)
        lookup.lookup(DST, "d", [("d#p0", SECRET_TEXT)])
        lookup.lookup(DST, "e", [("e#p0", OTHER_TEXT), ("e#p1", THIRD_TEXT)])
        lookup.lookup_batch(DST, [("f", [("f#p0", THIRD_TEXT + " f")])])
        assert calls == [False] * 4

    def test_multi_paragraph_keys_keep_order_and_grouping(self, lookup):
        from repro.fingerprint import Fingerprint

        a = Fingerprint(hashes=frozenset({1}))
        b = Fingerprint(hashes=frozenset({2}))
        ab = Fingerprint(hashes=frozenset({1, 2}))
        keys = {lookup._digest([a, b]), lookup._digest([b, a]), lookup._digest([ab])}
        assert len(keys) == 3
        # Through the cache: the same two paragraphs in the other order
        # are another upload, with another entry.
        one, two = ("u#p0", SECRET_TEXT), ("u#p1", OTHER_TEXT)
        lookup.lookup(DST, "u", [one, two])
        lookup.lookup(DST, "u", [two, one])
        assert lookup.cache.metrics.snapshot()["hits"] == 0
        assert len(lookup.cache) == 2
        lookup.lookup(DST, "u", [one, two])
        assert lookup.cache.metrics.snapshot()["hits"] == 1
        # Two multi-paragraph digests above, three lookups here.
        snapshot = lookup.model.registry.snapshot()
        assert snapshot["decision_cache.multi_paragraph_lookups"] == 5

    def test_replace_does_not_carry_the_digest(self):
        from dataclasses import replace

        from repro.fingerprint import Fingerprint
        from repro.fingerprint.fingerprint import fingerprint_set_digest

        fp = Fingerprint(hashes=frozenset({1, 2, 3}))
        assert fp.set_digest == fingerprint_set_digest([{1, 2, 3}])
        changed = replace(fp, hashes=frozenset({4}))
        assert changed._set_digest is None
        assert changed.set_digest == fingerprint_set_digest([{4}])
        # The memo is not part of the value: equal, and hashed alike.
        fresh = Fingerprint(hashes=frozenset({1, 2, 3}))
        assert fresh == fp and hash(fresh) == hash(fp)
        assert "_set_digest" not in repr(fp)
