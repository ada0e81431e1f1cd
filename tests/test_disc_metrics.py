"""Tests for disclosure metrics: raw, authoritative, threshold check."""

import pytest

from repro.disclosure.metrics import (
    authoritative_disclosure,
    authoritative_hashes,
    meets_threshold,
    raw_disclosure,
)
from reference_engine import record_of
from repro.disclosure.store import HashDatabase
from repro.fingerprint import Fingerprinter
from repro.fingerprint.config import TINY_CONFIG

FP = Fingerprinter(TINY_CONFIG)

TEXT_A = (
    "The annual security review covers every production service and the "
    "escalation procedures for each incident severity level."
)
TEXT_B = TEXT_A + " Additional commentary extends the review with deployment notes."
TEXT_C = "Entirely different prose about butterfly migration across the continent."


def make_record(segment_id, text, threshold=0.5):
    return record_of(segment_id, FP.fingerprint(text), threshold=threshold)


class TestRawDisclosure:
    def test_identity_is_one(self):
        f = FP.fingerprint(TEXT_A)
        assert raw_disclosure(f, f) == 1.0

    def test_subset_full_disclosure(self):
        a = FP.fingerprint(TEXT_A)
        b = FP.fingerprint(TEXT_B)
        assert raw_disclosure(a, b) > 0.9

    def test_disjoint_is_zero(self):
        assert raw_disclosure(FP.fingerprint(TEXT_A), FP.fingerprint(TEXT_C)) == 0.0

    def test_asymmetric(self):
        a = FP.fingerprint(TEXT_A)
        b = FP.fingerprint(TEXT_B)
        # A is (almost) contained in B, but B is not contained in A.
        assert raw_disclosure(a, b) > raw_disclosure(b, a)

    def test_range(self):
        a = FP.fingerprint(TEXT_A)
        b = FP.fingerprint(TEXT_B)
        assert 0.0 <= raw_disclosure(b, a) <= 1.0


class TestAuthoritativeHashes:
    def test_sole_owner_owns_everything(self):
        db = HashDatabase()
        rec = make_record("a", TEXT_A)
        for h in rec.fingerprint.hashes:
            db.record_fingerprint("a", (h,), 0.0)
        assert authoritative_hashes(rec, db) == rec.fingerprint.hashes

    def test_later_observer_owns_nothing_shared(self):
        db = HashDatabase()
        rec_a = make_record("a", TEXT_A)
        rec_b = make_record("b", TEXT_A)  # same content, observed later
        for h in rec_a.fingerprint.hashes:
            db.record_fingerprint("a", (h,), 0.0)
        for h in rec_b.fingerprint.hashes:
            db.record_fingerprint("b", (h,), 1.0)
        assert authoritative_hashes(rec_a, db) == rec_a.fingerprint.hashes
        assert authoritative_hashes(rec_b, db) == frozenset()

    def test_superset_owns_only_new_part(self):
        # Figure 7: B is a superset of A; B owns only its extra text.
        db = HashDatabase()
        rec_a = make_record("a", TEXT_A)
        rec_b = make_record("b", TEXT_B)
        for h in rec_a.fingerprint.hashes:
            db.record_fingerprint("a", (h,), 0.0)
        for h in rec_b.fingerprint.hashes:
            db.record_fingerprint("b", (h,), 1.0)
        owned = authoritative_hashes(rec_b, db)
        assert owned
        assert owned < rec_b.fingerprint.hashes
        assert not owned & rec_a.fingerprint.hashes


class TestAuthoritativeDisclosure:
    def test_figure7_scenario(self):
        """The overlap correction keeps B's disclosure into C below threshold."""
        db = HashDatabase()
        rec_a = make_record("a", TEXT_A, threshold=0.5)
        rec_b = make_record("b", TEXT_B, threshold=0.5)
        for h in rec_a.fingerprint.hashes:
            db.record_fingerprint("a", (h,), 0.0)
        for h in rec_b.fingerprint.hashes:
            db.record_fingerprint("b", (h,), 1.0)
        # C is another copy of A's text.
        c = FP.fingerprint(TEXT_A)
        assert authoritative_disclosure(rec_a, c, db) > 0.9
        # Raw containment would blame B too; authoritative does not.
        assert raw_disclosure(rec_b.fingerprint, c) > 0.5
        assert authoritative_disclosure(rec_b, c, db) < 0.5

    def test_empty_fingerprint_zero(self):
        db = HashDatabase()
        rec = make_record("tiny", "x")
        assert rec.fingerprint.is_empty()
        assert authoritative_disclosure(rec, FP.fingerprint(TEXT_A), db) == 0.0

    def test_denominator_is_full_fingerprint(self):
        # Even when a segment owns only half its hashes, the denominator
        # stays |F(source)| per §4.3.
        db = HashDatabase()
        rec_a = make_record("a", TEXT_A)
        rec_b = make_record("b", TEXT_B)
        for h in rec_a.fingerprint.hashes:
            db.record_fingerprint("a", (h,), 0.0)
        for h in rec_b.fingerprint.hashes:
            db.record_fingerprint("b", (h,), 1.0)
        score = authoritative_disclosure(rec_b, rec_b.fingerprint, db)
        owned = len(authoritative_hashes(rec_b, db))
        assert score == pytest.approx(owned / len(rec_b.fingerprint))


class TestMeetsThreshold:
    def test_at_threshold(self):
        assert meets_threshold(0.5, 0.5)

    def test_below(self):
        assert not meets_threshold(0.49, 0.5)

    def test_zero_threshold_requires_positive_score(self):
        assert not meets_threshold(0.0, 0.0)
        assert meets_threshold(0.001, 0.0)

    def test_threshold_one(self):
        assert meets_threshold(1.0, 1.0)
        assert not meets_threshold(0.999, 1.0)
