"""Disclosure metrics (paper §4.2–§4.3).

Raw disclosure is Broder containment over fingerprints:

    D(A, B) = |F(A) ∩ F(B)| / |F(A)|

The authoritative variant replaces the numerator's F(A) with only those
hashes whose *earliest* observer is A itself, compensating for overlapping
documents (Figure 7): when B is a superset copy of A, B's non-original
hashes are owned by A and therefore do not count towards disclosure
*from* B.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.disclosure.store import HashDatabase, SegmentRecord
from repro.fingerprint import Fingerprint


def raw_disclosure(source: Fingerprint, target: Fingerprint) -> float:
    """D(source, target) without the authoritative correction.

    Kept as a separate entry point for the ablation benchmark that
    quantifies how much §4.3 matters.
    """
    return source.containment_in(target)


def authoritative_hashes(record: SegmentRecord, hash_db: HashDatabase) -> FrozenSet[int]:
    """Hashes of *record*'s fingerprint that the segment owns, read from
    its stored selection values.

    A hash is authoritative for a segment iff no other segment observed
    it earlier (`Fauthoritative` in the paper).
    """
    return frozenset(
        h
        for h in record.hash_values
        if hash_db.oldest_owner(h) == record.segment_id
    )


def authoritative_disclosure(
    source: SegmentRecord, target: Fingerprint, hash_db: HashDatabase
) -> float:
    """D(source, target) = |F_auth(source) ∩ F(target)| / |F(source)|.

    Note the denominator stays |F(source)| (not |F_auth|), exactly as in
    §4.3: a segment that owns little of its own content cannot reach a
    high disclosure score, which is the desired Figure-7 behaviour.
    """
    total = source.hash_count
    if total == 0:
        return 0.0
    auth = authoritative_hashes(source, hash_db)
    return len(auth & target.hashes) / total


def meets_threshold(score: float, threshold: float) -> bool:
    """Disclosure requirement check: score ≥ threshold.

    A threshold of 0 means "any single matching hash violates", which per
    §4.2 still requires a *positive* score: with no overlap at all there
    is nothing to report.
    """
    if threshold <= 0.0:
        return score > 0.0
    return score >= threshold
