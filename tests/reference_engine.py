"""The pre-index Algorithm 1, kept in test code as the behavioural oracle.

The engine answers Algorithm 1 with one sweep of the target's hashes
over the hash database's owner index
(:meth:`~repro.disclosure.sharding.ShardedHashDatabase.sweep`). This is
the implementation that predates the index: it walks candidates one at
a time, recomputes every hash's oldest owner from ``hash_db.owners(h)``
(all observations, earliest first) and intersects whole fingerprints
per candidate. The differential suites assert that the engine's reports
are identical to these in every field, at every shard count.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, Iterable, Iterator, List, Optional

from repro.disclosure.engine import DisclosureReport, SourceDisclosure
from repro.disclosure.metrics import meets_threshold, raw_disclosure
from repro.disclosure.store import DEFAULT_THRESHOLD, SegmentRecord
from repro.errors import DisclosureError
from repro.fingerprint import Fingerprint


def record_of(
    segment_id: str,
    fingerprint: Fingerprint,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    kind: str = "paragraph",
    doc_id: Optional[str] = None,
    last_updated: float = 0.0,
) -> SegmentRecord:
    """The record an engine stores for *fingerprint*."""
    return SegmentRecord(
        segment_id, fingerprint.flat_selections, len(fingerprint),
        fingerprint.config, threshold, kind, doc_id, last_updated,
    )


def record_holding(segment_id: str, hashes: Iterable[int]) -> SegmentRecord:
    """A record whose selections hold *hashes*, each once with an empty
    span: what the engine reads a segment's observed hashes from."""
    hashes = list(hashes)
    flat = array("Q", [v for h in hashes for v in (h, 0, 0)]).tobytes()
    return record_of(
        segment_id, Fingerprint(hashes=frozenset(hashes), flat_selections=flat)
    )


def oldest_owner_reference(hash_db, hash_value: int) -> Optional[str]:
    """The earliest observer of *hash_value*, from its observation list."""
    owners = hash_db.owners(hash_value)
    return owners[0][0] if owners else None


def _authoritative_hashes_reference(engine, record: SegmentRecord) -> FrozenSet[int]:
    """§4.3 authoritative set recomputed from raw observations."""
    return frozenset(
        h
        for h in record.fingerprint.hashes
        if oldest_owner_reference(engine.hash_db, h) == record.segment_id
    )


def _score_reference(engine, source: SegmentRecord, target: Fingerprint) -> float:
    if engine._authoritative:
        total = len(source.fingerprint)
        if total == 0:
            return 0.0
        auth = _authoritative_hashes_reference(engine, source)
        return len(auth & target.hashes) / total
    return raw_disclosure(source.fingerprint, target)


def _candidates_reference(engine, fingerprint: Fingerprint) -> Iterator[str]:
    """Candidate source ids sharing at least one hash with the query.

    With the authoritative correction, only a hash's oldest owner can
    count that hash towards its own disclosure, so inspecting oldest
    owners (as in the paper's pseudocode) loses nothing. Without the
    correction every observer is a candidate.
    """
    seen = set()
    for h in fingerprint.hashes:
        if engine._authoritative:
            owner = oldest_owner_reference(engine.hash_db, h)
            if owner is not None and owner not in seen:
                seen.add(owner)
                yield owner
        else:
            for owner, _ts in engine.hash_db.owners(h):
                if owner not in seen:
                    seen.add(owner)
                    yield owner


def _run_algorithm_reference(
    engine,
    target_id: Optional[str],
    fingerprint: Fingerprint,
    exclude_doc: Optional[str],
) -> DisclosureReport:
    results: List[SourceDisclosure] = []
    checked = 0
    target_size = len(fingerprint)
    for candidate_id in _candidates_reference(engine, fingerprint):
        if candidate_id == target_id:
            continue
        source = engine.segment_db.find(candidate_id)
        if source is None:
            # Historical owner whose segment was since removed.
            continue
        if exclude_doc is not None and (
            source.doc_id == exclude_doc or source.segment_id == exclude_doc
        ):
            continue
        checked += 1
        t = source.threshold
        origin_size = len(source.fingerprint)
        # Quick discard from Algorithm 1: if the origin fingerprint is
        # so large that even a full overlap with the target could not
        # reach the threshold, skip the authoritative scan.
        if origin_size * t > target_size:
            continue
        score = _score_reference(engine, source, fingerprint)
        if score > 0.0 and meets_threshold(score, t):
            if engine._authoritative:
                matched = (
                    _authoritative_hashes_reference(engine, source)
                    & fingerprint.hashes
                )
            else:
                matched = source.fingerprint.hashes & fingerprint.hashes
            results.append(
                SourceDisclosure(
                    segment_id=source.segment_id,
                    score=score,
                    threshold=t,
                    matched_hashes=frozenset(matched),
                    kind=source.kind,
                    doc_id=source.doc_id,
                )
            )
    results.sort(key=lambda s: (-s.score, s.segment_id))
    return DisclosureReport(
        target_id=target_id, sources=tuple(results), candidates_checked=checked
    )


def disclosing_sources_reference(
    engine,
    target_id: Optional[str] = None,
    *,
    fingerprint: Optional[Fingerprint] = None,
    exclude_doc: Optional[str] = None,
) -> DisclosureReport:
    """Algorithm 1 over *engine*'s databases via the per-candidate scan.

    Same arguments and report as
    :meth:`~repro.disclosure.engine.DisclosureEngine.disclosing_sources`,
    read under the engine's lock.
    """
    if (target_id is None) == (fingerprint is None):
        raise DisclosureError("pass exactly one of target_id or fingerprint")
    with engine.lock.read_locked():
        if target_id is not None:
            fingerprint = engine.segment_db.get(target_id).fingerprint
        assert fingerprint is not None
        return _run_algorithm_reference(engine, target_id, fingerprint, exclude_doc)
