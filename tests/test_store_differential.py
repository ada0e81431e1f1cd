"""Differential tests: the hash database ≡ a full-map oracle.

:class:`~repro.disclosure.store.HashDatabase` keeps a hash with one
observer as just its owner entry ``(first_seen, segment_id)`` and holds
an observer map only while two or more segments observe the hash. Its
observation lists therefore read the owner entry for an unshared hash,
and the engine-level reference sweep (``tests/reference_engine.py``)
that recomputes owners from them is not independent of the index.
:class:`FullMapHashDatabase` restores that independence: it is the
earlier full-map database, with one ``{segment: first_seen}`` map per
hash and its segment → observed and segment → owned indexes, moved into
test code as the oracle. Its owned sets are the reference for
:func:`~repro.disclosure.metrics.authoritative_hashes` over the live
store, which keeps no per-segment index.

The targets take one segment's hashes per call, as the engine applies
a fingerprint's delta: ``record_fingerprint(segment, hashes, time)``
and ``withdraw(segment, hashes)``. The oracle applies such a call one
hash at a time, with its own per-hash ``record`` and
``remove_observation``. Hypothesis histories mix ``record_fingerprint``
of multi-hash groups that hold new hashes beside ones the table or the
segment already has (re-records and tied timestamps included),
``withdraw`` of arbitrary hash sets (owners, non-owners and
non-observers), removal of a whole segment (a ``withdraw`` of the
hashes it observes, as the engine removes a segment) and ``bulk_load``
from sorted first-seen groups, over a small hash and segment universe
so hashes gain three or more observers and collapse back to one. The
targets are the plain database and the sharded one at 1, 2, 4 and 8
shards; after every step each must return what the oracle returned
and agree with it on every accessor (the hash table's insertion order
included, on the plain database) and on every segment's authoritative
hashes, and pass its own ``check_invariants()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import record_holding
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.sharding import ShardedHashDatabase
from repro.disclosure.store import HashDatabase
from repro.errors import DisclosureError


class FullMapHashDatabase:
    """DBhash: fingerprint hash → {segment id → first-seen timestamp}.

    The earliest observer of a hash is its authoritative owner (§4.3).
    First-seen timestamps survive re-observation, so priority is stable
    across edits — but the engine withdraws a segment's claim on hashes
    an edit removed from its fingerprint, so authority migrates to the
    next-earliest observer that still holds the text (the Figure 6
    behaviour). Withdrawing a segment's hashes releases its claims.

    Ownership is indexed: :meth:`oldest_owner` is an O(1) dictionary
    lookup against a cache maintained on every mutation, and
    :meth:`owned_hashes` returns a segment's authoritative set without
    touching the per-hash observation maps. :attr:`ownership_changes`
    counts owner transitions (a hash gaining its first owner, changing
    owner, or losing its last one).
    """

    def __init__(self) -> None:
        self._observations: Dict[int, Dict[str, float]] = {}
        # hash → (first_seen, segment_id) of the current authoritative
        # owner; the tuple ordering gives the deterministic tie-break.
        self._oldest: Dict[int, Tuple[float, str]] = {}
        # segment → hashes it currently observes (reverse index).
        self._by_segment: Dict[str, Set[int]] = {}
        # segment → hashes it authoritatively owns (oldest observer).
        self._owned: Dict[str, Set[int]] = {}
        #: Total number of ownership transitions since creation.
        self.ownership_changes = 0

    def __len__(self) -> int:
        """Number of distinct hashes ever observed."""
        return len(self._observations)

    def __contains__(self, hash_value: int) -> bool:
        return hash_value in self._observations

    # ------------------------------------------------------------------
    # Ownership index maintenance
    # ------------------------------------------------------------------

    def _claim(self, segment_id: str, hash_value: int) -> None:
        self._owned.setdefault(segment_id, set()).add(hash_value)
        self.ownership_changes += 1

    def _release(self, segment_id: str, hash_value: int) -> None:
        owned = self._owned.get(segment_id)
        if owned is not None:
            owned.discard(hash_value)
            if not owned:
                del self._owned[segment_id]

    def record(self, hash_value: int, segment_id: str, timestamp: float) -> bool:
        """Record that *segment_id* contains *hash_value*.

        Only the first observation per (hash, segment) pair is kept, so
        re-observing an unchanged paragraph never steals ownership.
        Returns True if this was a new observation.
        """
        seen_by = self._observations.setdefault(hash_value, {})
        if segment_id in seen_by:
            return False
        seen_by[segment_id] = timestamp
        self._by_segment.setdefault(segment_id, set()).add(hash_value)
        current = self._oldest.get(hash_value)
        claim = (timestamp, segment_id)
        if current is None:
            self._oldest[hash_value] = claim
            self._claim(segment_id, hash_value)
        elif claim < current:
            self._oldest[hash_value] = claim
            self._release(current[1], hash_value)
            self._claim(segment_id, hash_value)
        return True

    def oldest_owner(self, hash_value: int) -> Optional[str]:
        """The segment that observed *hash_value* earliest, or None.

        Ties on timestamp break towards the lexicographically smallest
        segment id so the result is deterministic under logical clocks.
        O(1): served from the maintained ownership index.
        """
        entry = self._oldest.get(hash_value)
        return entry[1] if entry is not None else None

    def owners(self, hash_value: int) -> List[Tuple[str, float]]:
        """All (segment_id, first_seen) observations, earliest first."""
        seen_by = self._observations.get(hash_value, {})
        return sorted(seen_by.items(), key=lambda kv: (kv[1], kv[0]))

    def observers(self, hash_value: int) -> Tuple[str, ...]:
        """Segment ids observing *hash_value*, in no particular order.

        Unlike :meth:`owners` this does not sort, so the non-authoritative
        query sweep can accumulate counts without O(k log k) per hash.
        """
        seen_by = self._observations.get(hash_value)
        return tuple(seen_by) if seen_by else ()

    def first_seen(self, hash_value: int, segment_id: str) -> Optional[float]:
        """When *segment_id* first contained *hash_value*, or None."""
        return self._observations.get(hash_value, {}).get(segment_id)

    def first_seen_of(
        self, segment_id: str, hashes: Iterable[int]
    ) -> Dict[int, float]:
        """Each of *hashes* that *segment_id* observes → its first-seen
        time; hashes it does not observe are left out."""
        observations = self._observations
        return {
            h: observations[h][segment_id]
            for h in hashes
            if segment_id in observations.get(h, ())
        }

    def bulk_load(
        self, groups: Iterable[Tuple[float, str, Sequence[int]]]
    ) -> None:
        """Build an empty database from first-seen groups in one pass.

        *groups* holds ``(first_seen, segment_id, hashes)`` triples
        sorted by ``(first_seen, segment_id)``, naming each (hash,
        segment) pair at most once. The first group to name a hash owns
        it: the oldest claim, which :meth:`record`'s tie-break also
        keeps, so the indexes equal a ``record()`` replay's without any
        claim being released and re-won. :attr:`ownership_changes` stays
        zero.
        """
        if self._observations:
            raise DisclosureError("bulk_load needs an empty hash database")
        observations = self._observations
        oldest = self._oldest
        for first_seen, segment_id, hashes in groups:
            if not hashes:
                continue
            owned = None
            for h in hashes:
                seen_by = observations.get(h)
                if seen_by is None:
                    observations[h] = {segment_id: first_seen}
                    oldest[h] = (first_seen, segment_id)
                    if owned is None:
                        owned = self._owned.setdefault(segment_id, set())
                    owned.add(h)
                else:
                    seen_by[segment_id] = first_seen
            self._by_segment.setdefault(segment_id, set()).update(hashes)

    def hashes(self) -> List[int]:
        """All distinct hash values currently observed."""
        return list(self._observations)

    def hashes_of(self, segment_id: str) -> Set[int]:
        """The hashes *segment_id* currently observes (index lookup)."""
        return set(self._by_segment.get(segment_id, ()))

    def owned_hashes(self, segment_id: str) -> Set[int]:
        """Hashes whose authoritative owner is *segment_id* (O(result))."""
        return set(self._owned.get(segment_id, ()))

    def remove_observation(self, hash_value: int, segment_id: str) -> bool:
        """Release one (hash, segment) association.

        Called when an edit removes a hash from a segment's current
        fingerprint: the segment's claim is withdrawn, so authority over
        the hash falls to the next-earliest observer that still contains
        it — the behaviour behind the paper's Figure 6 (the Wiki becomes
        the authoritative source once the Interview Tool text changes).
        Returns True when an association was actually removed.
        """
        seen_by = self._observations.get(hash_value)
        if seen_by is None or segment_id not in seen_by:
            return False
        del seen_by[segment_id]
        observed = self._by_segment.get(segment_id)
        if observed is not None:
            observed.discard(hash_value)
            if not observed:
                del self._by_segment[segment_id]
        if not seen_by:
            # The removed segment was necessarily the sole owner.
            del self._observations[hash_value]
            del self._oldest[hash_value]
            self._release(segment_id, hash_value)
            self.ownership_changes += 1
        elif self._oldest[hash_value][1] == segment_id:
            ts, seg = min((ts, seg) for seg, ts in seen_by.items())
            self._oldest[hash_value] = (ts, seg)
            self._release(segment_id, hash_value)
            self._claim(seg, hash_value)
        return True

    def record_fingerprint(
        self, segment_id: str, hashes: Iterable[int], timestamp: float
    ) -> bool:
        """Record each of *hashes* for the segment; True if any was new."""
        changed = False
        for hash_value in hashes:
            if self.record(hash_value, segment_id, timestamp):
                changed = True
        return changed

    def withdraw(self, segment_id: str, hashes: Iterable[int]) -> bool:
        """Release the segment's claim on *hashes*; True if any released."""
        changed = False
        for hash_value in hashes:
            if self.remove_observation(hash_value, segment_id):
                changed = True
        return changed

    def check_invariants(self) -> None:
        """Assert the indexes agree with the raw observation map.

        Test-only sanity pass (O(table)): every differential test calls
        this so a silently-corrupt index cannot masquerade as a passing
        equivalence check.
        """
        for hash_value, seen_by in self._observations.items():
            assert seen_by, f"empty observer map retained for {hash_value}"
            expected = min(seen_by.items(), key=lambda kv: (kv[1], kv[0]))
            ts, seg = self._oldest[hash_value]
            assert (seg, ts) == expected, (hash_value, (seg, ts), expected)
        assert set(self._oldest) == set(self._observations)
        observed: Dict[str, Set[int]] = {}
        owned: Dict[str, Set[int]] = {}
        for hash_value, seen_by in self._observations.items():
            for seg in seen_by:
                observed.setdefault(seg, set()).add(hash_value)
            owned.setdefault(self._oldest[hash_value][1], set()).add(hash_value)
        assert observed == self._by_segment, "segment reverse index drifted"
        assert owned == self._owned, "ownership index drifted"


#: Hash values spread over the 32-bit space, so every shard count
#: places them on several shards.
HASHES = [(i * 0x9E3779B1 + 7) & 0xFFFFFFFF for i in range(1, 9)]
SEGMENTS = ["s0", "s1", "s2", "s3", "s4"]
#: ``None`` is the plain database, an int a shard count.
SHAPES = [None, 1, 2, 4, 8]
#: Few distinct times, so first-seen ties are common.
TIMES = st.integers(0, 4).map(float)


def build(shape):
    if shape is None:
        return HashDatabase()
    return ShardedHashDatabase(shape, hash_bits=32)


def groups_of(observations: Dict[str, Dict[int, float]]) -> list:
    """Sorted ``(first_seen, segment_id, hashes)`` groups, as
    ``restore_into`` builds them from a snapshot."""
    groups = []
    for segment_id, first_seen in observations.items():
        by_time: Dict[float, List[int]] = {}
        for h, ts in first_seen.items():
            by_time.setdefault(ts, []).append(h)
        for ts, hashes in by_time.items():
            groups.append((ts, segment_id, sorted(hashes)))
    groups.sort(key=lambda group: (group[0], group[1]))
    return groups


observations = st.dictionaries(
    st.sampled_from(SEGMENTS),
    st.dictionaries(st.sampled_from(HASHES), TIMES, max_size=len(HASHES)),
    max_size=len(SEGMENTS),
)
#: A call's distinct hashes: empty, one, or a group.
GROUPS = st.lists(st.sampled_from(HASHES), unique=True, max_size=5)
steps = st.one_of(
    st.tuples(
        st.just("record_fingerprint"), st.sampled_from(SEGMENTS), GROUPS,
        TIMES,
    ),
    st.tuples(st.just("withdraw"), st.sampled_from(SEGMENTS), GROUPS),
    st.tuples(st.just("remove_segment"), st.sampled_from(SEGMENTS)),
    st.tuples(st.just("bulk_load"), observations),
)
histories = st.lists(steps, max_size=40)


def apply_step(db, step):
    op = step[0]
    if op == "bulk_load":
        return db.bulk_load(groups_of(step[1]))
    return getattr(db, op)(*step[1:])


def swept(db, *, authoritative: bool) -> dict:
    """Owner → sorted matched hashes of one sweep over the universe.

    The oracle has no sweep; its answer is built from its per-hash
    accessors, as Algorithm 1 defines the accumulation.
    """
    if isinstance(db, FullMapHashDatabase):
        matched: Dict[str, List[int]] = {}
        for h in HASHES:
            if authoritative:
                owner = db.oldest_owner(h)
                counted = () if owner is None else (owner,)
            else:
                counted = db.observers(h)
            for owner in counted:
                matched.setdefault(owner, []).append(h)
    else:
        matched = db.sweep(HASHES, authoritative=authoritative)
    return {owner: sorted(hashes) for owner, hashes in matched.items()}


def view(db, *, ordered: bool) -> dict:
    """Every accessor's answer over the whole universe."""
    return {
        "len": len(db),
        "hashes": list(db.hashes()) if ordered else sorted(db.hashes()),
        "contains": [h in db for h in HASHES],
        "owners": [db.owners(h) for h in HASHES],
        "observers": [db.observers(h) for h in HASHES],
        "oldest_owner": [db.oldest_owner(h) for h in HASHES],
        "sweep": swept(db, authoritative=True),
        "sweep_all_observers": swept(db, authoritative=False),
        "first_seen": [db.first_seen(h, s) for h in HASHES for s in SEGMENTS],
        "first_seen_of": [db.first_seen_of(s, HASHES) for s in SEGMENTS],
        "ownership_changes": db.ownership_changes,
    }


def assert_authoritative_hashes_agree(target, oracle) -> None:
    """Each segment's authoritative hashes, read from the target's owner
    entries as the engine reads them (for a record whose selections
    hold the hashes the segment observes), are the oracle's owned set."""
    for segment_id in SEGMENTS:
        record = record_holding(segment_id, oracle.hashes_of(segment_id))
        assert authoritative_hashes(record, target) == (
            oracle.owned_hashes(segment_id)
        ), segment_id


def run_differential(shape, history) -> None:
    oracle = FullMapHashDatabase()
    target = build(shape)
    for index, step in enumerate(history):
        if step[0] == "bulk_load":
            # bulk_load fills an empty database: start both afresh.
            oracle, target = FullMapHashDatabase(), build(shape)
        elif step[0] == "remove_segment":
            # The engine's removal: withdraw every hash the segment
            # observes, which its stored fingerprint names.
            step = ("withdraw", step[1], sorted(oracle.hashes_of(step[1])))
        want = apply_step(oracle, step)
        got = apply_step(target, step)
        assert got == want, (index, step)
        oracle.check_invariants()
        target.check_invariants()
        assert view(target, ordered=shape is None) == view(
            oracle, ordered=shape is None
        ), (index, step)
        assert_authoritative_hashes_agree(target, oracle)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"shards-{s or 'plain'}")
class TestStoreDifferential:
    @settings(max_examples=80, deadline=None)
    @given(history=histories)
    def test_random_histories_match_full_map_oracle(self, shape, history):
        run_differential(shape, history)

    @settings(max_examples=30, deadline=None)
    @given(loaded=observations, history=histories)
    def test_histories_after_bulk_load_match(self, shape, loaded, history):
        run_differential(shape, [("bulk_load", loaded)] + history)

    def test_three_observers_collapse_to_one(self, shape):
        h = HASHES[0]
        run_differential(shape, [
            ("record_fingerprint", "s2", [h], 3.0),
            ("record_fingerprint", "s1", [h], 1.0),  # earlier: takes ownership
            ("record_fingerprint", "s3", [h], 1.0),  # tie: loses to "s1"
            ("record_fingerprint", "s1", [h], 0.0),  # re-record keeps the first time
            ("withdraw", "s4", [h]),  # never observed it
            ("withdraw", "s2", [h]),  # non-owner
            ("withdraw", "s1", [h]),  # owner: "s3" inherits
            ("record_fingerprint", "s0", [h], 2.0),  # shared again
            ("remove_segment", "s3"),  # owner leaves: "s0" alone
            ("remove_segment", "s0"),  # hash leaves the table
            ("record_fingerprint", "s4", [h], 4.0),
        ])

    def test_one_call_mixes_new_present_and_stolen_hashes(self, shape):
        a, b, c, d, e = HASHES[:5]
        run_differential(shape, [
            ("record_fingerprint", "s2", [a, b], 2.0),
            # New hashes (c, d) beside two that "s2" owns (a, b): the
            # earlier claim steals both.
            ("record_fingerprint", "s1", [c, a, b, d], 1.0),
            ("record_fingerprint", "s1", [c, a, b, d], 0.0),  # all re-records
            ("record_fingerprint", "s3", [d, e, a], 1.0),  # tie: "s1" keeps d
            ("record_fingerprint", "s0", [e], 1.0),  # tie: "s0" takes e
            ("withdraw", "s1", [a, b, c, e]),  # owner of a, b, c; not of e
            ("withdraw", "s3", [d, a]),  # a collapses to "s2"; d stays "s1"'s
            ("record_fingerprint", "s4", [], 3.0),  # an empty call
            ("withdraw", "s2", [a, b]),
        ])

    def test_bulk_load_first_group_owns(self, shape):
        h, g = HASHES[0], HASHES[1]
        run_differential(shape, [
            ("bulk_load", {
                "s3": {h: 1.0, g: 2.0},
                "s1": {h: 1.0},
                "s2": {h: 0.0, g: 2.0},
                "s0": {g: 4.0},
            }),
            ("withdraw", "s2", [h]),
            ("withdraw", "s1", [h]),
            ("withdraw", "s0", [g]),
            ("remove_segment", "s2"),
            ("withdraw", "s3", [h, g, HASHES[2]]),
        ])


class TestOracleIsTheFullMap:
    def test_bulk_load_refuses_a_filled_database(self):
        for db in (FullMapHashDatabase(), HashDatabase()):
            db.record_fingerprint("s0", [HASHES[0]], 1.0)
            with pytest.raises(DisclosureError):
                db.bulk_load([(0.0, "s1", [HASHES[1]])])
