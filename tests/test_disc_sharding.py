"""Unit tests for hash-range sharding (DESIGN.md §11).

The sharded hash database must behave exactly like one
:class:`~repro.disclosure.store.HashDatabase` — the plain database *is*
the oracle here: every routed call and every scatter/gather sweep is
compared against the same operations applied unsharded. The sharding-
specific machinery (routing, per-shard metrics, the in-order scatter)
is tested on top, and so are the stamps the verdict cache validates
against.
"""

from __future__ import annotations

import random

import pytest

from conftest import assert_databases_agree
from reference_engine import (
    disclosing_sources_reference,
    oldest_owner_reference,
    record_holding,
)
from repro.disclosure import (
    DisclosureEngine,
    HashDatabase,
    ShardedHashDatabase,
    partition,
    shard_of,
)
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.sharding import STRIPES, StampStore
from repro.errors import DisclosureError
from repro.fingerprint.config import FingerprintConfig
from repro.plugin.router import ShardRouter

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)
HASH_BITS = 32


def unsharded_sweep(db: HashDatabase, hashes, authoritative: bool):
    """The engine's sweep accumulation, run directly on a plain DB."""
    matched = {}
    for h in hashes:
        if authoritative:
            owner = db.oldest_owner(h)
            owners = () if owner is None else (owner,)
        else:
            owners = db.observers(h)
        for owner in owners:
            matched.setdefault(owner, []).append(h)
    return matched


def canon(matched):
    return {owner: sorted(hs) for owner, hs in matched.items()}


class TestShardKey:
    def test_shard_of_in_range_and_deterministic(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4, 8, 16):
            for _ in range(200):
                h = rng.randrange(1 << HASH_BITS)
                index = shard_of(h, n, HASH_BITS)
                assert 0 <= index < n
                assert index == shard_of(h, n, HASH_BITS)

    def test_partition_is_a_complete_disjoint_cover(self):
        rng = random.Random(11)
        hashes = [rng.randrange(1 << HASH_BITS) for _ in range(500)]
        groups = partition(hashes, 8, HASH_BITS)
        assert [i for i, _g in groups] == sorted({i for i, _g in groups})
        flat = [h for _i, group in groups for h in group]
        assert sorted(flat) == sorted(hashes)  # nothing lost or invented
        for index, group in groups:
            assert all(shard_of(h, 8, HASH_BITS) == index for h in group)

    def test_low_magnitude_hashes_still_balance(self):
        # Winnowing stores window *minima*, so real hash values skew
        # small; the Fibonacci pre-mix must spread even a worst-case
        # consecutive-integer range (raw range-partitioning would put
        # all of these on shard 0).
        counts = [0] * 8
        for h in range(4096):
            counts[shard_of(h, 8, HASH_BITS)] += 1
        assert min(counts) > 0
        assert max(counts) < 2 * (4096 // 8)

    def test_single_shard_routes_everything_to_zero(self):
        for h in (0, 1, 2**31, 2**32 - 1):
            assert shard_of(h, 1, HASH_BITS) == 0


class TestShardedHashDatabaseOracle:
    """Random op sequences: sharded DB ≡ plain DB, at several widths."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_random_ops_match_plain_database(self, n_shards):
        rng = random.Random(n_shards * 1000 + 13)
        plain = HashDatabase()
        sharded = ShardedHashDatabase(n_shards, hash_bits=HASH_BITS)
        segments = [f"seg-{i}" for i in range(6)]
        pool = [rng.randrange(1 << HASH_BITS) for _ in range(80)]
        # What each segment's stored fingerprint would hold.
        held = {seg: set() for seg in segments}

        for step in range(400):
            op = rng.random()
            if op < 0.6:
                h, seg, ts = rng.choice(pool), rng.choice(segments), float(step)
                assert sharded.record_fingerprint(seg, (h,), ts) == (
                    plain.record_fingerprint(seg, (h,), ts)
                )
                held[seg].add(h)
            elif op < 0.85:
                h, seg = rng.choice(pool), rng.choice(segments)
                assert sharded.withdraw(seg, (h,)) == (
                    plain.withdraw(seg, (h,))
                )
                held[seg].discard(h)
            else:
                # A segment removal withdraws its stored hashes.
                seg = rng.choice(segments)
                removed = [plain.withdraw(seg, (h,)) for h in held[seg]]
                assert sharded.withdraw(seg, held[seg]) == any(removed)
                assert all(removed)
                held[seg] = set()

        assert len(sharded) == len(plain)
        assert sorted(sharded.hashes()) == sorted(plain.hashes())
        for h in pool:
            assert (h in sharded) == (h in plain)
            assert sharded.oldest_owner(h) == plain.oldest_owner(h)
            assert oldest_owner_reference(sharded, h) == (
                oldest_owner_reference(plain, h)
            )
            assert sharded.owners(h) == plain.owners(h)
            assert sorted(sharded.observers(h)) == sorted(plain.observers(h))
        for seg in segments:
            first_seen = plain.first_seen_of(seg, pool)
            assert set(first_seen) == held[seg]
            assert sharded.first_seen_of(seg, pool) == first_seen
            record = record_holding(seg, held[seg])
            assert authoritative_hashes(record, sharded) == (
                authoritative_hashes(record, plain)
            )
            assert sharded.first_seen(pool[0], seg) == plain.first_seen(
                pool[0], seg
            )
        assert sharded.ownership_changes == plain.ownership_changes
        sharded.check_invariants()
        plain.check_invariants()

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("authoritative", [True, False])
    def test_sweep_merge_equals_unsharded_sweep(self, n_shards, authoritative):
        rng = random.Random(n_shards * 7 + int(authoritative))
        plain = HashDatabase()
        sharded = ShardedHashDatabase(n_shards, hash_bits=HASH_BITS)
        pool = [rng.randrange(1 << HASH_BITS) for _ in range(60)]
        for step in range(200):
            h, seg, ts = (
                rng.choice(pool),
                f"seg-{rng.randrange(5)}",
                float(step % 9),
            )
            plain.record_fingerprint(seg, (h,), ts)
            sharded.record_fingerprint(seg, (h,), ts)
        for _ in range(20):
            query = frozenset(rng.sample(pool, rng.randint(0, 30)))
            expected = unsharded_sweep(plain, query, authoritative)
            got = sharded.sweep(query, authoritative=authoritative)
            assert canon(got) == canon(expected)

    def test_record_fingerprint_and_withdraw_batch_paths(self):
        plain = HashDatabase()
        sharded = ShardedHashDatabase(4, hash_bits=HASH_BITS)
        old = frozenset(range(0, 40))
        new = frozenset(range(20, 60))
        for h in old:
            plain.record_fingerprint("a", (h,), 1.0)
        assert sharded.record_fingerprint("a", old, 1.0) is True
        assert sharded.record_fingerprint("a", old, 2.0) is False  # no-op re-observe
        for h in new:
            plain.record_fingerprint("a", (h,), 3.0)
        sharded.record_fingerprint("a", new, 3.0)
        for h in old - new:
            plain.withdraw("a", (h,))
        assert sharded.withdraw("a", old - new) is True
        assert sharded.withdraw("a", old - new) is False
        assert set(sharded.first_seen_of("a", old | new)) == set(new)
        assert sharded.first_seen_of("a", old | new) == (
            plain.first_seen_of("a", old | new)
        )
        sharded.check_invariants()

    def test_empty_sweep_and_constructor_validation(self):
        sharded = ShardedHashDatabase(4)
        assert sharded.sweep(frozenset()) == {}
        with pytest.raises(DisclosureError):
            ShardedHashDatabase(0)
        with pytest.raises(DisclosureError):
            ShardedHashDatabase(2, hash_bits=0)


class TestShardLocksAndMetrics:
    def test_per_shard_sweep_counters(self):
        sharded = ShardedHashDatabase(2, hash_bits=HASH_BITS)
        by_shard = {0: [], 1: []}
        h = 0
        while min(len(g) for g in by_shard.values()) < 3:
            by_shard[sharded.shard_of(h)].append(h)
            h += 1
        sharded.sweep(frozenset(by_shard[0][:2]))
        sharded.sweep(frozenset(by_shard[0][:1] + by_shard[1][:3]))
        snap = sharded.metrics.registry.snapshot()
        prefix = sharded.metrics.prefix
        assert snap[f"{prefix}0.sweeps"] == 2
        assert snap[f"{prefix}0.hashes_swept"] == 3
        assert snap[f"{prefix}1.sweeps"] == 1
        assert snap[f"{prefix}1.hashes_swept"] == 3
        assert snap[f"{prefix}0.distinct_hashes"] == 0  # nothing recorded


class TestInOrderScatter:
    """A sweep's per-shard jobs run in shard order in the calling thread,
    through the router or not; the first failure propagates at once."""

    @pytest.mark.parametrize("routed", [False, True], ids=["no-router", "router"])
    def test_failing_shard_stops_the_sweep(self, routed, monkeypatch):
        sharded = ShardedHashDatabase(
            4, hash_bits=HASH_BITS, router=ShardRouter() if routed else None
        )
        by_shard = {i: [] for i in range(4)}
        h = 0
        while min(len(g) for g in by_shard.values()) < 2:
            by_shard[sharded.shard_of(h)].append(h)
            h += 1
        for i, group in by_shard.items():
            for value in group:
                sharded.record_fingerprint(f"seg-{i}", (value,), 1.0)
        everything = frozenset(h for group in by_shard.values() for h in group)

        def unavailable(group, authoritative):
            raise RuntimeError("shard 1 unavailable")

        monkeypatch.setattr(sharded.shards[1], "sweep", unavailable)
        with pytest.raises(RuntimeError, match="shard 1"):
            sharded.sweep(everything)
        snap = sharded.metrics.registry.snapshot()
        prefix = sharded.metrics.prefix
        assert [snap[f"{prefix}{i}.sweeps"] for i in range(4)] == [1, 1, 0, 0]
        # The failed sweep changed nothing: with the shard back, the
        # same sweep sees every owner.
        monkeypatch.undo()
        assert canon(sharded.sweep(everything)) == {
            f"seg-{i}": sorted(group) for i, group in by_shard.items()
        }


class TestShardedDisclosureEngine:
    def test_stats_gains_shard_count_and_gauges_track_sharded_db(self):
        engine = DisclosureEngine(CONFIG, n_shards=4)
        engine.observe("seg-a", "the quick brown fox jumps over the lazy dog")
        snap = engine.registry.snapshot()
        assert snap["engine.paragraph.shards"] == 4
        assert snap["engine.paragraph.distinct_hashes"] == len(engine.hash_db) > 0
        assert sum(engine.hash_db.shard_sizes()) == len(engine.hash_db)
        assert [
            snap[f"engine.paragraph.shard.{i}.distinct_hashes"] for i in range(4)
        ] == list(engine.hash_db.shard_sizes())
        engine.hash_db.check_invariants()
        assert_databases_agree(engine)

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_indexed_query_matches_reference_scan(self, n_shards):
        engine = DisclosureEngine(CONFIG, n_shards=n_shards)
        engine.observe("a", "alpha bravo charlie delta echo foxtrot golf hotel")
        engine.observe("b", "alpha bravo charlie delta india juliet kilo lima")
        fp = engine.fingerprint("alpha bravo charlie delta echo foxtrot")
        indexed = engine.disclosing_sources(fingerprint=fp)
        reference = disclosing_sources_reference(engine, fingerprint=fp)
        assert indexed == reference
        assert indexed.disclosing


class TestStamps:
    """The stamp store the verdict cache validates against (§13)."""

    def test_checks_before_the_stripes_were_built_are_rejected(self):
        """Until a revalidation builds the stripes a stamp only moves the
        version; the build then rejects every older check, also one with
        no hashes (a paragraph shorter than one n-gram)."""
        stamps = StampStore()
        stamps.stamp([1, 2, 3])
        stamps.stamp_segment("seg", ())
        assert stamps.version == 2 and stamps._stripes is None
        assert not stamps.unchanged_since(1, (), ())
        assert not stamps.unchanged_since(0, [99], ("other",))
        assert stamps.unchanged_since(2, [1, 2, 3], ("seg",))
        # A bulk load drops the stripes; the next build is a new floor.
        stamps.stamp_all()
        assert stamps._stripes is None
        assert not stamps.unchanged_since(2, (), ())
        assert stamps.unchanged_since(3, (), ())

    def test_stamp_rejects_exactly_the_stripes_it_touched(self):
        stamps = StampStore()
        stamps.unchanged_since(0, (), ())
        stamps.stamp([5, 5 + STRIPES])
        assert not stamps.unchanged_since(0, [7, 5], ())
        assert not stamps.unchanged_since(0, [5 + 2 * STRIPES], ())
        assert stamps.unchanged_since(0, [6, 7], ())
        assert stamps.unchanged_since(1, [5], ())

    def test_stamp_segment_stamps_its_hashes_and_its_own_stamp(self):
        stamps = StampStore()
        stamps.unchanged_since(0, (), ())
        stamps.stamp_segment("seg", [11])
        assert not stamps.unchanged_since(0, [11], ())
        assert not stamps.unchanged_since(0, [12], ("seg",))
        assert stamps.unchanged_since(0, [12], ("other",))
        assert stamps.unchanged_since(1, [11], ("seg",))

    def test_stamp_segment_without_hashes_still_stamps_the_segment(self):
        stamps = StampStore()
        stamps.unchanged_since(0, (), ())
        stamps.stamp([1])
        stamps.stamp_segment("seg", ())
        assert not stamps.unchanged_since(1, (), ("seg",))
        assert stamps.unchanged_since(1, (), ("other",))
        assert stamps.unchanged_since(2, (), ("seg",))

    def test_stamp_all_rejects_every_earlier_check(self):
        stamps = StampStore()
        stamps.unchanged_since(0, (), ())
        stamps.stamp_all()
        assert not stamps.unchanged_since(0, [123], ())
        assert stamps.unchanged_since(1, [123], ())

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_mutations_stamp_the_hashes_they_change(self, n_shards):
        db = ShardedHashDatabase(n_shards, hash_bits=HASH_BITS)
        stamps = db.stamps
        stamps.unchanged_since(0, (), ())
        a, b = [1, 2, 3], [4, 5]

        def stamped_since(version):
            return {
                h for h in range(1, 7) if not stamps.unchanged_since(version, [h], ())
            }

        assert db.record_fingerprint("x", a, 1.0)
        assert stamped_since(0) == {1, 2, 3}
        v = stamps.version
        assert not db.record_fingerprint("x", a, 2.0)  # nothing new
        assert not db.withdraw("x", b)  # nothing held
        assert stamps.version == v
        assert db.withdraw("x", [3])
        assert stamped_since(v) == {3}
        v = stamps.version
        assert db.record_fingerprint("y", (4,), 3.0)
        assert not db.record_fingerprint("y", (4,), 4.0)
        assert db.withdraw("y", (4,))
        assert not db.withdraw("y", (4,))
        assert stamped_since(v) == {4}
        assert stamps.version == v + 2
        v = stamps.version
        # Removing the segment withdraws what its fingerprint holds.
        assert db.withdraw("x", [1, 2])
        assert not db.withdraw("x", [1, 2])
        assert stamped_since(v) == {1, 2}
        assert stamps.version == v + 1

    def test_bulk_load_stamps_every_stripe(self):
        db = ShardedHashDatabase(4, hash_bits=HASH_BITS)
        db.stamps.unchanged_since(0, (), ())
        db.bulk_load([(1.0, "x", [1, 2])])
        assert not db.stamps.unchanged_since(0, [99], ())

    def test_stamps_do_not_depend_on_the_shard_count(self):
        """One history stamps the same stripes at every shard count."""
        words = "alpha bravo charlie delta echo foxtrot golf hotel".split()
        states = []
        for n in (1, 2, 4, 8):
            rng = random.Random(31)
            engine = DisclosureEngine(CONFIG, n_shards=n)
            engine.stamps.unchanged_since(0, (), ())
            for _step in range(40):
                seg = f"s{rng.randrange(6)}"
                roll = rng.random()
                if roll < 0.6:
                    engine.observe(
                        seg,
                        " ".join(rng.choice(words) for _ in range(12)),
                        threshold=rng.choice([0.3, 0.5]),
                    )
                elif roll < 0.8 and seg in engine.segment_db:
                    engine.set_threshold(seg, rng.choice([0.3, 0.5]))
                elif seg in engine.segment_db:
                    engine.remove(seg)
            states.append((engine.stamps.version, list(engine.stamps._stripes)))
        assert all(state == states[0] for state in states)
