"""Tests for the decision cache."""

import threading

import pytest

from repro.plugin.cache import DecisionCache


class TestDecisionCache:
    def test_miss_then_hit(self):
        cache = DecisionCache()
        key = ("svc", "doc", b"digest", 0)
        assert cache.get(key) is None
        cache.put(key, "decision")
        assert cache.get(key) == "decision"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_key_includes_policy_count(self):
        cache = DecisionCache()
        cache.put(("svc", "doc", b"digest", 0), "old")
        assert cache.get(("svc", "doc", b"digest", 1)) is None

    def test_key_includes_fingerprint(self):
        cache = DecisionCache()
        cache.put(("svc", "doc", b"digest-a", 0), "a")
        assert cache.get(("svc", "doc", b"digest-b", 0)) is None

    def test_rejected_entry_is_a_miss_and_stays(self):
        cache = DecisionCache()
        key = ("svc", "doc", b"digest", 0)
        cache.put(key, ["decision", 3])
        assert cache.get(key, lambda entry: entry[1] == 4) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1
        assert cache.get(key, lambda entry: entry[1] == 3) == ["decision", 3]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = DecisionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_capacity_bound(self):
        cache = DecisionCache(capacity=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DecisionCache(capacity=0)

    def test_clear(self):
        cache = DecisionCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = DecisionCache()
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == 0.5


class TestEvictions:
    def test_counts_capacity_drops_exactly(self):
        cache = DecisionCache(capacity=3)
        for i in range(10):
            cache.put(i, i)
        assert cache.evictions == 7

    def test_update_in_place_does_not_evict(self):
        cache = DecisionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)  # overwrite, still 2 entries
        assert cache.evictions == 0
        assert cache.get("a") == 3

    def test_clear_does_not_count_as_eviction(self):
        cache = DecisionCache(capacity=2)
        cache.put("a", 1)
        cache.clear()
        assert cache.evictions == 0

    def test_policy_change_leaves_entry_until_lru_pressure(self):
        # A policy registration orphans the old entry without evicting
        # it; only capacity pressure removes it (and counts it).
        cache = DecisionCache(capacity=2)
        k0 = ("svc", "doc", b"digest", 0)
        k1 = ("svc", "doc", b"digest", 1)
        cache.put(k0, "old")
        cache.put(k1, "new")
        assert len(cache) == 2
        assert cache.evictions == 0
        cache.put("other", "x")  # now the stale k0 is LRU-dropped
        assert cache.evictions == 1
        assert cache.get(k1) == "new"


class TestThreadSafety:
    def test_concurrent_puts_stay_bounded_and_accounted(self):
        cache = DecisionCache(capacity=16)
        barrier = threading.Barrier(4, timeout=5)

        def hammer(tid):
            barrier.wait()
            for i in range(250):
                key = (tid, i)
                cache.put(key, i)
                cache.get(key)
                cache.get(("missing", tid, i))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(cache) == 16
        # Every counter is mutex-guarded, so totals are exact even under
        # contention: 1000 puts leave 16 entries -> 984 evictions, and
        # hits/misses partition the 2000 gets.
        assert cache.evictions == 4 * 250 - 16
        assert cache.hits + cache.misses == 4 * 250 * 2
        assert cache.misses >= 4 * 250  # every "missing" get missed

    def test_concurrent_batches_fingerprint_outside_every_lock(self):
        """Threads resolving overlapping batches (more threads than
        cores, a tiny switch interval) share one cache and one kernel,
        whose power tables they may grow at once: every fingerprint
        equals the reference, and hits and misses partition the texts
        asked for."""
        import sys

        from repro.fingerprint import Fingerprinter
        from repro.fingerprint.config import TINY_CONFIG
        from repro.plugin.cache import FingerprintCache

        fingerprinter = Fingerprinter(TINY_CONFIG)
        cache = FingerprintCache(capacity=64)
        texts = [
            f"shared paragraph {i} " + "with words that repeat " * (i % 7 + 1)
            for i in range(40)
        ]
        want = [fingerprinter.fingerprint_reference(t) for t in texts]
        barrier = threading.Barrier(6, timeout=5)
        failures = []

        def worker(tid):
            barrier.wait()
            for round_ in range(30):
                picks = [(tid * 7 + round_ * 3 + j) % len(texts) for j in range(8)]
                got = cache.fingerprint_many(
                    fingerprinter, [texts[i] for i in picks]
                )
                if got != [want[i] for i in picks]:
                    failures.append((tid, round_))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert cache.hits + cache.misses == 6 * 30 * 8


class TestDigests:
    def test_text_digest_stable_and_distinct(self):
        from repro.plugin.cache import text_digest

        assert text_digest("alpha") == text_digest("alpha")
        assert text_digest("alpha") != text_digest("alpha ")
        assert len(text_digest("")) == 16

    def test_fingerprint_set_digest_order_and_boundaries(self):
        from repro.fingerprint.fingerprint import fingerprint_set_digest

        # Set iteration order must not matter; sequence order must.
        assert fingerprint_set_digest([{1, 2, 3}]) == fingerprint_set_digest(
            [{3, 1, 2}]
        )
        assert fingerprint_set_digest([{1}, {2}]) != fingerprint_set_digest(
            [{2}, {1}]
        )
        # Grouping is part of the identity: [{a}, {b}] != [{a, b}].
        assert fingerprint_set_digest([{1}, {2}]) != fingerprint_set_digest(
            [{1, 2}]
        )
        assert fingerprint_set_digest([]) != fingerprint_set_digest([set()])

    def test_fingerprint_set_digest_serialisation(self):
        """Each set is its sorted values as 8-byte little-endian words,
        then nine 0xff bytes."""
        from hashlib import blake2b

        from repro.fingerprint.fingerprint import fingerprint_set_digest

        sets = [{7, 1 << 40, 3}, set(), {(1 << 64) - 1}]
        reference = blake2b(digest_size=16)
        for hashes in sets:
            for value in sorted(hashes):
                reference.update(value.to_bytes(8, "little"))
            reference.update(b"\xff" * 9)
        assert fingerprint_set_digest(sets) == reference.digest()


class TestFingerprintCache:
    def _fingerprinter(self):
        from repro.fingerprint import Fingerprinter
        from repro.fingerprint.config import TINY_CONFIG

        return Fingerprinter(TINY_CONFIG)

    def test_miss_computes_then_hit_shares_object(self):
        from repro.plugin.cache import FingerprintCache

        cache = FingerprintCache()
        fingerprinter = self._fingerprinter()
        text = "the quick brown fox jumps over the lazy dog"
        first = cache.fingerprint(fingerprinter, text)
        second = cache.fingerprint(fingerprinter, text)
        assert second is first  # immutable value, shared on hit
        assert cache.hits == 1 and cache.misses == 1
        assert first.hashes == fingerprinter.fingerprint(text).hashes

    def test_raw_text_key_distinguishes_span_lossy_aliases(self):
        """Texts with equal normalised form but different spans must not
        share an entry (the §13 raw-digest deviation rationale)."""
        from repro.fingerprint.normalize import normalize
        from repro.plugin.cache import FingerprintCache

        cache = FingerprintCache()
        fingerprinter = self._fingerprinter()
        a, b = "  ab cd ef gh", "ab cd ef gh  "
        assert normalize(a).text == normalize(b).text
        fp_a = cache.fingerprint(fingerprinter, a)
        fp_b = cache.fingerprint(fingerprinter, b)
        assert cache.misses == 2 and cache.hits == 0
        spans = lambda fp: [
            (s.orig_start, s.orig_end) for s in fp.selections
        ]
        assert fp_a.hashes == fp_b.hashes
        assert spans(fp_a) != spans(fp_b)

    def test_batch_computes_each_missing_text_once_in_one_pass(self):
        """A text repeated within one call is computed once and counted
        as one miss and then hits, as sequential calls count it."""
        from repro.plugin.cache import FingerprintCache

        fingerprinter = self._fingerprinter()
        passes = []
        many = fingerprinter.fingerprint_many

        def counting(texts):
            passes.append(list(texts))
            return many(texts)

        fingerprinter.fingerprint_many = counting
        a, b, c = (
            "alpha bravo charlie delta",
            "echo foxtrot golf hotel",
            "india juliet kilo",
        )
        batched = FingerprintCache()
        batched.fingerprint(fingerprinter, c)
        passes.clear()
        got = batched.fingerprint_many(fingerprinter, [a, c, b, a, a, c])
        assert passes == [[a, b]]
        assert got[0] is got[3] is got[4] and got[1] is got[5]
        for text, fp in zip([a, c, b, a, a, c], got):
            assert fp == fingerprinter.fingerprint_reference(text)
        sequential = FingerprintCache()
        sequential.fingerprint(fingerprinter, c)
        for text in [a, c, b, a, a, c]:
            sequential.fingerprint(fingerprinter, text)
        assert (batched.hits, batched.misses) == (4, 3)
        assert (sequential.hits, sequential.misses) == (4, 3)

    def test_capacity_eviction_recomputes(self):
        from repro.plugin.cache import FingerprintCache

        cache = FingerprintCache(capacity=1)
        fingerprinter = self._fingerprinter()
        cache.fingerprint(fingerprinter, "alpha bravo charlie delta")
        cache.fingerprint(fingerprinter, "echo foxtrot golf hotel")
        assert cache.evictions == 1
        cache.fingerprint(fingerprinter, "alpha bravo charlie delta")
        assert cache.misses == 3  # the evicted entry was recomputed
