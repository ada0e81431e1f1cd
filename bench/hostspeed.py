"""How fast the host runs Python right now.

The host's speed changes by up to 1.8x for seconds to minutes at a time
(its cores are shared with other tenants), and a slow spell can outlast
a run. The benchmark therefore interleaves a fixed slice of work with
the requests it times: after a request, once ``INTERVAL_S`` has passed
since the last slice, :meth:`HostProbe.tick` times one more slice. Each
round's timings are scaled by ``REFERENCE_MS`` over the median slice
time of that round, so every timing reported is what the round would
have taken on a host that runs the slice in ``REFERENCE_MS``.

The slice belongs to the benchmark and never changes with the program,
so the scaling cancels the host and keeps the program's own gains and
losses. It does in miniature what the program does most: split text
into words, hash word 3-grams, winnow the hashes and look them up in a
table larger than the CPU caches. The mix matters: in a slow spell
cache-resident arithmetic slows by up to 2x and table-bound work by
less, and the program's timings slow by 1.2-1.5x.

Two limits. The program evicts the slice's data between slices, so a
slice between requests takes longer than one timed back to back, and a
little longer still after a program with a large footprint: 7% longer
after random reads over a 60 MB table than over a 2 MB one. And the
slice runs on the load thread's core only, while the shard router's
workers also use the other core.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The nominal slice time every timing is scaled to. Between the
#: requests of a workload on a 2-core Xeon under Python 3.11 the slice
#: takes 0.7-1.3 ms, as the host's speed swings; timed back to back,
#: with its data in the caches, 0.3 ms.
REFERENCE_MS = 0.65
#: Least time between two slices: about 2% of a round goes to slices.
INTERVAL_S = 0.025

_WINDOW = 4
_CHUNK_WORDS = 240
_TABLE_SIZE = 200_000
_LOOKUPS = 1200
_MASK = (1 << 40) - 1


class HostProbe:
    """Times the reference slice; its inputs are fixed at construction."""

    def __init__(self) -> None:
        rng = random.Random(0)
        letters = "abcdefghijklmnopqrstuvwxyz"
        vocabulary = [
            "".join(rng.choice(letters) for _ in range(rng.randint(2, 9))) for _ in range(3000)
        ]
        self._word_ids = {word: i for i, word in enumerate(vocabulary)}
        self._words = [rng.choice(vocabulary).capitalize() for _ in range(50_000)]
        self._table = {rng.getrandbits(40): i for i in range(_TABLE_SIZE)}
        keys = list(self._table)
        self._keys = [keys[rng.randrange(_TABLE_SIZE)] for _ in range(50_000)]
        self._pos = 0
        self._last = 0.0
        self.samples: list = []

    def _slice(self) -> int:
        start = self._pos
        self._pos = (start + _CHUNK_WORDS) % (len(self._words) - _CHUNK_WORDS)
        text = " ".join(self._words[start:start + _CHUNK_WORDS]).lower()
        ids = [self._word_ids[word] for word in text.split()]
        grams = [
            ((a * 7919 + b) * 7919 + c) & _MASK for a, b, c in zip(ids, ids[1:], ids[2:])
        ]
        winnowed = {min(grams[i:i + _WINDOW]) for i in range(len(grams) - _WINDOW + 1)}
        table = self._table
        found = sum(1 for gram in winnowed if gram in table)
        offset = start % (len(self._keys) - _LOOKUPS)
        return found + sum(table[key] for key in self._keys[offset:offset + _LOOKUPS])

    def time_slice(self) -> float:
        """Seconds one slice takes now, with the collector off (a
        collection would charge the slice for the workload's heap)."""
        gc.disable()
        try:
            started = time.perf_counter()
            self._slice()
            return time.perf_counter() - started
        finally:
            gc.enable()

    def tick(self) -> None:
        """Time a slice if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(self.time_slice())
            self._last = time.perf_counter()

    def sample(self, n: int) -> None:
        """Time *n* slices now."""
        for _ in range(n):
            self.samples.append(self.time_slice())
        self._last = time.perf_counter()

    def scale(self) -> float:
        """``REFERENCE_MS`` over the median slice since the last call.

        Multiplying a time measured meanwhile by this gives it at the
        nominal host speed. Clears the samples.
        """
        if not self.samples:
            self.sample(1)
        median_ms = statistics.median(self.samples) * 1000.0
        self.samples = []
        return REFERENCE_MS / median_ms
