"""Hash-range sharding of the hash database (DESIGN.md §11).

The §7 indexes are keyed per-hash, so ``DBhash`` partitions cleanly:
:class:`ShardedHashDatabase` splits the hash space ``[0, 2**hash_bits)``
into N contiguous ranges, one
:class:`~repro.disclosure.store.HashDatabase` per range. Every
observation of a given hash value lands on the same shard, which makes
the §4.3 oldest-owner relation *local by construction* — a shard holds
every (segment, timestamp) claim on each of its hashes, so no
cross-shard reconciliation step is ever needed, not even for the
Figure 6 ownership-migration case (withdrawing a hash and re-awarding it
to the next-earliest observer both happen on that hash's home shard).

The query side is a scatter/gather: partition the target's hashes by
shard, sweep each shard in order in the calling thread, and merge the
per-owner matched-hash lists by concatenation. The merge is exact
because the partition makes per-shard contributions disjoint — a hash
is counted by exactly one shard — so the merged counts equal a single
sweep's counts and the engine's quick-discard/threshold pass produces
field-identical reports at every shard count (differential-tested at
1/2/4/8 against the reference oracle in ``tests/reference_engine.py``).

This is the disclosure engine's only hash database: one shard by
default, where partitioning, sweeps and bulk loads skip all per-hash
arithmetic. Like the plain ``HashDatabase`` it is *externally*
synchronised by the owning engine's reader–writer lock (DESIGN.md §8):
sweeps run under its read side, mutations under its write side, and the
database takes no lock of its own.

Every mutation that changes a (hash, segment) association stamps the
hashes it changed in a :class:`StampStore`, which a verdict cache reads
to tell whether a cached verdict is still current (DESIGN.md §13). The
stamps are keyed by hash stripe, never by shard, so cache invalidation
does not depend on the shard count.

Only the hash table is sharded: a durable engine journals to one log
(:mod:`repro.disclosure.wal`), and faults are injected at the lookup
server (DESIGN.md §8), never per shard.
"""

from __future__ import annotations

from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.disclosure.store import HashDatabase
from repro.errors import DisclosureError
from repro.obs.registry import MetricsRegistry, MetricsScope


#: Fibonacci multiplier (odd, ≈ 2**32/φ) used to mix hash values before
#: range-partitioning. Winnowing stores the *minimum* hash of each
#: window, so stored hash magnitudes skew towards the low end of the
#: space (with window w, minima concentrate in roughly the lowest 1/w) —
#: partitioning raw values by range would pile everything onto shard 0.
#: The multiply is a bijection on the hash space (odd multiplier), so
#: distinct hashes stay distinct and the mixed keys spread evenly.
_MIX_MULTIPLIER = 2654435761


def shard_of(hash_value: int, n_shards: int, hash_bits: int) -> int:
    """Home shard of *hash_value*: range partition over the mixed key.

    The mixed key space ``[0, 2**hash_bits)`` is cut into ``n_shards``
    near-equal contiguous ranges; the fixed-point multiply maps key k to
    shard ``k * n >> hash_bits`` exactly, with no modulo bias. The
    Fibonacci pre-mix (see :data:`_MIX_MULTIPLIER`) is what makes the
    ranges balance for winnowed, magnitude-skewed hash values.
    """
    mask = (1 << hash_bits) - 1
    return (((hash_value * _MIX_MULTIPLIER) & mask) * n_shards) >> hash_bits


def partition(
    hashes: Iterable[int], n_shards: int, hash_bits: int
) -> List[Tuple[int, List[int]]]:
    """Group *hashes* by home shard; only non-empty groups are returned."""
    mask = (1 << hash_bits) - 1
    buckets: List[List[int]] = [[] for _ in range(n_shards)]
    for h in hashes:
        buckets[(((h * _MIX_MULTIPLIER) & mask) * n_shards) >> hash_bits].append(h)
    return [(index, group) for index, group in enumerate(buckets) if group]


#: Hash stripes of the :class:`StampStore`: a hash's stripe is the hash
#: modulo this prime, the largest below 2**16 (512 KB of list slots).
#: Not the low 16 bits: the rolling hash is a polynomial modulo
#: 2**hash_bits, so its low 16 bits are the same polynomial modulo 2**16
#: and crowd into few stripes (DESIGN.md §13), while the modulo costs
#: the same as the mask.
STRIPES = 65521


class StampStore:
    """What changed, and when: the verdict cache's validation state.

    One store serves a tracker's two hash databases and its model's
    label store (DESIGN.md §13). ``version`` is a counter that every
    mutation able to change a verdict advances. Each of the
    :data:`STRIPES` hash stripes keeps the version at which a hash in
    it last changed, and each segment whose label changed keeps the
    version of that change. A verdict checked at version ``v`` is still
    current when nothing it read was stamped after ``v``
    (:meth:`unchanged_since`).

    The stripes are built by the first :meth:`unchanged_since`, and
    again by the first one after a bulk load. Until then a stamp only
    advances ``version``, so an engine whose verdicts nothing
    revalidates (a ``DurableEngine`` ingesting and recovering) pays
    nothing per hash. A verdict checked before the stripes were built
    is never vouched for: the version at which they were built is a
    floor below which :meth:`unchanged_since` answers False.

    Externally synchronised like the databases: stamps are written under
    the tracker's write lock and read under its read lock. Two readers
    building the stripes at once build the same list and floor.
    """

    __slots__ = ("version", "_floor", "_stripes", "_segments")

    def __init__(self) -> None:
        self.version = 0
        self._floor = 0
        self._stripes: Optional[List[int]] = None
        self._segments: Dict[str, int] = {}

    def stamp(self, hashes: Iterable[int]) -> None:
        """Advance the version and stamp the stripes of *hashes*."""
        self.version = version = self.version + 1
        stripes = self._stripes
        if stripes is not None:
            for h in hashes:
                stripes[h % STRIPES] = version

    def stamp_all(self) -> None:
        """Advance the version and drop the stripes (a bulk load): the
        next revalidation rebuilds them above every earlier check."""
        self.version += 1
        self._stripes = None

    def stamp_segment(self, segment_id: str, hashes: Iterable[int]) -> None:
        """Stamp a label change of *segment_id*.

        *hashes* are those of the segment's stored records: a verdict
        that matched the segment as a source swept one of them. The
        segment's own stamp covers verdicts for uploads of the segment
        itself, which may have no hashes at all.
        """
        self.stamp(hashes)
        self._segments[segment_id] = self.version

    def unchanged_since(
        self,
        checked_at: int,
        hashes: Iterable[int],
        segments: Iterable[str],
    ) -> bool:
        """True if the stripes were built by version *checked_at* and no
        stripe of *hashes* and no label of *segments* was stamped after
        it."""
        stripes = self._stripes
        if stripes is None:
            # The floor first: a reader that sees the stripes sees it.
            self._floor = self.version
            self._stripes = stripes = [0] * STRIPES
        if checked_at < self._floor:
            return False
        stamp_of = self._segments.get
        for segment_id in segments:
            if stamp_of(segment_id, 0) > checked_at:
                return False
        for h in hashes:
            if stripes[h % STRIPES] > checked_at:
                return False
        return True


class ShardedHashDatabase:
    """``DBhash`` hash-partitioned into N shards (N >= 1).

    Mirrors the :class:`~repro.disclosure.store.HashDatabase` surface
    (mutations make one call per shard group, single-hash reads route
    to the home shard, whole-table views aggregate across shards) and
    adds the scatter/gather sweep entry points the engine uses. Every
    mutation that changes an association stamps the hashes it touched
    in :attr:`stamps`.

    Externally synchronised, like the plain database: the owning
    engine's lock covers every call (DESIGN.md §8).

    Args:
        n_shards: number of shards (>= 1).
        hash_bits: width of the hash space being partitioned (the
            fingerprint config's ``hash_bits``).
        scope: metrics scope; per-shard instruments land under
            ``<scope>.<i>.`` (sweeps, hashes swept, size). A private
            registry scope is created when omitted.
        router: object with ``map(fn, items)`` that multi-shard sweeps
            hand their per-shard jobs to (e.g.
            :class:`~repro.plugin.router.ShardRouter`); they run in
            order in the calling thread when omitted.
        stamps: the :class:`StampStore` mutations stamp; a tracker
            passes one store to both of its engines. A private one is
            created when omitted.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        hash_bits: int = 32,
        scope: Optional[MetricsScope] = None,
        router=None,
        stamps: Optional[StampStore] = None,
    ) -> None:
        if n_shards < 1:
            raise DisclosureError(f"n_shards must be >= 1, got {n_shards}")
        if hash_bits < 1:
            raise DisclosureError(f"hash_bits must be >= 1, got {hash_bits}")
        self.n_shards = n_shards
        self.hash_bits = hash_bits
        if scope is None:
            scope = MetricsRegistry().scope("shard.")
        self.metrics = scope
        registry = scope.registry
        self.shards: Tuple[HashDatabase, ...] = tuple(
            HashDatabase() for _ in range(n_shards)
        )
        self._c_sweeps = tuple(
            registry.counter(f"{scope.prefix}{i}.sweeps") for i in range(n_shards)
        )
        self._c_hashes_swept = tuple(
            registry.counter(f"{scope.prefix}{i}.hashes_swept")
            for i in range(n_shards)
        )
        for i in range(n_shards):
            registry.gauge(
                f"{scope.prefix}{i}.distinct_hashes",
                fn=lambda i=i: len(self.shards[i]),
            )
        self._router = router
        self.stamps = stamps if stamps is not None else StampStore()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, hash_value: int) -> int:
        return shard_of(hash_value, self.n_shards, self.hash_bits)

    def partition(self, hashes: Collection[int]) -> List[Tuple[int, Collection[int]]]:
        """Group *hashes* by home shard; only non-empty groups.

        At one shard the one group is *hashes* itself: no routing and
        no copy.
        """
        if self.n_shards == 1:
            return [(0, hashes)] if hashes else []
        return partition(hashes, self.n_shards, self.hash_bits)

    def _scatter(self, fn: Callable, jobs: Sequence) -> List:
        """Run one sweep's per-shard jobs in order, in this thread.

        A fan-out goes through the router when there is one (it counts
        fan-outs only). The router is looked up on every call, so a
        wrapper installed on it after construction sees every scatter.
        """
        if len(jobs) > 1 and self._router is not None:
            return self._router.map(fn, jobs)
        return [fn(job) for job in jobs]

    # ------------------------------------------------------------------
    # Batched mutation (the engine's delta application)
    # ------------------------------------------------------------------

    def record_fingerprint(
        self, segment_id: str, hashes: Collection[int], timestamp: float
    ) -> bool:
        """Record all *hashes* (distinct) for *segment_id*; True if any
        were new.

        One :meth:`HashDatabase.record_fingerprint` per shard group.
        Stamps *hashes* when any association changed.
        """
        changed = False
        shards = self.shards
        for index, group in self.partition(hashes):
            if shards[index].record_fingerprint(segment_id, group, timestamp):
                changed = True
        if changed:
            self.stamps.stamp(hashes)
        return changed

    def withdraw(self, segment_id: str, hashes: Collection[int]) -> bool:
        """Release the segment's claim on *hashes*; True if any released.

        One :meth:`HashDatabase.withdraw` per shard group. Stamps
        *hashes* when any association changed.
        """
        changed = False
        shards = self.shards
        for index, group in self.partition(hashes):
            if shards[index].withdraw(segment_id, group):
                changed = True
        if changed:
            self.stamps.stamp(hashes)
        return changed

    # ------------------------------------------------------------------
    # Scatter/gather sweep (Algorithm 1's accumulation)
    # ------------------------------------------------------------------

    def sweep(
        self, hashes: Collection[int], *, authoritative: bool = True
    ) -> Dict[str, List[int]]:
        """Per-owner matched target hashes, merged across shards.

        The scatter/gather core: partition the target hashes, sweep each
        shard (one :meth:`_scatter`), and merge by concatenating
        per-owner lists. Contributions are disjoint across shards — each
        hash is counted by exactly its home shard — so the merged counts
        equal a single sweep's.
        """
        if self.n_shards == 1:
            return self._sweep_shard((0, hashes, authoritative)) if hashes else {}
        jobs = [
            (index, group, authoritative)
            for index, group in self.partition(hashes)
        ]
        if not jobs:
            return {}
        scattered = self._scatter(self._sweep_shard, jobs)
        merged: Dict[str, List[int]] = scattered[0]
        for part in scattered[1:]:
            for owner, owner_matched in part.items():
                if owner in merged:
                    merged[owner].extend(owner_matched)
                else:
                    merged[owner] = owner_matched
        return merged

    def _sweep_shard(
        self, job: Tuple[int, Collection[int], bool]
    ) -> Dict[str, List[int]]:
        index, group, authoritative = job
        self._c_sweeps[index].inc()
        self._c_hashes_swept[index].inc(len(group))
        return self.shards[index].sweep(group, authoritative)

    def sweep_many(
        self,
        targets: Sequence[Iterable[int]],
        *,
        authoritative: bool = True,
    ) -> List[Dict[str, List[int]]]:
        """One fused scatter/gather for many targets; one result each.

        Equivalent to ``[self.sweep(t) for t in targets]`` but the whole
        batch is a single scatter: the *union* of target hashes is
        partitioned once, each touched shard is visited once (one index
        probe per distinct hash), and matches are
        redistributed to the targets that asked for the hash. Duplicate
        hashes across targets — common when a batch of uploads shares
        phrasing — are probed once instead of once per target.
        """
        matched_list: List[Dict[str, List[int]]] = [{} for _ in targets]
        # hash -> owning target index, promoted to a list only when the
        # hash appears in more than one target (the common case is one).
        items_of: Dict[int, object] = {}
        get = items_of.get
        for i, target in enumerate(targets):
            for h in target:
                prev = get(h)
                if prev is None:
                    items_of[h] = i
                elif type(prev) is list:
                    prev.append(i)
                else:
                    items_of[h] = [prev, i]
        jobs = [
            (index, group, authoritative)
            for index, group in self.partition(items_of.keys())
        ]
        # Redistribute in shard order: deterministic, and each hash's
        # contribution lands in exactly the targets that contained it.
        for part in self._scatter(self._sweep_shard, jobs):
            for owner, owner_matched in part.items():
                for h in owner_matched:
                    entry = items_of[h]
                    if type(entry) is int:
                        matched = matched_list[entry]
                        if owner in matched:
                            matched[owner].append(h)
                        else:
                            matched[owner] = [h]
                        continue
                    for i in entry:
                        matched = matched_list[i]
                        if owner in matched:
                            matched[owner].append(h)
                        else:
                            matched[owner] = [h]
        return matched_list

    # ------------------------------------------------------------------
    # HashDatabase-compatible surface (routed / aggregated)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, hash_value: int) -> bool:
        return hash_value in self.shards[self.shard_of(hash_value)]

    def oldest_owner(self, hash_value: int) -> Optional[str]:
        return self.shards[self.shard_of(hash_value)].oldest_owner(hash_value)

    def owners(self, hash_value: int) -> List[Tuple[str, float]]:
        return self.shards[self.shard_of(hash_value)].owners(hash_value)

    def observers(self, hash_value: int) -> Tuple[str, ...]:
        return self.shards[self.shard_of(hash_value)].observers(hash_value)

    def first_seen(self, hash_value: int, segment_id: str) -> Optional[float]:
        return self.shards[self.shard_of(hash_value)].first_seen(
            hash_value, segment_id
        )

    def first_seen_of(
        self, segment_id: str, hashes: Collection[int]
    ) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for index, group in self.partition(hashes):
            out.update(self.shards[index].first_seen_of(segment_id, group))
        return out

    def bulk_load(
        self, groups: Iterable[Tuple[float, str, Sequence[int]]]
    ) -> None:
        """Split sorted first-seen groups by home shard and bulk-load each.

        Splitting keeps each shard's groups in input order, so every
        shard sees the ``(first_seen, segment_id)`` order
        :meth:`HashDatabase.bulk_load` requires. One load per touched
        shard; at one shard the groups go through unsplit. Stamps every
        stripe (:meth:`StampStore.stamp_all`).
        """
        if self.n_shards == 1:
            self.shards[0].bulk_load(groups)
        else:
            per_shard: List[List[Tuple[float, str, List[int]]]] = [
                [] for _ in range(self.n_shards)
            ]
            for first_seen, segment_id, hashes in groups:
                for index, part in self.partition(hashes):
                    per_shard[index].append((first_seen, segment_id, part))
            for index, shard_groups in enumerate(per_shard):
                if shard_groups:
                    self.shards[index].bulk_load(shard_groups)
        self.stamps.stamp_all()

    def hashes(self) -> List[int]:
        out: List[int] = []
        for shard in self.shards:
            out.extend(shard.hashes())
        return out

    @property
    def ownership_changes(self) -> int:
        return sum(shard.ownership_changes for shard in self.shards)

    def shard_sizes(self) -> List[int]:
        """Distinct-hash count per shard (balance reporting)."""
        return [len(shard) for shard in self.shards]

    def check_invariants(self) -> None:
        """Per-shard index invariants plus hash-placement discipline."""
        for index, shard in enumerate(self.shards):
            shard.check_invariants()
            for h in shard.hashes():
                assert self.shard_of(h) == index, (
                    f"hash {h} stored on shard {index}, "
                    f"routes to {self.shard_of(h)}"
                )
