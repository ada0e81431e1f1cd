"""Bounded caches for the per-check hot path (paper §6.2, DESIGN.md §13).

"Requests are served quickly because one keystroke typically does not
alter the winnowing fingerprint of a paragraph, permitting BrowserFlow
to reuse its previous response."

Two caches share one LRU core here:

* :class:`DecisionCache` — verdict memoisation, keyed by
  :class:`~repro.plugin.lookup.PolicyLookup` on ``(service, document,
  digest, policy registrations)``. The digest is the paragraph
  fingerprint's own memoised
  :attr:`~repro.fingerprint.fingerprint.Fingerprint.set_digest`, or
  for a multi-paragraph upload the ordered tuple of its paragraphs'
  digests; the lookup takes them before the tracker lock, and a
  fingerprint object presented again costs no rehash. Each entry
  carries the stamp-store version it was last checked at, which the
  lookup validates on :meth:`LRUCache.get`.
* :class:`FingerprintCache` — content-addressed fingerprint
  memoisation keyed by a digest of the *raw* paragraph text, so a
  repeated paste of the same secret never re-normalises or re-hashes.
  Raw text (not normalised text) is deliberate: normalisation is
  span-lossy — ``"ab c"`` and ``"a bc"`` normalise identically but
  fingerprint to different original-offset spans — and verdict spans
  feed enforcement highlighting, so the key must distinguish them.

Each cache is shared by every client of its lookup service, so all
operations are guarded by one mutex (an LRU update mutates the ordered
dict even on reads, so a reader–writer split would buy nothing here).
``evictions`` counts entries dropped for *capacity* only — an entry
that fails validation stays in place until its recomputed verdict
replaces it or LRU pressure removes it — so a snapshot reader can tell
an undersized cache from a fast-moving model.

The ``hits``/``misses``/``evictions`` counters and the ``size`` gauge
live in a :class:`~repro.obs.registry.MetricsRegistry` scope
(conventionally ``decision_cache.`` / ``fingerprint.cache.``); read
them from ``cache.metrics.snapshot()``. Increments happen under the
cache mutex, so they are exact.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry, MetricsScope


def text_digest(text: str) -> bytes:
    """16-byte content address of a raw paragraph text."""
    return blake2b(text.encode("utf-8"), digest_size=16).digest()


class LRUCache:
    """A bounded, thread-safe LRU map with registry-backed counters.

    The shared core of :class:`DecisionCache` and
    :class:`FingerprintCache`: ``get`` promotes on hit and counts
    misses, ``put`` inserts at the MRU end and evicts from the LRU end,
    and every counter lives in a metrics scope so one snapshot covers
    the whole lookup path.

    Args:
        capacity: maximum entries before LRU eviction.
        scope: metrics scope for the cache counters. A private registry
            under *default_prefix* is created when omitted; owners
            sharing one registry (the plug-in, the lookup server) pass
            their own scope.
    """

    #: Scope prefix used when no scope is passed; subclasses override.
    default_prefix = "lru_cache."

    def __init__(
        self, capacity: int = 4096, *, scope: Optional[MetricsScope] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._mutex = threading.RLock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        if scope is None:
            scope = MetricsRegistry().scope(self.default_prefix)
        self.metrics = scope
        self._hits = scope.counter("hits")
        self._misses = scope.counter("misses")
        #: Entries dropped because the cache was full (capacity misses),
        #: as opposed to entries that failed validation.
        self._evictions = scope.counter("evictions")
        scope.gauge("size", fn=lambda: len(self._entries))

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def get(
        self,
        key: Hashable,
        valid: Optional[Callable[[object], bool]] = None,
    ) -> Optional[object]:
        """The entry under *key*, promoted to most recent; else None.

        *valid*, when given, is asked about a found entry under the
        cache mutex; an entry it rejects is a miss and stays in place
        for the caller to overwrite.
        """
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None or (valid is not None and not valid(entry)):
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def put(self, key: Hashable, value: object) -> None:
        with self._mutex:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()


class DecisionCache(LRUCache):
    """LRU map from verdict keys to ``[decision, checked_at]`` entries
    (paper §6.2).

    A keystroke that leaves the winnowed hashes unchanged keeps the key,
    so the entry is found; :class:`~repro.plugin.lookup.PolicyLookup`
    then serves it if nothing the verdict read has been stamped since
    ``checked_at`` (DESIGN.md §13).
    """

    default_prefix = "decision_cache."


class FingerprintCache(LRUCache):
    """Content-addressed map from raw-text digests to fingerprints.

    Fingerprints are pure functions of (text, config) and every cache
    instance serves exactly one fingerprinter config, so the raw-text
    digest alone is a sufficient key. Stored values are the engine's
    immutable :class:`~repro.fingerprint.fingerprint.Fingerprint`
    objects — sharing them between hits is safe.
    """

    default_prefix = "fingerprint.cache."

    def fingerprint(self, fingerprinter, text: str):
        """Return the (possibly cached) fingerprint of *text*."""
        return self.fingerprint_many(fingerprinter, (text,))[0]

    def fingerprint_many(self, fingerprinter, texts: Sequence[str]) -> List:
        """The (possibly cached) fingerprints of *texts*, in order.

        Hits are served under the mutex; every miss is computed in one
        :meth:`~repro.fingerprint.fingerprint.Fingerprinter.fingerprint_many`
        pass outside it, so fingerprinting stays off the lock's critical
        section. Two racing misses both compute, and last put wins —
        acceptable for an idempotent value. A text repeated within one
        call is computed once and counted as one miss and then hits, as
        sequential calls count it.
        """
        out: List = []
        # key -> indices in *out* of a text missing from the cache.
        pending: Dict[bytes, List[int]] = {}
        with self._mutex:
            entries = self._entries
            for key in map(text_digest, texts):
                entry = entries.get(key)
                if entry is not None:
                    entries.move_to_end(key)
                elif key in pending:
                    pending[key].append(len(out))
                else:
                    pending[key] = [len(out)]
                out.append(entry)
            self._hits.inc(len(out) - len(pending))
            if pending:
                self._misses.inc(len(pending))
        if pending:
            computed = fingerprinter.fingerprint_many(
                [texts[indices[0]] for indices in pending.values()]
            )
            for (key, indices), fingerprint in zip(pending.items(), computed):
                self.put(key, fingerprint)
                for i in indices:
                    out[i] = fingerprint
        return out
