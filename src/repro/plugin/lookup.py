"""The policy lookup module (paper Figure 1).

"A policy lookup module extracts the security label associated with the
text segment being uploaded." Lookup wraps the Text Disclosure Model:
it fingerprints outgoing segments, finds the sources they disclose, and
resolves the labels that enforcement will compare against the target
service's privilege label. Results are memoised in the decision cache,
which is what makes per-keystroke checks cheap (paper §6.2).

The delta-aware pipeline (DESIGN.md §13) changes what the cache keys
look like and where fingerprints come from:

* Verdicts are keyed on ``(service, doc, digest, policy
  registrations)`` and stored with the stamp-store version they were
  checked at. The digest is the one paragraph fingerprint's
  :attr:`~repro.fingerprint.fingerprint.Fingerprint.set_digest`, or the
  ordered tuple of every paragraph's, so order and grouping stay
  distinct. A fingerprint memoises its digest, and the plug-in's edit
  buffers and the fingerprint cache present the same object for
  unchanged text, so a served verdict costs a dictionary probe. The
  digests are taken before the tracker lock; only the registrations
  are read under it. An entry is served at once while the version has
  not moved. A one-paragraph entry is otherwise served after checking that
  it was computed for this paragraph and that no stripe of its hashes,
  and neither own segment's label, was stamped since; a write
  elsewhere leaves it valid.
* Callers that already hold the fingerprints pass them in and skip the
  text pipeline: the plug-in passes its ``EditBuffer`` fingerprint on
  XHR syncs and the fingerprints it computed once on form submits, and
  commits the same objects afterwards, so each text is fingerprinted
  once per request (DESIGN.md §13, "Write path"). Only callers without
  fingerprints (batch clients, direct lookups) resolve paragraph texts
  through the content-addressed
  :class:`~repro.plugin.cache.FingerprintCache`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.trace import span
from repro.plugin.cache import DecisionCache, FingerprintCache
from repro.tdm.model import FlowDecision, Suppression, TextDisclosureModel

#: One batch-lookup item: (doc_id, [(paragraph_id, text), ...]).
BatchItem = Tuple[str, Sequence[Tuple[str, str]]]


class PolicyLookup:
    """Resolves flow decisions for outgoing text, with caching.

    Caches created here (none passed) register their counters in the
    model's registry under ``decision_cache.`` / ``fingerprint.cache.``,
    so one snapshot covers the whole lookup path. Served and recomputed
    verdicts are additionally counted under ``decision.epoch_cache.``
    (a cached entry that fails validation counts as a miss).
    """

    def __init__(
        self,
        model: TextDisclosureModel,
        cache: Optional[DecisionCache] = None,
        fingerprint_cache: Optional[FingerprintCache] = None,
    ) -> None:
        self._model = model
        self._cache = (
            cache
            if cache is not None
            else DecisionCache(scope=model.registry.scope("decision_cache."))
        )
        self._fp_cache = (
            fingerprint_cache
            if fingerprint_cache is not None
            else FingerprintCache(
                scope=model.registry.scope("fingerprint.cache.")
            )
        )
        epoch_scope = model.registry.scope("decision.epoch_cache.")
        self._c_epoch_hits = epoch_scope.counter("hits")
        self._c_epoch_misses = epoch_scope.counter("misses")
        #: Multi-paragraph checks, whose entries are served only while
        #: the version has not moved: the hashes of their document
        #: fingerprint are not known without joining the text.
        self._c_epoch_global = epoch_scope.counter("doc_global_epochs")
        self._stamps = model.tracker.stamps
        self._fingerprinter = model.tracker.paragraphs.fingerprinter

    @property
    def model(self) -> TextDisclosureModel:
        return self._model

    @property
    def cache(self) -> DecisionCache:
        return self._cache

    @property
    def fingerprint_cache(self) -> FingerprintCache:
        return self._fp_cache

    def _resolve_fingerprints(
        self,
        paragraphs: Sequence[Tuple[str, str]],
        provided: Optional[Sequence],
    ) -> List:
        """Fingerprints for *paragraphs*, caller-provided or cached.

        *provided* aligns with *paragraphs*; ``None`` slots (and a
        ``None`` list) resolve through the content-addressed fingerprint
        cache, all in one
        :meth:`~repro.plugin.cache.FingerprintCache.fingerprint_many`
        call, so only genuinely new text pays the pipeline, in one
        kernel pass. Fingerprinting reads no model state: callers run
        this before they take the tracker lock.
        """
        if provided is None:
            return self._fp_cache.fingerprint_many(
                self._fingerprinter, [text for _pid, text in paragraphs]
            )
        if len(provided) != len(paragraphs):
            raise ValueError(
                f"got {len(provided)} fingerprints for "
                f"{len(paragraphs)} paragraphs"
            )
        resolved = list(provided)
        missing = [i for i, fp in enumerate(provided) if fp is None]
        if missing:
            computed = self._fp_cache.fingerprint_many(
                self._fingerprinter, [paragraphs[i][1] for i in missing]
            )
            for i, fp in zip(missing, computed):
                resolved[i] = fp
        return resolved

    def _digest(self, fingerprints: Sequence):
        """The fingerprint part of the §13 cache key: the one
        paragraph's memoised set digest, or the ordered tuple of every
        paragraph's. Reads no model state, so callers take it before
        the tracker lock."""
        if len(fingerprints) == 1:
            return fingerprints[0].set_digest
        self._c_epoch_global.inc()
        return tuple(fp.set_digest for fp in fingerprints)

    def _key(self, service_id: str, doc_id: str, digest) -> Tuple:
        """The §13 cache key for a :meth:`_digest`; the caller holds the
        tracker read lock, under which the registrations are read."""
        return (service_id, doc_id, digest, self._model.policies.registrations)

    def _validator(
        self, doc_id: str, paragraphs: Sequence[Tuple[str, str]], fingerprints
    ):
        """Whether a cached ``[decision, checked_at]`` entry may be served.

        Served at once while the stamp-store version has not moved since
        the entry was checked. Otherwise only a one-paragraph entry may
        be served, and only if it was computed for this paragraph and
        document (its ``labels`` keys), no stripe of its hashes was
        stamped since (both engines swept exactly those hashes, and a
        change to a matched source's record or label stamps them too),
        and neither own segment's label was. A served entry is marked
        checked at the current version. The caller holds the tracker
        read lock, so no stamp moves meanwhile.
        """
        stamps = self._stamps
        single = len(paragraphs) == 1

        def valid(entry) -> bool:
            checked_at = entry[1]
            version = stamps.version
            if checked_at == version:
                return True
            if not single:
                return False
            labels = entry[0].labels
            par_id = paragraphs[0][0]
            if par_id not in labels or doc_id not in labels:
                return False
            if not stamps.unchanged_since(
                checked_at, fingerprints[0].hashes, (par_id, doc_id)
            ):
                return False
            entry[1] = version
            return True

        return valid

    def lookup(
        self,
        service_id: str,
        doc_id: str,
        paragraphs: Sequence[Tuple[str, str]],
        *,
        suppressions: Optional[Mapping[str, Sequence[Suppression]]] = None,
        fingerprints: Optional[Sequence] = None,
    ) -> FlowDecision:
        """Resolve the flow decision for an upload.

        Cacheable only when no suppressions apply: a suppression must be
        consumed (and audited) exactly once, so suppressed lookups always
        recompute. *fingerprints*, when given, aligns with *paragraphs*
        and supplies precomputed fingerprints (``None`` slots fall back
        to the cache-or-compute path) — the delta dispatch entry point.
        """
        if suppressions:
            if fingerprints is not None:
                fingerprints = self._resolve_fingerprints(
                    paragraphs, fingerprints
                )
            return self._model.check_upload(
                service_id,
                doc_id,
                paragraphs,
                suppressions=suppressions,
                fingerprints=fingerprints,
            )

        resolved = self._resolve_fingerprints(paragraphs, fingerprints)
        # A one-paragraph document's fingerprint is its paragraph's; only
        # a longer one has a joined text to fingerprint.
        doc_fingerprint = None
        if len(paragraphs) != 1:
            _fps, doc_fingerprint = self._model.tracker.document_fingerprints(
                paragraphs, resolved
            )
        digest = self._digest(resolved)
        # Validation and recomputation must see the same model state, so
        # the rest holds the tracker's read lock: without it a concurrent
        # observation between the two could store a decision computed on
        # newer state as checked at an older version.
        with self._model.lock.read_locked(), span(
            "lookup", service=service_id, doc=doc_id
        ) as sp:
            key = self._key(service_id, doc_id, digest)
            entry = self._cache.get(
                key, self._validator(doc_id, paragraphs, resolved)
            )
            if entry is not None:
                self._c_epoch_hits.inc()
                cached = entry[0]  # type: ignore[index]
                sp.set(cache_hit=True, allowed=cached.allowed)
                return cached
            self._c_epoch_misses.inc()
            decision = self._model.check_upload(
                service_id,
                doc_id,
                paragraphs,
                fingerprints=resolved,
                document_fingerprint=doc_fingerprint,
            )
            self._cache.put(key, [decision, self._stamps.version])
            sp.set(cache_hit=False, allowed=decision.allowed)
            return decision

    def lookup_batch(
        self,
        service_id: str,
        items: Sequence[BatchItem],
        *,
        fingerprints: Optional[Sequence[Optional[Sequence]]] = None,
    ) -> List[FlowDecision]:
        """Resolve many uploads' decisions under one lock acquisition.

        Equivalent to calling :meth:`lookup` per item (same cache, same
        key scheme, so batch and single traffic interoperate), but the
        amortisation is real: one read-lock acquisition and one trace
        span cover the batch; each item's paragraphs are fingerprinted
        *once* — resolved through the content-addressed cache (or taken
        from *fingerprints*, aligned per item) and passed down through
        :meth:`~repro.tdm.model.TextDisclosureModel.check_uploads` — and
        all cache misses resolve through one fused engine sweep per
        granularity instead of two per item. Suppressions are
        deliberately not accepted here: a suppression must be consumed
        and audited exactly once, which the uncached single path
        guarantees.
        """
        if fingerprints is not None and len(fingerprints) != len(items):
            raise ValueError(
                f"got {len(fingerprints)} fingerprint lists for "
                f"{len(items)} items"
            )
        # Every item's missing paragraph fingerprints in one pass, then
        # the joined texts of multi-paragraph items, before the lock.
        flat_paragraphs: List[Tuple[str, str]] = []
        flat_given: List = []
        for i, (_doc_id, paragraphs) in enumerate(items):
            given = fingerprints[i] if fingerprints is not None else None
            if given is None:
                given = [None] * len(paragraphs)
            elif len(given) != len(paragraphs):
                raise ValueError(
                    f"got {len(given)} fingerprints for "
                    f"{len(paragraphs)} paragraphs"
                )
            flat_paragraphs += paragraphs
            flat_given += given
        flat = iter(self._resolve_fingerprints(flat_paragraphs, flat_given))
        all_resolved = self._model.tracker.fingerprint_documents(
            items,
            [list(islice(flat, len(ps))) for _doc_id, ps in items],
        )
        digests = [self._digest(resolved) for resolved, _doc_fp in all_resolved]
        with self._model.lock.read_locked(), span(
            "lookup_batch", service=service_id, items=len(items)
        ) as sp:
            decisions: List[Optional[FlowDecision]] = [None] * len(items)
            misses: List[int] = []
            miss_fps: List[List] = []
            miss_doc_fps: List = []
            keys: List[Tuple] = [()] * len(items)
            hits = 0
            for i, ((doc_id, paragraphs), (resolved, doc_fp)) in enumerate(
                zip(items, all_resolved)
            ):
                key = self._key(service_id, doc_id, digests[i])
                entry = self._cache.get(
                    key, self._validator(doc_id, paragraphs, resolved)
                )
                if entry is not None:
                    hits += 1
                    self._c_epoch_hits.inc()
                    decisions[i] = entry[0]  # type: ignore[index]
                    continue
                self._c_epoch_misses.inc()
                keys[i] = key
                misses.append(i)
                miss_fps.append(resolved)
                miss_doc_fps.append(doc_fp)
            if misses:
                # One fused model call for every miss: one label-check
                # span, one tracker lock, and one batched sweep per
                # engine cover the whole batch.
                computed = self._model.check_uploads(
                    service_id,
                    [items[i] for i in misses],
                    fingerprints=miss_fps,
                    document_fingerprints=miss_doc_fps,
                )
                version = self._stamps.version
                for i, decision in zip(misses, computed):
                    self._cache.put(keys[i], [decision, version])
                    decisions[i] = decision
            sp.set(cache_hits=hits)
            return decisions  # type: ignore[return-value]

    def stats(self) -> Dict[str, object]:
        """Decision-cache and engine index/query counters, one flat dict.

        Engine counters are summed across the two granularities and
        prefixed ``engine_``; decision-cache counters are prefixed
        ``decision_cache_`` (``evictions`` counts capacity drops only,
        so capacity misses are distinguishable from stale entries);
        the content-addressed fingerprint cache reports under
        ``fingerprint_cache_`` and served against recomputed verdicts
        under ``epoch_cache_``; reader–writer lock counters come from the
        tracker's shared lock and are prefixed ``lock_``. Benchmark
        harnesses print these next to the latency numbers so cache and
        lock behaviour is visible alongside timings.
        """
        tracker = self._model.tracker
        combined: Dict[str, object] = {
            "decision_cache_hits": self._cache.hits,
            "decision_cache_misses": self._cache.misses,
            "decision_cache_evictions": self._cache.evictions,
            "decision_cache_hit_rate": self._cache.hit_rate,
            "fingerprint_cache_hits": self._fp_cache.hits,
            "fingerprint_cache_misses": self._fp_cache.misses,
            "fingerprint_cache_evictions": self._fp_cache.evictions,
            "fingerprint_cache_hit_rate": self._fp_cache.hit_rate,
            "epoch_cache_hits": self._c_epoch_hits.value,
            "epoch_cache_misses": self._c_epoch_misses.value,
            "epoch_cache_doc_global_epochs": self._c_epoch_global.value,
        }
        paragraph_stats = tracker.paragraphs.stats()
        document_stats = tracker.documents.stats()
        for key in paragraph_stats:
            combined[f"engine_{key}"] = paragraph_stats[key] + document_stats.get(key, 0)
        for key, value in tracker.lock.stats().items():
            combined[f"lock_{key}"] = value
        return combined
