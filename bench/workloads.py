"""The benchmark's four workloads.

Each workload builds the stack from public constructors and drives only
public calls. A workload makes its inputs from the seed once
(``__init__``), then runs rounds: :meth:`setup` builds fresh state (the
timed set-up) for the next round's inputs, :meth:`instrument` wraps the
fresh instances for a traced round, and :meth:`measure` runs the timed
phase, ticking the host probe between requests, and checks every output.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

from repro import (
    PAPER_CONFIG,
    TINY_CONFIG,
    Browser,
    BrowserFlowPlugin,
    DisclosureEngine,
    DocsService,
    ForumService,
    Label,
    LookupClient,
    LookupServer,
    Network,
    PluginMode,
    PolicyStore,
    TextDisclosureModel,
    WikiService,
)
import repro.disclosure.wal as wal_module
from repro.datasets import EbookCorpus
from repro.datasets.synthesis import TextSynthesizer
from repro.disclosure.wal import DurableEngine
from repro.eval.timing import edit_toward
from repro.eval.workload import FleetConfig, ZipfSampler, generate_schedule
from repro.fingerprint.incremental import EditBuffer
from repro.obs.registry import MetricsRegistry
from repro.plugin.lookup import PolicyLookup
from repro.plugin.router import ShardRouter
from repro.plugin.server import BatchLookupClient
from repro.tdm.model import SuppressionEvent

from hostspeed import HostProbe
from layers import Tracer, counter_delta, merge_counts

#: Reference-engine threshold of the fleet audit: well above the
#: model's 0.5, so sub-threshold residue (shared vocabulary, committed
#: partial copies) is not miscounted as a leak.
AUDIT_THRESHOLD = 0.8


def _digest(payload) -> str:
    data = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _verdict(decision) -> Tuple[bool, List[str]]:
    offending = sorted({t for v in decision.violations for t in v.offending.names()})
    return decision.allowed, offending


@dataclass
class RoundResult:
    """What one timed phase did, every list in request order."""

    #: Which of the workload's input sets the round ran; rounds of the
    #: same input set make the same requests and must agree on verdicts.
    variant: int = 0
    op_ms: List[float] = field(default_factory=list)
    check_ms: List[float] = field(default_factory=list)
    #: The timed steps the throughput is counted against: the ops, and
    #: for ``ingest_recover`` the WAL sync that makes them durable.
    steps_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    verdict_digest: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    #: Factor taking the round's timings to the nominal host speed
    #: (see ``hostspeed``); set by the round loop.
    scale: float = 1.0


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------


class _ClientLookup(PolicyLookup):
    """Routes every plug-in decision through a ``LookupClient``.

    Records each decision's latency and verdict for the benchmark; a
    degraded outcome (the fleet is healthy, so it is a failure) is
    counted and handed to enforcement like any other decision.
    """

    def __init__(self, server: LookupServer, client: LookupClient, fleet: "_Fleet") -> None:
        super().__init__(server.lookup.model, server.lookup.cache)
        self._client = client
        self._fleet = fleet

    def lookup(self, service_id, doc_id, paragraphs, *, suppressions=None, fingerprints=None):
        started = time.perf_counter()
        outcome = self._client.lookup(
            service_id, doc_id, paragraphs,
            suppressions=suppressions, fingerprints=fingerprints,
        )
        self._fleet.check_ms.append((time.perf_counter() - started) * 1000.0)
        if outcome.degraded:
            self._fleet.degraded += 1
        self._fleet.verdicts.append(_verdict(outcome.decision))
        return outcome.decision


class _Session:
    def __init__(self, fleet: "_Fleet") -> None:
        self.browser = Browser(fleet.network)
        self.client = LookupClient(fleet.server, scope=fleet.model.registry.scope("bench.client."))
        self.plugin = BrowserFlowPlugin(
            fleet.model, mode=PluginMode.ENFORCE,
            lookup=_ClientLookup(fleet.server, self.client, fleet),
        )
        self.plugin.attach(self.browser)
        self.editors: Dict[str, object] = {}
        self.elements: Dict[str, object] = {}


class _Fleet:
    """The enterprise: a trusted wiki, untrusted Docs and Forum, one
    shared single-engine lookup tier, and one browser per session."""

    def __init__(self, schedule, variant: int) -> None:
        config = schedule.config
        self.schedule = schedule
        self.variant = variant
        self.network = Network()
        self.wiki, self.docs, self.forum = WikiService(), DocsService(), ForumService()
        for service in (self.wiki, self.docs, self.forum):
            self.network.register(service)
        policies = PolicyStore()
        policies.register_service(
            self.wiki.origin, privilege=Label.of("tw"), confidentiality=Label.of("tw"),
        )
        policies.register_service(self.docs.origin)
        policies.register_service(self.forum.origin)
        self.model = TextDisclosureModel(policies, TINY_CONFIG)
        self.server = LookupServer(PolicyLookup(self.model))
        for k in range(config.doc_pool):
            self.docs.backend.create(title=f"doc-{k}", doc_id=f"doc-{k}")
        for k in range(config.thread_pool):
            self.forum.backend.create(title=f"topic-{k}", doc_id=f"thread:topic-{k}")
        self.check_ms: List[float] = []
        self.verdicts: List[Tuple[bool, List[str]]] = []
        self.degraded = 0
        self.sessions = {op.session: _Session(self) for op in schedule.ops}


def _execute(fleet: _Fleet, session: _Session, op) -> bool:
    """Run one schedule op; returns whether its upload was delivered."""
    if op.kind == "create_secret":
        fleet.wiki.save_page(op.target, op.text)
        session.browser.open(fleet.wiki.page_url(op.target))
        return True
    if op.kind == "wiki_post":
        return fleet.wiki.edit(session.browser.new_tab(), op.target, op.text)
    if op.kind == "forum_post":
        return fleet.forum.post(session.browser.new_tab(), op.target, op.text)
    editor = session.editors.get(op.target)
    if editor is None:
        editor = fleet.docs.open_editor(session.browser.new_tab(), op.target)
        session.editors[op.target] = editor
    if op.kind == "declassify":
        element = session.elements.get(op.par_id)
        if element is None:
            return True
        par_segment = BrowserFlowPlugin.qualify(fleet.docs.origin, op.par_id)
        doc_segment = BrowserFlowPlugin.qualify(fleet.docs.origin, op.target)
        # The user declassifies every offending tag of the latest warning
        # on the paragraph and on its document, then re-sends the text.
        latest: Dict[str, Tuple[str, ...]] = {}
        for warning in session.plugin.warnings:
            if warning.segment_id in (par_segment, doc_segment):
                latest[warning.segment_id] = warning.offending
        if par_segment not in latest:
            return True
        for segment_id, offending in sorted(latest.items()):
            for tag in sorted(set(offending)):
                session.plugin.suppress(segment_id, tag, f"user-s{op.session}", "bench declassification")
        return editor.set_paragraph_text(element, op.text)
    element = editor.new_paragraph(par_id=op.par_id)
    session.elements[op.par_id] = element
    if op.kind == "docs_paste":
        return editor.paste(element, op.text)
    if op.kind == "docs_type":
        return editor.type_text(element, op.text) == len(op.text)
    if op.kind == "docs_edit":
        delivered = editor.paste(element, op.text)
        for state in edit_toward(op.text, op.extra):
            delivered = editor.set_paragraph_text(element, state)
        return delivered
    raise ValueError(f"unknown op kind {op.kind!r}")


def audit_fleet(fleet: _Fleet, secrets) -> List[str]:
    """Stored paragraphs that leak a secret with no suppression covering them.

    A stored paragraph of an untrusted backend leaks when an independent
    reference engine holding only the schedule's secrets finds
    disclosure at ``AUDIT_THRESHOLD``. A leak is covered by a suppression
    event on the paragraph or on its document (a document-level
    declassification is the user's decision). The live model is not
    asked again: its verdict on stored text may change after the upload
    as hash ownership migrates, so it would flag uploads that complied
    when they were made.
    """
    reference = DisclosureEngine(TINY_CONFIG)
    for i, secret in enumerate(secrets):
        reference.observe(f"secret-{i}", secret, threshold=AUDIT_THRESHOLD)
    covered = {e.segment_id for e in fleet.model.audit if isinstance(e, SuppressionEvent)}
    uncovered = []
    for service in (fleet.docs, fleet.forum):
        for doc in sorted(service.backend.all_documents(), key=lambda d: d.doc_id):
            for par_id, text in doc.paragraphs:
                if not text.strip():
                    continue
                if reference.disclosing_sources(fingerprint=reference.fingerprint(text)).disclosing:
                    par_segment = BrowserFlowPlugin.qualify(service.origin, par_id)
                    doc_segment = BrowserFlowPlugin.qualify(service.origin, doc.doc_id)
                    if par_segment not in covered and doc_segment not in covered:
                        uncovered.append(par_segment)
    return uncovered


class FleetWorkload:
    """Fleet schedules replayed closed-loop on one thread.

    Ops run one at a time in schedule order against the default
    single-engine tier: every session has its own browser and plug-in,
    and every decision crosses a ``LookupClient`` to the shared server.
    The workload holds *variants* schedules of one configuration, each
    from its own seed derived from the run's seed, and set-up ``k``
    builds the fleet for schedule ``k mod variants``: fleet ops differ
    in cost from schedule to schedule (a few editor opens of Zipf-hot
    documents re-observe a long document), and a run that averages over
    several schedules depends less on which seed it was given.
    """

    def __init__(self, config: FleetConfig, variants: int) -> None:
        self.variants = variants
        self.schedules = [
            generate_schedule(replace(config, seed=f"{config.seed}.{k}"))
            for k in range(variants)
        ]
        self.input_digest = _digest([s.digest for s in self.schedules])

    def setup(self, index: int) -> _Fleet:
        variant = index % self.variants
        return _Fleet(self.schedules[variant], variant)

    def instrument(self, fleet: _Fleet, tracer: Tracer) -> None:
        model = fleet.model
        tracer.instrument(model, "tdm.observe", "observe")
        tracer.instrument(model, "tdm.check", "check_upload", "check_uploads")
        tracer.instrument(model, "tdm.commit", "commit_upload")
        _instrument_tracker(model.tracker, tracer)
        tracer.instrument(fleet.server, "plugin.server", "handle", "handle_batch")
        tracer.instrument(fleet.server.lookup, "plugin.lookup", "lookup", "lookup_batch")
        wrap_send = _xhr_wrapper(tracer)
        for session in fleet.sessions.values():
            tracer.instrument(session.client, "plugin.client", "lookup")
            hooks = session.browser.page_hooks
            hooks[:] = [wrap_send(tracer.wrap("plugin.page_hook", hook)) for hook in hooks]

    def measure(self, fleet: _Fleet, tracer: Tracer, probe: HostProbe) -> RoundResult:
        schedule = fleet.schedule
        result = RoundResult(variant=fleet.variant)
        delivered: List[Tuple[int, bool]] = []
        before = fleet.model.registry.snapshot()
        for op in schedule.ops:
            session = fleet.sessions[op.session]
            degraded = fleet.degraded
            started = time.perf_counter()
            try:
                with tracer.root("op", op.index):
                    ok = _execute(fleet, session, op)
            except Exception as exc:  # an op that raises is a failed op
                ok = False
                result.failed += 1
                result.errors.append(f"op {op.index}: {exc!r}")
            else:
                if fleet.degraded != degraded:
                    result.failed += 1
                    result.errors.append(f"op {op.index}: degraded lookup")
            result.op_ms.append((time.perf_counter() - started) * 1000.0)
            delivered.append((op.index, ok))
            probe.tick()
        result.steps_ms = result.op_ms
        result.counters = counter_delta(before, fleet.model.registry.snapshot())
        result.check_ms = fleet.check_ms
        result.attempted = len(schedule.ops)
        uncovered = audit_fleet(fleet, schedule.secrets)
        result.failed += len(uncovered)
        result.errors.extend(f"uncovered leak {seg}" for seg in uncovered[:5])
        result.verdict_digest = _digest([delivered, fleet.verdicts])
        return result

    def teardown(self, fleet: _Fleet) -> None:
        return None


# ----------------------------------------------------------------------
# Lookup tier under a scan
# ----------------------------------------------------------------------

LIBRARY = "https://library.example.com"
DOCS = "https://docs.example.com"
INTRANET = "https://intranet.example.com"
BATCH_SIZE = 32
#: Single-request lookups after each batch: enough per round that the
#: p99 has at least ten samples beyond it.
SINGLES_PER_BATCH = 4
ZIPF_EXPONENT = 1.0
WRITES_PER_S = 20.0


@dataclass(frozen=True)
class LookupSizes:
    books: int
    paragraphs_per_book: int
    pool: int
    batches: int
    #: Enough intranet documents to keep writing for the whole reader phase.
    writer_docs: int = 400


class _Tier:
    def __init__(self, corpus: EbookCorpus, n_shards: int) -> None:
        policies = PolicyStore()
        policies.register_service(LIBRARY, privilege=Label.of("lib"), confidentiality=Label.of("lib"))
        policies.register_service(INTRANET, privilege=Label.of("intra"), confidentiality=Label.of("intra"))
        policies.register_service(DOCS)
        self.registry = MetricsRegistry()
        self.router = ShardRouter(max_workers=n_shards, scope=self.registry.scope("router."))
        self.model = TextDisclosureModel(
            policies, PAPER_CONFIG, registry=self.registry, n_shards=n_shards, router=self.router,
        )
        self.server = LookupServer(PolicyLookup(self.model))
        self.client = BatchLookupClient(self.server, scope=self.registry.scope("bench.client."))
        for book in corpus:
            doc_id = f"{LIBRARY}|{book.book_id}"
            self.model.observe(
                LIBRARY, doc_id,
                [(f"{doc_id}#p{i}", text) for i, text in enumerate(book.paragraphs)],
            )


class LookupScanWorkload:
    """The sharded lookup tier (4 shards plus ``ShardRouter``) under a Zipf scan.

    One reader thread runs ``BatchLookupClient.lookup_batch`` closed-loop
    for a fixed batch count and, after each batch, a few single-request
    ``lookup`` calls (the per-keystroke path). Probes come from a pool of
    distinct texts, about a third of them blocked copies of library
    paragraphs. One writer thread observes intranet documents of another
    topic at a fixed rate, so writes contend with reads without changing
    any probe's verdict.
    """

    n_shards = 4
    variants = 1

    def __init__(self, seed: int, sizes: LookupSizes) -> None:
        self.sizes = sizes
        self.corpus = EbookCorpus.generate(
            n_books=sizes.books, paragraphs_per_book=sizes.paragraphs_per_book, seed=seed
        )
        rng = random.Random(f"bench:{seed}:lookup-probes")
        other = TextSynthesizer("chicago", rng)
        library = [p for book in self.corpus for p in book.paragraphs]
        pool, seen = [], set()
        while len(pool) < sizes.pool:
            if rng.random() < 1 / 3:
                text, blocked = f"{rng.choice(library)} {other.sentence()}", True
            else:
                text, blocked = other.paragraph(2, 5), False
            if text not in seen:
                seen.add(text)
                pool.append((text, blocked))
        self.pool = pool
        zipf = ZipfSampler(sizes.pool, ZIPF_EXPONENT, random.Random(f"bench:{seed}:lookup-zipf"))
        per_batch = BATCH_SIZE + SINGLES_PER_BATCH
        self.draws = [zipf.sample() for _ in range(sizes.batches * per_batch)]
        writer = TextSynthesizer("camera", random.Random(f"bench:{seed}:lookup-writer"))
        self.writer_docs = [
            [writer.paragraph(3, 5) for _ in range(3)] for _ in range(sizes.writer_docs)
        ]
        self.input_digest = _digest([pool, self.draws, self.writer_docs])

    def setup(self, index: int) -> _Tier:
        return _Tier(self.corpus, self.n_shards)

    def instrument(self, tier: _Tier, tracer: Tracer) -> None:
        model = tier.model
        tracer.instrument(model, "tdm.observe", "observe")
        tracer.instrument(model, "tdm.check", "check_upload", "check_uploads")
        _instrument_tracker(model.tracker, tracer)
        tracer.instrument(tier.router, "router.scatter", "map")
        tracer.instrument(tier.server, "plugin.server", "handle", "handle_batch")
        tracer.instrument(tier.server.lookup, "plugin.lookup", "lookup", "lookup_batch")
        tracer.instrument(tier.client, "plugin.client", "lookup", "lookup_batch")

    def _item(self, k: int):
        doc_id = f"{DOCS}|probe-{k}"
        return doc_id, [(f"{doc_id}#p0", self.pool[k][0])]

    def _check(self, k: int, outcome, result: RoundResult, verdicts: list) -> None:
        allowed, offending = _verdict(outcome.decision)
        verdicts.append((k, allowed, offending))
        blocked = self.pool[k][1]
        if outcome.degraded or allowed == blocked or offending != (["lib"] if blocked else []):
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(f"probe {k}: allowed={allowed} offending={offending}")

    def measure(self, tier: _Tier, tracer: Tracer, probe: HostProbe) -> RoundResult:
        result = RoundResult()
        verdicts: list = []
        done = threading.Event()
        writes: List[int] = []
        writer_errors: List[str] = []

        def write_loop() -> None:
            began = time.perf_counter()
            for i, paragraphs in enumerate(self.writer_docs):
                delay = began + i / WRITES_PER_S - time.perf_counter()
                if done.wait(max(0.0, delay)):
                    return
                doc_id = f"{INTRANET}|w{i}"
                try:
                    with tracer.root("write", f"w{i}"):
                        tier.server.observe(
                            INTRANET, doc_id,
                            [(f"{doc_id}#p{j}", text) for j, text in enumerate(paragraphs)],
                        )
                except Exception as exc:  # reported as a failed write
                    writer_errors.append(f"write {i}: {exc!r}")
                writes.append(i)

        writer = threading.Thread(target=write_loop, name="bench-writer")
        before = tier.registry.snapshot()
        per_batch = BATCH_SIZE + SINGLES_PER_BATCH
        writer.start()
        try:
            for b in range(self.sizes.batches):
                ks = self.draws[b * per_batch: (b + 1) * per_batch]
                started = time.perf_counter()
                with tracer.root("op", b):
                    outcomes = list(tier.client.lookup_batch(
                        DOCS, [self._item(k) for k in ks[:BATCH_SIZE]]
                    ))
                result.op_ms.append((time.perf_counter() - started) * 1000.0)
                probe.tick()
                for j, k in enumerate(ks[BATCH_SIZE:]):
                    started = time.perf_counter()
                    with tracer.root("check", f"{b}.{j}"):
                        outcomes.append(tier.client.lookup(DOCS, *self._item(k)))
                    result.check_ms.append((time.perf_counter() - started) * 1000.0)
                    probe.tick()
                for k, outcome in zip(ks, outcomes):
                    self._check(k, outcome, result, verdicts)
        finally:
            done.set()
            writer.join(timeout=60)
        if writer.is_alive():
            raise RuntimeError("writer thread did not stop")
        result.counters = counter_delta(before, tier.registry.snapshot())
        result.failed += len(writer_errors)
        result.errors.extend(writer_errors[:5])
        result.attempted = len(verdicts) + len(writes)
        result.steps_ms = result.op_ms
        result.verdict_digest = _digest(verdicts)
        return result

    def teardown(self, tier: _Tier) -> None:
        tier.router.shutdown()


# ----------------------------------------------------------------------
# Durable ingest and crash recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IngestSizes:
    books: int
    paragraphs_per_book: int
    compact_every: int
    probes: int
    #: Crash recoveries timed per round, each from the same directory.
    recoveries: int = 3


class _Durable:
    def __init__(self, directory: Path, compact_every: int) -> None:
        self.directory = directory
        self.compact_every = compact_every
        self.registry = MetricsRegistry()
        self.engine = self.open(self.registry)

    def open(self, registry: MetricsRegistry) -> DurableEngine:
        return DurableEngine(
            self.directory, config=PAPER_CONFIG, fsync="batch",
            compact_every=self.compact_every, registry=registry,
        )


class IngestRecoverWorkload:
    """``DurableEngine`` journals a corpus, is abandoned, and recovers.

    The round observes every paragraph (WAL appends, batch fsyncs and
    compactions), syncs the WAL, abandons the engine without ``close()``
    and times ``DurableEngine(dir)`` recovery (snapshot load plus tail
    replay) several times over the same directory; recovery only reads
    it. Verdicts of the last recovered engine on a probe set must equal
    the live engine's.
    """

    variants = 1

    def __init__(self, seed: int, sizes: IngestSizes, workdir: Path) -> None:
        self.sizes = sizes
        self.workdir = workdir
        self.corpus = EbookCorpus.generate(
            n_books=sizes.books, paragraphs_per_book=sizes.paragraphs_per_book, seed=seed
        )
        self.segments = [
            (f"{book.book_id}#p{i}", text, book.book_id)
            for book in self.corpus for i, text in enumerate(book.paragraphs)
        ]
        rng = random.Random(f"bench:{seed}:ingest-probes")
        other = TextSynthesizer("chicago", rng)
        half = sizes.probes // 2
        copies = rng.sample(range(len(self.segments)), half)
        self.probes = [(self.segments[i][1], self.segments[i][0]) for i in copies]
        self.probes += [(other.paragraph(4, 8), None) for _ in range(sizes.probes - half)]
        self.input_digest = _digest([self.segments, self.probes])
        self.input_bytes = sum(len(text.encode("utf-8")) for _id, text, _doc in self.segments)

    def setup(self, index: int) -> _Durable:
        directory = self.workdir / f"round-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        return _Durable(directory, self.sizes.compact_every)

    def instrument(self, durable: _Durable, tracer: Tracer) -> None:
        engine = durable.engine
        tracer.instrument(engine, "wal.compact", "compact")
        tracer.instrument(engine.wal, "wal.append", "append", "append_payload")
        _instrument_engine(engine.engine, tracer)
        tracer.instrument(engine.engine.lock, "lock.wait", "acquire_read", "acquire_write")

    def measure(self, durable: _Durable, tracer: Tracer, probe: HostProbe) -> RoundResult:
        result = RoundResult()
        live = durable.engine
        for i, (segment_id, text, doc_id) in enumerate(self.segments):
            started = time.perf_counter()
            with tracer.root("op", i):
                live.observe(segment_id, text, doc_id=doc_id)
            result.op_ms.append((time.perf_counter() - started) * 1000.0)
            probe.tick()
        started = time.perf_counter()
        with tracer.root("wal.sync", "sync"):
            live.wal.sync()
        result.steps_ms = result.op_ms + [(time.perf_counter() - started) * 1000.0]
        # The live engine is abandoned here, never closed: recovery sees
        # exactly what a crash right after the sync would leave on disk.
        # Each recovery starts with the previous one closed and collected,
        # so every one of them runs on the same heap.
        replay_registry = MetricsRegistry()
        recovered = None
        for k in range(self.sizes.recoveries):
            if recovered is not None:
                recovered.close()
                recovered = None
            gc.collect()
            started = time.perf_counter()
            with tracer.root("wal.recover", k):
                recovered = durable.open(replay_registry)
            result.check_ms.append((time.perf_counter() - started) * 1000.0)
            probe.tick()
        try:
            verdicts = []
            for p, (text, source) in enumerate(self.probes):
                got = recovered.disclosing_sources(fingerprint=recovered.fingerprint(text))
                want = live.disclosing_sources(fingerprint=live.fingerprint(text))
                got_ids = [(s.segment_id, s.score) for s in got.sources]
                want_ids = [(s.segment_id, s.score) for s in want.sources]
                verdicts.append(want_ids)
                found = [segment_id for segment_id, _score in want_ids]
                if got_ids != want_ids or (source not in found if source else found):
                    result.failed += 1
                    if len(result.errors) < 5:
                        result.errors.append(f"probe {p}: recovered {got_ids[:2]} live {want_ids[:2]}")
        finally:
            recovered.close()
        result.attempted = len(self.segments) + self.sizes.recoveries + len(self.probes)
        result.counters = {"bench.input_bytes": self.input_bytes}
        for registry in (durable.registry, replay_registry):
            merge_counts(result.counters, counter_delta({}, registry.snapshot()))
        result.verdict_digest = _digest(verdicts)
        return result

    def teardown(self, durable: _Durable) -> None:
        shutil.rmtree(durable.directory, ignore_errors=True)


def _instrument_engine(engine, tracer: Tracer) -> None:
    """Trace one disclosure engine; its (possibly shared) lock is the caller's."""
    tracer.instrument(engine, "disclosure.observe", "observe_fingerprint")
    tracer.instrument(engine, "disclosure.sweep", "disclosing_sources", "disclosing_sources_many")
    tracer.instrument(engine.fingerprinter, "fingerprint", "fingerprint")
    for lock in getattr(engine.hash_db, "locks", ()):
        tracer.instrument(lock, "lock.wait", "acquire_read", "acquire_write")


def _instrument_tracker(tracker, tracer: Tracer) -> None:
    tracer.instrument(tracker.lock, "lock.wait", "acquire_read", "acquire_write")
    _instrument_engine(tracker.paragraphs, tracer)
    _instrument_engine(tracker.documents, tracer)


def _xhr_wrapper(tracer: Tracer):
    """Page-hook decorator that traces the XHR ``send`` the plug-in patched in."""

    def decorate(hook):
        def traced_hook(tab):
            hook(tab)
            prototype = tab.window.xhr_prototype
            if not hasattr(prototype.send, "__wrapped__"):
                prototype.send = tracer.wrap("plugin.xhr", prototype.send)

        return traced_hook

    return decorate


def install_class_tracing(tracer: Tracer) -> None:
    """Trace what no built instance exposes: the plug-in's edit buffers
    and the snapshot/replay steps inside ``DurableEngine`` recovery."""
    for attr in ("__init__", "update", "current"):
        setattr(EditBuffer, attr, tracer.wrap("plugin.delta", getattr(EditBuffer, attr)))
    for attr in ("read_snapshot", "restore_into"):
        setattr(wal_module, attr, tracer.wrap("wal.recover.snapshot", getattr(wal_module, attr)))
    wal_module.replay_records = tracer.wrap("wal.recover.replay", wal_module.replay_records)
