"""Fleet executor with a fleet-wide reference-engine audit.

:mod:`repro.eval.workload` decides *what* happens and in what order;
this module makes it happen against the real stack, as fast as it
can — every session gets its own :class:`~repro.browser.page.Browser` +
:class:`~repro.plugin.plugin.BrowserFlowPlugin` whose policy decisions
travel through a shared :class:`~repro.plugin.server.LookupServer`
(one store or a sharded one), exactly the deployment the paper's
enterprise scenario describes. It is a correctness harness: it reports
verdict counts and the audit, not latency, which ``bench/`` measures.

Task-manager/worker split
    A coordinator thread walks the schedule in virtual-time order and
    dispenses ops to a worker pool, so the harness itself never becomes
    the bottleneck: one slow session queues privately while other
    sessions' ops keep flowing. Two ordering rules make runs
    reproducible (the determinism test's contract):

    * **session affinity** — a session's ops execute in schedule order
      (per-session FIFO drained by at most one worker at a time);
    * **fences** — ops whose effects are observed under a confidential
      label (``exclusive`` in the schedule) run as barriers: the
      coordinator waits for everything earlier to finish, runs the op
      alone, then resumes dispatch. Confidential hash ownership is
      therefore a pure function of the schedule, while the freely
      interleaving remainder only touches empty-label segments, which
      can never flip a verdict.

Audit postcondition
    After the run, every paragraph stored in every *untrusted* backend
    (Docs, Forum) is checked twice — by the live model and by an
    independent reference :class:`~repro.disclosure.DisclosureEngine`
    holding only the schedule's secrets — and every disclosing
    paragraph must be covered by a suppression event in the audit log.
    This is ``test_integration_soak``'s invariant promoted to a
    fleet-wide postcondition, which ``tests/test_fleet_sim.py`` checks
    at several worker counts and on the 4-shard tier.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.browser.page import Browser
from repro.disclosure import DisclosureEngine
from repro.eval.timing import edit_toward
from repro.eval.workload import FleetConfig, FleetOp, Schedule
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin import PluginMode
from repro.plugin.lookup import PolicyLookup
from repro.plugin.plugin import BrowserFlowPlugin
from repro.plugin.router import ShardRouter
from repro.plugin.server import LookupClient, LookupServer
from repro.services import DocsService, ForumService, WikiService
from repro.services.network import Network
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.model import SuppressionEvent

#: Reference-engine observation threshold for the audit: well above the
#: model's 0.5 so legitimately sub-threshold residue (shared vocabulary,
#: committed partial copies) is not miscounted as a leak — the same
#: margin rationale as the soak test.
AUDIT_THRESHOLD = 0.8


@dataclass(frozen=True)
class AuditOutcome:
    """Fleet-wide audit verdict; field-identical across worker counts."""

    paragraphs_audited: int
    secrets: int
    leaked: Tuple[str, ...]
    uncovered: Tuple[str, ...]
    suppression_events: int
    ok: bool


@dataclass(frozen=True)
class FleetResult:
    """One executed schedule against one tier."""

    schedule_digest: str
    sessions: int
    ops: int
    decisions: int
    blocked_ops: int
    declassify_noops: int
    audit: AuditOutcome


class ClientLookup(PolicyLookup):
    """A ``PolicyLookup`` whose decisions come from a ``LookupClient``.

    Injected into each session's plug-in so every decision crosses the
    shared service tier (request accounting, timeout budget, server
    histograms) instead of short-circuiting into the model. The server
    side still runs the real ``PolicyLookup`` with the shared decision
    cache. Fleet runs are healthy (no fault injection), so a degraded
    outcome is a harness bug and raises.
    """

    def __init__(self, server: LookupServer, client: LookupClient) -> None:
        # The server's caches, not new ones: a session builds no cache it
        # never uses, and the caches' size gauges stay on the server's.
        super().__init__(
            server.lookup.model,
            server.lookup.cache,
            server.lookup.fingerprint_cache,
        )
        self._client = client

    def lookup(
        self,
        service_id,
        doc_id,
        paragraphs,
        *,
        suppressions=None,
        fingerprints=None,
    ):
        outcome = self._client.lookup(
            service_id,
            doc_id,
            paragraphs,
            suppressions=suppressions,
            fingerprints=fingerprints,
        )
        if outcome.degraded:
            raise RuntimeError(
                f"healthy fleet lookup degraded for {doc_id} "
                f"(faults: {outcome.faults})"
            )
        return outcome.decision


class FleetFixture:
    """The enterprise under test: one trusted wiki, two untrusted
    services, one shared lookup tier, pre-created target pools."""

    def __init__(
        self,
        config: FleetConfig,
        *,
        n_shards: int = 1,
    ) -> None:
        self.network = Network()
        self.wiki = WikiService()
        self.docs = DocsService()
        self.forum = ForumService()
        for service in (self.wiki, self.docs, self.forum):
            self.network.register(service)

        self.policies = PolicyStore()
        self.policies.register_service(
            self.wiki.origin,
            privilege=Label.of("tw"),
            confidentiality=Label.of("tw"),
            display_name="Internal Wiki",
        )
        self.policies.register_service(self.docs.origin, display_name="Docs")
        self.policies.register_service(self.forum.origin, display_name="Forum")

        self.router = ShardRouter() if n_shards > 1 else None
        self.model = TextDisclosureModel(
            self.policies, TINY_CONFIG, n_shards=n_shards, router=self.router
        )
        self.server = LookupServer(PolicyLookup(self.model))

        # Pre-create the pools on the setup thread so concurrent ops
        # never race on backend document creation.
        for k in range(config.doc_pool):
            self.docs.backend.create(title=f"doc-{k}", doc_id=f"doc-{k}")
        for k in range(config.thread_pool):
            topic = f"topic-{k}"
            self.forum.backend.create(title=topic, doc_id=f"thread:{topic}")

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown()


class _SessionState:
    """One simulated user: browser, plug-in, open editors/elements."""

    def __init__(self, fixture: FleetFixture, session: int) -> None:
        self.browser = Browser(fixture.network)
        client = LookupClient(
            fixture.server,
            scope=fixture.model.registry.scope("fleet.client."),
        )
        self.plugin = BrowserFlowPlugin(
            fixture.model,
            mode=PluginMode.ENFORCE,
            lookup=ClientLookup(fixture.server, client),
        )
        self.plugin.attach(self.browser)
        self.session = session
        self.editors: Dict[str, object] = {}
        self.elements: Dict[str, object] = {}


def _execute_op(
    fixture: FleetFixture, state: _SessionState, op: FleetOp
) -> Tuple[bool, bool]:
    """Run one op; returns (delivered, declassify_noop)."""
    if op.kind == "create_secret":
        fixture.wiki.save_page(op.target, op.text)
        state.browser.open(fixture.wiki.page_url(op.target))
        return True, False
    if op.kind == "wiki_post":
        return (
            fixture.wiki.edit(state.browser.new_tab(), op.target, op.text),
            False,
        )
    if op.kind == "forum_post":
        return (
            fixture.forum.post(state.browser.new_tab(), op.target, op.text),
            False,
        )

    editor = state.editors.get(op.target)
    if editor is None:
        editor = fixture.docs.open_editor(state.browser.new_tab(), op.target)
        state.editors[op.target] = editor

    if op.kind == "declassify":
        par_segment = BrowserFlowPlugin.qualify(fixture.docs.origin, op.par_id)
        doc_segment = BrowserFlowPlugin.qualify(fixture.docs.origin, op.target)
        element = state.elements.get(op.par_id)
        if element is None:
            return True, True
        # A blocked paste warns at both granularities (the paragraph and
        # the document it would have joined); the user declassifies each
        # offending tag of the *latest* warning per segment, exactly once.
        latest: Dict[str, Tuple[str, ...]] = {}
        for warning in state.plugin.warnings:
            if warning.segment_id in (par_segment, doc_segment):
                latest[warning.segment_id] = warning.offending
        if par_segment not in latest:
            return True, True
        for segment_id, offending in sorted(latest.items()):
            for tag in sorted(set(offending)):
                state.plugin.suppress(
                    segment_id,
                    tag,
                    f"user-s{op.session}",
                    "fleet declassification",
                )
        # Re-send the same text into the same paragraph: the upload-path
        # check consumes the suppressions and lands them in the audit log.
        return editor.set_paragraph_text(element, op.text), False

    element = editor.new_paragraph(par_id=op.par_id)
    state.elements[op.par_id] = element
    if op.kind == "docs_paste":
        return editor.paste(element, op.text), False
    if op.kind == "docs_type":
        delivered = editor.type_text(element, op.text)
        return delivered == len(op.text), False
    if op.kind == "docs_edit":
        ok = editor.paste(element, op.text)
        for state_text in edit_toward(op.text, op.extra):
            ok = editor.set_paragraph_text(element, state_text)
        return ok, False
    raise ValueError(f"unknown op kind {op.kind!r}")


def audit_untrusted_backends(
    fixture: FleetFixture, secrets: Tuple[str, ...]
) -> AuditOutcome:
    """The soak invariant as a fleet-wide postcondition.

    Every stored paragraph of every untrusted backend is leaked when
    either the live model would refuse to upload it now or an
    independent reference engine holding only the secrets reports
    disclosure at ``AUDIT_THRESHOLD``; every leaked segment must be
    covered by a suppression event in the audit log — at either of the
    two granularities a user can declassify: the paragraph's own
    segment, or the document that stores it (suppressing a tag at
    document granularity permanently declassifies that document for
    the tag, so later derived content flows into it by the user's
    recorded decision).
    """
    reference = DisclosureEngine(TINY_CONFIG)
    for i, secret in enumerate(secrets):
        reference.observe(f"secret-{i}", secret, threshold=AUDIT_THRESHOLD)

    leaked = {}  # paragraph segment -> its document's segment
    paragraphs = 0
    for service in (fixture.docs, fixture.forum):
        documents = sorted(
            service.backend.all_documents(), key=lambda d: d.doc_id
        )
        for doc in documents:
            for par_id, text in doc.paragraphs:
                if not text.strip():
                    continue
                paragraphs += 1
                decision = fixture.model.check_upload(
                    service.origin,
                    f"audit:{par_id}",
                    [(f"audit:{par_id}#p0", text)],
                )
                report = reference.disclosing_sources(
                    fingerprint=reference.fingerprint(text)
                )
                if not decision.allowed or report.disclosing:
                    leaked[
                        BrowserFlowPlugin.qualify(service.origin, par_id)
                    ] = BrowserFlowPlugin.qualify(service.origin, doc.doc_id)

    covered = {
        event.segment_id
        for event in fixture.model.audit
        if isinstance(event, SuppressionEvent)
    }
    suppressions = sum(
        1 for event in fixture.model.audit
        if isinstance(event, SuppressionEvent)
    )
    uncovered = tuple(
        sorted(
            par_seg
            for par_seg, doc_seg in leaked.items()
            if par_seg not in covered and doc_seg not in covered
        )
    )
    return AuditOutcome(
        paragraphs_audited=paragraphs,
        secrets=len(secrets),
        leaked=tuple(sorted(leaked)),
        uncovered=uncovered,
        suppression_events=suppressions,
        ok=not uncovered,
    )


def run_fleet(
    schedule: Schedule,
    *,
    workers: int = 4,
    n_shards: int = 1,
    join_timeout: float = 600.0,
) -> FleetResult:
    """Execute *schedule* flat out against a fresh fixture; audit afterwards.

    Args:
        workers: worker-pool size (the audit outcome must not depend
            on it — that is the determinism test's claim).
        n_shards: hash-database shards of the lookup tier (one, the
            default, is the single-store tier).
    """
    fixture = FleetFixture(schedule.config, n_shards=n_shards)
    ops = schedule.ops
    sessions: Dict[int, _SessionState] = {}
    pending: Dict[int, Deque[FleetOp]] = {}
    active: set = set()
    lock = threading.Lock()
    cond = threading.Condition(lock)
    done = 0
    blocked = 0
    noops = 0
    errors: List[Tuple[int, BaseException]] = []

    def execute(op: FleetOp) -> None:
        nonlocal done, blocked, noops
        try:
            delivered, noop = _execute_op(fixture, sessions[op.session], op)
        except Exception as exc:
            delivered, noop = True, False
            with lock:
                errors.append((op.index, exc))
        with cond:
            if not delivered:
                blocked += 1
            if noop:
                noops += 1
            done += 1
            cond.notify_all()

    def drain(session: int) -> None:
        while True:
            with cond:
                queue = pending.get(session)
                if not queue:
                    active.discard(session)
                    return
                op = queue.popleft()
            execute(op)

    executor = ThreadPoolExecutor(
        max_workers=max(1, workers), thread_name_prefix="fleet"
    )
    try:
        for op in ops:
            if op.session not in sessions:
                # Session states are created on the coordinator, so
                # plug-in construction (gauge registration, cache
                # wiring) is serial and race-free.
                sessions[op.session] = _SessionState(fixture, op.session)
            if op.exclusive:
                with cond:
                    if not cond.wait_for(
                        lambda: done == op.index, timeout=join_timeout
                    ):
                        raise RuntimeError(
                            f"fence timed out before op {op.index}"
                        )
                execute(op)
            else:
                with cond:
                    pending.setdefault(op.session, deque()).append(op)
                    if op.session not in active:
                        active.add(op.session)
                        executor.submit(drain, op.session)
        with cond:
            if not cond.wait_for(lambda: done == len(ops), timeout=join_timeout):
                raise RuntimeError(
                    f"fleet run wedged: {done}/{len(ops)} ops finished"
                )
    finally:
        executor.shutdown(wait=True)

    if errors:
        index, exc = errors[0]
        raise RuntimeError(
            f"{len(errors)} op(s) raised; first at op {index}: {exc!r}"
        ) from exc

    # Every session's plug-in counts into the model's one histogram.
    decisions = fixture.model.registry.snapshot().get("plugin.decisions", 0)
    audit = audit_untrusted_backends(fixture, schedule.secrets)
    fixture.close()
    return FleetResult(
        schedule_digest=schedule.digest,
        sessions=len(sessions),
        ops=len(ops),
        decisions=decisions,
        blocked_ops=blocked,
        declassify_noops=noops,
        audit=audit,
    )


def smoke_config(seed: object = 2016) -> FleetConfig:
    """A CI-sized fleet: same shapes, two orders of magnitude smaller."""
    return FleetConfig(
        sessions=48,
        seed=seed,
        arrival_rate=12.0,
        burst_every=2.0,
        burst_duration=0.5,
        burst_factor=4.0,
        think_mean=0.25,
        doc_pool=12,
        page_pool=8,
        thread_pool=6,
        seed_secrets=3,
    )
