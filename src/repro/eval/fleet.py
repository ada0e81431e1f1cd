"""Open-loop fleet executor with a fleet-wide reference-engine audit.

:mod:`repro.eval.workload` decides *what* happens and *when*; this
module makes it happen against the real stack — every session gets its
own :class:`~repro.browser.page.Browser` +
:class:`~repro.plugin.plugin.BrowserFlowPlugin` whose policy decisions
travel through a shared :class:`~repro.plugin.server.LookupServer`
(single engine or the PR-7 sharded tier), exactly the deployment the
paper's enterprise scenario describes.

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

Open-loop lateness
    When pacing is enabled each op has a wall-clock due time; lateness
    (actual start − scheduled start) is the queueing signal a closed
    loop structurally cannot see, recorded per op alongside service
    time into ``fleet.*`` histograms of the model's
    :class:`~repro.obs.registry.MetricsRegistry` and reported as
    percentiles.

Audit postcondition
    After the run, every paragraph stored in every *untrusted* backend
    (Docs, Forum) is checked twice — by the live model and by an
    independent reference :class:`~repro.disclosure.DisclosureEngine`
    holding only the schedule's secrets — and every disclosing
    paragraph must be covered by a suppression event in the audit log.
    This is ``test_integration_soak``'s invariant promoted to a
    fleet-wide postcondition; :func:`measure` refuses to report any
    performance number for a run whose audit fails.
"""

from __future__ import annotations

import platform
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.browser.page import Browser
from repro.disclosure import DisclosureEngine
from repro.eval.timing import edit_toward
from repro.eval.workload import FleetConfig, FleetOp, Schedule, generate_schedule
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
from repro.util.stats import percentile

#: Schema version of BENCH_fleet.json; bump on shape changes.
SCHEMA_VERSION = 1

#: Reference-engine observation threshold for the audit: well above the
#: model's 0.5 so legitimately sub-threshold residue (shared vocabulary,
#: committed partial copies) is not miscounted as a leak — the same
#: margin rationale as the soak test.
AUDIT_THRESHOLD = 0.8

#: Lateness can reach far beyond service time when the offered load
#: exceeds capacity; these buckets keep the histogram meaningful there.
LATENESS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: The sharded tier measured by measure() (the PR-7 deployment shape).
N_SHARDS = 4


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
    seconds: float
    service_ms: Tuple[float, ...]
    lateness_ms: Tuple[float, ...]  # empty when unpaced
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
        super().__init__(server.lookup.model, server.lookup.cache)
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
    pace: Optional[float] = None,
    join_timeout: float = 600.0,
) -> FleetResult:
    """Execute *schedule* against a fresh fixture; audit afterwards.

    Args:
        workers: worker-pool size (the audit outcome must not depend
            on it — that is the determinism test's claim).
        n_shards: hash-database shards of the lookup tier (one, the
            default, is the single-store tier).
        pace: target ops per wall second. When set, ops become *due* at
            ``virtual_time × (ops/pace)/horizon`` and open-loop lateness
            is recorded; when None the schedule runs flat out and the
            lateness series is empty.
    """
    fixture = FleetFixture(schedule.config, n_shards=n_shards)
    registry = fixture.model.registry
    scope = registry.scope("fleet.")
    h_service = scope.histogram("service_seconds")
    h_lateness = scope.histogram("lateness_seconds", buckets=LATENESS_BUCKETS)
    c_ops = scope.counter("ops")
    c_blocked = scope.counter("blocked_ops")
    c_noop = scope.counter("declassify_noops")

    ops = schedule.ops
    scale = 0.0
    if pace is not None and schedule.horizon > 0:
        scale = (len(ops) / pace) / schedule.horizon

    sessions: Dict[int, _SessionState] = {}
    pending: Dict[int, Deque[Tuple[FleetOp, float]]] = {}
    active: set = set()
    lock = threading.Lock()
    cond = threading.Condition(lock)
    done = 0
    blocked = 0
    noops = 0
    service_ms: List[float] = []
    lateness_ms: List[float] = []
    errors: List[Tuple[int, BaseException]] = []

    start = time.perf_counter()

    def execute(op: FleetOp, due: float) -> None:
        nonlocal done, blocked, noops
        began = time.perf_counter()
        if pace is not None:
            late = max(0.0, (began - start) - due)
            h_lateness.observe(late)
            with lock:
                lateness_ms.append(late * 1000.0)
        try:
            delivered, noop = _execute_op(fixture, sessions[op.session], op)
        except Exception as exc:
            delivered, noop = True, False
            with lock:
                errors.append((op.index, exc))
        elapsed = time.perf_counter() - began
        h_service.observe(elapsed)
        c_ops.inc()
        with cond:
            service_ms.append(elapsed * 1000.0)
            if not delivered:
                blocked += 1
                c_blocked.inc()
            if noop:
                noops += 1
                c_noop.inc()
            done += 1
            cond.notify_all()

    def drain(session: int) -> None:
        while True:
            with cond:
                queue = pending.get(session)
                if not queue:
                    active.discard(session)
                    return
                op, due = queue.popleft()
            execute(op, due)

    executor = ThreadPoolExecutor(
        max_workers=max(1, workers), thread_name_prefix="fleet"
    )
    try:
        for op in ops:
            due = op.at * scale
            if pace is not None:
                delay = due - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
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
                execute(op, due)
            else:
                with cond:
                    pending.setdefault(op.session, deque()).append((op, due))
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
    seconds = time.perf_counter() - start

    if errors:
        index, exc = errors[0]
        raise RuntimeError(
            f"{len(errors)} op(s) raised; first at op {index}: {exc!r}"
        ) from exc

    decisions = sum(
        len(state.plugin.response_times) for state in sessions.values()
    )
    audit = audit_untrusted_backends(fixture, schedule.secrets)
    fixture.close()
    return FleetResult(
        schedule_digest=schedule.digest,
        sessions=len(sessions),
        ops=len(ops),
        decisions=decisions,
        blocked_ops=blocked,
        declassify_noops=noops,
        seconds=seconds,
        service_ms=tuple(service_ms),
        lateness_ms=tuple(lateness_ms),
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


def full_config(seed: object = 2016) -> FleetConfig:
    """The committed-benchmark shape: >= 1000 simulated sessions."""
    return FleetConfig(sessions=1000, seed=seed)


def _series(values: Tuple[float, ...]) -> Dict[str, float]:
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": max(values),
    }


def _tier_block(result: FleetResult) -> dict:
    return {
        "sessions": result.sessions,
        "ops": result.ops,
        "decisions": result.decisions,
        "blocked_ops": result.blocked_ops,
        "declassify_noops": result.declassify_noops,
        "seconds": result.seconds,
        "throughput_ops_s": (
            result.ops / result.seconds if result.seconds > 0 else 0.0
        ),
        "service_ms": _series(result.service_ms),
        "lateness_ms": _series(result.lateness_ms),
        "audit": {
            "paragraphs_audited": result.audit.paragraphs_audited,
            "secrets": result.audit.secrets,
            "leaked": len(result.audit.leaked),
            "uncovered": len(result.audit.uncovered),
            "suppression_events": result.audit.suppression_events,
            "ok": result.audit.ok,
        },
    }


def measure(
    smoke: bool,
    seed: int,
    *,
    sessions: Optional[int] = None,
    workers: int = 4,
    pace: Optional[float] = None,
    n_shards: int = N_SHARDS,
    churn: float = 0.0,
) -> dict:
    """The full fleet comparison (the BENCH_fleet.json payload).

    Runs the identical schedule against the single-engine tier and the
    sharded tier, **asserting the audit postcondition for each tier
    before reporting any number**, and asserting both tiers reached the
    same audit verdict (they must: verdicts are schedule-deterministic).
    """
    config = smoke_config(seed) if smoke else full_config(seed)
    overrides: Dict[str, object] = {}
    if sessions is not None:
        overrides["sessions"] = sessions
    if churn:
        overrides["churn"] = churn
    if overrides:
        config = FleetConfig(
            **{
                **{f: getattr(config, f) for f in config.__dataclass_fields__},
                **overrides,
            }
        )
    if pace is None:
        # Smoke runs have headroom at 150 ops/s; the full run offers
        # ~2x the measured single-tier capacity at 1000 sessions, so
        # the lateness series shows sustained open-loop queueing
        # without the offered load being pure fiction.
        pace = 150.0 if smoke else 60.0
    schedule = generate_schedule(config)

    tiers: Dict[str, FleetResult] = {}
    for name, shards in (("single", 1), ("sharded", n_shards)):
        result = run_fleet(
            schedule, workers=workers, n_shards=shards, pace=pace
        )
        assert result.audit.ok, (
            f"{name} tier failed the fleet audit: "
            f"{len(result.audit.uncovered)} uncovered disclosure(s): "
            f"{result.audit.uncovered[:5]}"
        )
        tiers[name] = result

    assert tiers["single"].audit == tiers["sharded"].audit, (
        "audit outcomes diverge between tiers — verdicts are supposed "
        "to be schedule-deterministic"
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "fleet",
        "smoke": smoke,
        "seed": seed,
        "python": platform.python_version(),
        "config": {
            "sessions": config.sessions,
            "workers": workers,
            "pace_ops_s": pace,
            "n_shards": n_shards,
            "arrival_rate": config.arrival_rate,
            "burst_every": config.burst_every,
            "burst_duration": config.burst_duration,
            "burst_factor": config.burst_factor,
            "think_mean": config.think_mean,
            "zipf_exponent": config.zipf_exponent,
            "churn": config.churn,
            "ngram_size": TINY_CONFIG.ngram_size,
            "window_size": TINY_CONFIG.window_size,
            "hash_bits": TINY_CONFIG.hash_bits,
        },
        "workload": {
            "ops": len(schedule.ops),
            "kinds": schedule.kind_counts(),
            "secrets": len(schedule.secrets),
            "horizon_virtual_s": schedule.horizon,
            "schedule_digest": schedule.digest,
        },
        "tiers": {name: _tier_block(result) for name, result in tiers.items()},
        "audit_match": True,
    }
