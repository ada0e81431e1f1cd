"""The BrowserFlow plug-in: browser glue tying lookup to enforcement.

Per page load the plug-in (paper §5):

* patches the window's ``XMLHttpRequest.prototype.send`` so AJAX
  uploads (the Docs sync protocol) pass through policy checks;
* registers ``submit`` listeners on every form so form-based services
  (wiki, interview tool, forum) are gated the same way;
* attaches mutation observers to AJAX editor containers so disclosure
  decisions run as the user types, marking violating paragraphs red;
* ingests the text already rendered on the page — editor paragraphs or
  Readability-extracted article text — so text first observed in a
  service is labelled with that service's confidentiality label.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.browser.dom import Document, Element
from repro.browser.events import Event
from repro.browser.forms import collect_form_data, is_form_input, is_hidden_input
from repro.browser.http import HttpResponse
from repro.browser.mutation import MutationObserver, MutationRecord
from repro.browser.readability import extract_main_text
from repro.errors import RequestBlocked
from repro.fingerprint.incremental import EditBuffer
from repro.obs.trace import span
from repro.plugin.adapters import DEFAULT_ADAPTERS, EditorAdapter
from repro.plugin.cache import DecisionCache
from repro.plugin.crypto import UploadCipher
from repro.plugin.enforcement import EnforcementAction, PluginMode, PolicyEnforcement
from repro.plugin.lookup import PolicyLookup
from repro.plugin.ui import Highlighter
from repro.tdm.model import (
    FlowDecision,
    FlowViolation,
    Suppression,
    TextDisclosureModel,
)
from repro.util.text import split_paragraphs


@dataclass(frozen=True)
class WarningEvent:
    """One disclosure warning surfaced to the user."""

    service_id: str
    doc_id: str
    segment_id: str
    offending: Tuple[str, ...]
    source_ids: Tuple[str, ...]
    proceeded: bool
    timestamp: float


class BrowserFlowPlugin:
    """The middleware. Create once, attach to a browser, and it rides
    along with every page the user opens.

    Args:
        model: the Text Disclosure Model holding policies and the
            disclosure databases.
        mode: enforcement mode (advisory / enforce / encrypt).
        cipher: upload cipher, required for ENCRYPT mode.
        lookup: optional :class:`PolicyLookup` (or subclass) the plug-in
            should route decisions through instead of building its own.
            This is how a deployment points many plug-ins at a shared
            lookup *service* (e.g. the fleet simulator's
            client-over-``LookupServer`` adapter); the plug-in adopts
            the lookup's decision cache so cache accounting stays with
            the tier that owns it.
    """

    def __init__(
        self,
        model: TextDisclosureModel,
        *,
        mode: PluginMode = PluginMode.ENFORCE,
        cipher: Optional[UploadCipher] = None,
        secret_tracker=None,
        lookup: Optional[PolicyLookup] = None,
    ) -> None:
        self.model = model
        #: Optional exact-match tracker for short secrets (§4.4); its
        #: secret ids must be valid tag names, and a secret may only be
        #: uploaded to services whose Lp carries that tag.
        self.secret_tracker = secret_tracker
        #: Editor adapters: how editable segments are found per service
        #: family (§5.2 "minimal effort" extension point).
        self.adapters: List[EditorAdapter] = list(DEFAULT_ADAPTERS)
        #: The model's registry: the plug-in's own instruments and the
        #: decision cache register here, next to the engine counters.
        self.registry = model.registry
        if lookup is not None:
            self.lookup = lookup
            self.cache = lookup.cache
        else:
            self.cache = DecisionCache(
                scope=self.registry.scope("decision_cache.")
            )
            self.lookup = PolicyLookup(model, self.cache)
        self.enforcement = PolicyEnforcement(mode, cipher)
        self.ui = Highlighter()
        self.warnings: List[WarningEvent] = []
        #: Disclosure-decision latencies in seconds (paper §6.2).
        self.response_times: List[float] = []
        plugin_scope = self.registry.scope("plugin.")
        plugin_scope.gauge("decisions", fn=lambda: len(self.response_times))
        plugin_scope.gauge("warnings", fn=lambda: len(self.warnings))
        self._h_decision = plugin_scope.histogram("decision_seconds")
        self._pending_suppressions: Dict[str, List[Suppression]] = {}
        #: Per-segment delta state (DESIGN.md §13): a bounded LRU of
        #: :class:`~repro.fingerprint.incremental.EditBuffer` mirrors,
        #: one per recently edited paragraph, so per-keystroke checks
        #: re-fingerprint only the edit's dirty radius instead of the
        #: whole paragraph.
        self._edit_buffers: "OrderedDict[str, EditBuffer]" = OrderedDict()
        self._max_edit_buffers = 512
        delta_scope = self.registry.scope("plugin.delta.")
        self._c_delta_checks = delta_scope.counter("checks")
        self._c_delta_builds = delta_scope.counter("builds")
        self._c_delta_edits = delta_scope.counter("edits")
        self._observers: List[MutationObserver] = []
        self._patched_windows: List = []
        self._warning_listeners: List = []
        self._sync_parsers: List = []
        self._browser = None

    @property
    def mode(self) -> PluginMode:
        return self.enforcement.mode

    @mode.setter
    def mode(self, mode: PluginMode) -> None:
        self.enforcement.mode = mode

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, browser) -> None:
        """Install the plug-in: runs on every subsequent page load."""
        self._browser = browser
        browser.add_page_hook(self._on_page)

    def detach(self) -> None:
        """Uninstall: restore XHR prototypes, disconnect observers.

        Corresponds to disabling the extension — pages already loaded
        stop being intercepted and future loads are untouched. The
        model (labels, databases, audit) is left intact.
        """
        if self._browser is not None and self._on_page in self._browser.page_hooks:
            self._browser.page_hooks.remove(self._on_page)
        for window in self._patched_windows:
            window.xhr_prototype.restore()
        self._patched_windows.clear()
        for observer in self._observers:
            observer.disconnect()
        self._observers.clear()

    def on_warning(self, listener) -> None:
        """Register a callback invoked with every new WarningEvent.

        The hook a desktop-notification UI or SIEM forwarder would use.
        """
        self._warning_listeners.append(listener)

    def register_adapter(self, adapter: EditorAdapter) -> None:
        """Teach the plug-in a new AJAX editing surface."""
        self.adapters.append(adapter)

    def register_sync_parser(self, parser) -> None:
        """Teach the XHR interceptor a new sync-body shape.

        *parser* is called with ``(service_id, payload_dict)`` and
        returns ``(raw_doc_id, raw_segment_id, text)`` when it
        recognises the payload, else None. Together with an adapter
        this is all a new service needs for full enforcement (§5.2).
        """
        self._sync_parsers.append(parser)

    def _on_page(self, tab) -> None:
        service = tab.page.service
        if service is None:
            return
        service_id = service.origin
        self._patch_xhr(tab.window, service_id)
        self._hook_forms(tab, service_id)
        self._ingest_page(tab, service_id)
        self._observe_editor(tab, service_id)

    # ------------------------------------------------------------------
    # User override (tag suppression)
    # ------------------------------------------------------------------

    def suppress(
        self, segment_id: str, tag, user: str, justification: str
    ) -> None:
        """Queue a one-shot declassification for a segment's next check.

        Mirrors the paper's case-by-case suppression: it applies to the
        next upload attempt of that segment only, and lands in the audit
        log when consumed.
        """
        suppression = Suppression.of(tag, user, justification)
        self._pending_suppressions.setdefault(segment_id, []).append(suppression)

    def _take_suppressions(
        self, segment_ids: Sequence[str]
    ) -> Dict[str, List[Suppression]]:
        taken: Dict[str, List[Suppression]] = {}
        for segment_id in segment_ids:
            pending = self._pending_suppressions.pop(segment_id, None)
            if pending:
                taken[segment_id] = pending
        return taken

    # ------------------------------------------------------------------
    # Decision pipeline (shared by all interception paths)
    # ------------------------------------------------------------------

    def _delta_fingerprint(self, segment_id: str, text: str):
        """Fingerprint *text* through the segment's edit buffer.

        First sight of a segment builds an
        :class:`~repro.fingerprint.incremental.EditBuffer` (one full
        pipeline pass); every later check diffs against the mirrored
        text and re-hashes only the edit's ``k+w-1`` dirty radius. The
        buffer pool is a bounded LRU — an evicted segment simply pays
        one full build on its next edit.
        """
        buffers = self._edit_buffers
        buffer = buffers.get(segment_id)
        if buffer is None:
            buffer = EditBuffer(
                self.model.tracker.paragraphs.config, text
            )
            buffers[segment_id] = buffer
            self._c_delta_builds.inc()
            while len(buffers) > self._max_edit_buffers:
                buffers.popitem(last=False)
            fingerprint = buffer.current()
        else:
            before = buffer.delta_edits
            fingerprint = buffer.update(text)
            if buffer.delta_edits > before:
                self._c_delta_edits.inc()
        buffers.move_to_end(segment_id)
        self._c_delta_checks.inc()
        return fingerprint

    def _decide(
        self,
        service_id: str,
        doc_id: str,
        segments: Sequence[Tuple[str, str]],
        *,
        consume_suppressions: bool = True,
        fingerprints: Optional[Sequence] = None,
    ) -> Tuple[EnforcementAction, float]:
        """Run lookup + enforcement, timed; returns (action, seconds).

        Only upload-path checks consume pending one-shot suppressions;
        the advisory checks that fire while the user is typing must not,
        or a queued declassification would be spent on a UI refresh
        before the actual upload it was meant for.
        """
        suppressions: Dict[str, List[Suppression]] = {}
        if consume_suppressions:
            suppressions = self._take_suppressions(
                [seg_id for seg_id, _text in segments] + [doc_id]
            )
        with span(
            "decision", service=service_id, doc=doc_id, segments=len(segments)
        ) as sp:
            started = time.perf_counter()
            decision = self.lookup.lookup(
                service_id,
                doc_id,
                segments,
                suppressions=suppressions or None,
                fingerprints=fingerprints,
            )
            decision = self._apply_secret_tracker(service_id, segments, decision)
            action = self.enforcement.enforce(decision, dict(segments))
            elapsed = time.perf_counter() - started
            sp.set(allowed=decision.allowed, proceed=action.proceed)
        self.response_times.append(elapsed)
        self._h_decision.observe(elapsed)
        return action, elapsed

    def _apply_secret_tracker(
        self,
        service_id: str,
        segments: Sequence[Tuple[str, str]],
        decision: FlowDecision,
    ) -> FlowDecision:
        """Add violations for exact short-secret matches (§4.4).

        Short secrets (passwords, keys) are below the fingerprinting
        floor, so the similarity engine cannot see them; the equality
        tracker catches them regardless of the lookup's verdict.
        """
        if self.secret_tracker is None:
            return decision
        from repro.tdm.labels import Label, SegmentLabel

        privilege = self.model.policies.get(service_id).privilege
        extra = []
        for segment_id, text in segments:
            for match in self.secret_tracker.scan(text):
                secret_label = Label.of(match.secret_id)
                if secret_label.is_subset_of(privilege):
                    continue
                extra.append(
                    FlowViolation(
                        segment_id=segment_id,
                        label=SegmentLabel.of(explicit=[match.secret_id]),
                        offending=secret_label,
                        granularity="secret",
                    )
                )
        if not extra:
            return decision
        return FlowDecision(
            service_id=decision.service_id,
            allowed=False,
            violations=decision.violations + tuple(extra),
            labels=decision.labels,
        )

    def _record_warnings(
        self, service_id: str, doc_id: str, decision: FlowDecision, proceeded: bool
    ) -> None:
        for violation in decision.violations:
            event = WarningEvent(
                service_id=service_id,
                doc_id=doc_id,
                segment_id=violation.segment_id,
                offending=tuple(violation.offending.names()),
                source_ids=tuple(
                    sorted({s.segment_id for s in violation.sources})
                ),
                proceeded=proceeded,
                timestamp=time.perf_counter(),
            )
            self.warnings.append(event)
            for listener in list(self._warning_listeners):
                listener(event)

    # ------------------------------------------------------------------
    # XHR interception (AJAX services, paper §5.2)
    # ------------------------------------------------------------------

    def _patch_xhr(self, window, service_id: str) -> None:
        prototype = window.xhr_prototype
        original_send = prototype.send
        self._patched_windows.append(window)

        def intercepted_send(xhr, body: Optional[str]) -> HttpResponse:
            parsed = self._parse_sync_body(service_id, body, window.document)
            if parsed is None:
                return original_send(xhr, body)
            doc_id, segment_id, text = parsed
            with span("intercept", kind="xhr", service=service_id):
                # The edit buffer's fingerprint serves the check and, when
                # the sync goes through, the commit: one fingerprint.
                fingerprints = [self._delta_fingerprint(segment_id, text)]
                action, _elapsed = self._decide(
                    service_id,
                    doc_id,
                    [(segment_id, text)],
                    fingerprints=fingerprints,
                )
            self._mark_editor_paragraph(window.document, segment_id, action)
            if not action.proceed:
                self._record_warnings(service_id, doc_id, action.decision, False)
                raise RequestBlocked(xhr.url, "disclosure policy violation")
            out_body = body
            if segment_id in action.rewrites:
                out_body = self._rewrite_sync_body(body, action.rewrites[segment_id])
            if action.violated:
                self._record_warnings(
                    service_id, doc_id, action.decision, proceeded=True
                )
            response = original_send(xhr, out_body)
            if response.ok and not action.rewrites:
                self.model.commit_upload(
                    service_id,
                    doc_id,
                    [(segment_id, text)],
                    action.decision,
                    fingerprints=fingerprints,
                )
            return response

        prototype.send = intercepted_send

    def _parse_sync_body(
        self, service_id: str, body: Optional[str], document: Document
    ) -> Optional[Tuple[str, str, str]]:
        """Extract (doc_id, segment_id, text) from a Docs sync request.

        ``set_paragraph`` mutations carry the full text on the wire.
        ``insert``/``delete`` deltas carry only the changed characters —
        the obfuscated AJAX case of §5.2 — so the paragraph's *current*
        text is read back from the DOM (the mutation has already been
        applied client-side when the sync fires). This is precisely why
        the plug-in can check what a network-level observer cannot.

        Returns None for anything that is not a paragraph-text mutation;
        such requests pass through unchecked (they carry no user text).
        """
        if not body:
            return None
        try:
            mutation = json.loads(body)
        except (json.JSONDecodeError, TypeError):
            return None
        if not isinstance(mutation, dict):
            return None
        for parser in self._sync_parsers:
            parsed = parser(service_id, mutation)
            if parsed is not None:
                raw_doc, raw_par, text = parsed
                return (
                    self.qualify(service_id, raw_doc),
                    self.qualify(service_id, raw_par),
                    text,
                )
        if "op" not in mutation:
            return self._parse_notes_body(service_id, mutation)
        op = mutation.get("op")
        raw_doc = mutation.get("doc_id")
        raw_par = mutation.get("par_id")
        if not raw_doc or not raw_par:
            return None
        if op == "set_paragraph":
            text = mutation.get("text")
            if not isinstance(text, str):
                return None
        elif op in ("insert", "delete"):
            element = document.first_element_with("data-par-id", raw_par)
            if element is not None:
                text = element.text_content()
            elif op == "insert":
                # No DOM state to consult: check the inserted characters.
                text = str(mutation.get("chars", ""))
            else:
                return None
        else:
            return None
        return (
            self.qualify(service_id, raw_doc),
            self.qualify(service_id, raw_par),
            text,
        )

    def _parse_notes_body(
        self, service_id: str, mutation: dict
    ) -> Optional[Tuple[str, str, str]]:
        """Notes-service save: whole-note text keyed by notebook/note."""
        notebook = mutation.get("notebook")
        note_id = mutation.get("note_id")
        text = mutation.get("text")
        if not notebook or not note_id or not isinstance(text, str):
            return None
        return (
            self.qualify(service_id, f"nb:{notebook}"),
            self.qualify(service_id, note_id),
            text,
        )

    @staticmethod
    def _rewrite_sync_body(body: Optional[str], ciphertext: str) -> str:
        """Replace the outgoing mutation with an encrypted full write.

        Delta mutations cannot be encrypted piecemeal without leaking
        structure, so any violating mutation becomes a ``set_paragraph``
        carrying ciphertext for the whole paragraph.
        """
        mutation = json.loads(body or "{}")
        mutation["op"] = "set_paragraph"
        mutation.pop("chars", None)
        mutation.pop("index", None)
        mutation.pop("count", None)
        mutation["text"] = ciphertext
        return json.dumps(mutation)

    def _mark_editor_paragraph(
        self, document: Document, segment_id: str, action: EnforcementAction
    ) -> None:
        raw_par = segment_id.rsplit("|", 1)[-1]
        element = document.first_element_with("data-par-id", raw_par)
        if element is None:
            return
        if action.violated:
            reasons = "; ".join(v.describe() for v in action.decision.violations)
            self.ui.mark_violation(element, reasons)
        else:
            self.ui.mark_clear(element)

    # ------------------------------------------------------------------
    # Form interception (paper §5.1)
    # ------------------------------------------------------------------

    def _hook_forms(self, tab, service_id: str) -> None:
        for form in tab.document.get_elements_by_tag("form"):
            self._hook_form(form, service_id)

    def _hook_form(self, form: Element, service_id: str) -> None:
        def on_submit(event: Event) -> None:
            doc_id, segments = self._segments_from_form(service_id, form)
            if not segments:
                return
            with span("intercept", kind="form", service=service_id):
                # Fingerprinted once here, in one pass; the check and the
                # commit share them.
                fingerprinter = self.model.tracker.paragraphs.fingerprinter
                fingerprints = fingerprinter.fingerprint_many(
                    [text for _seg_id, text in segments]
                )
                action, _elapsed = self._decide(
                    service_id, doc_id, segments, fingerprints=fingerprints
                )
            if not action.proceed:
                event.prevent_default()
                self.ui.mark_violation(form)
                self._record_warnings(service_id, doc_id, action.decision, False)
                return
            if action.rewrites:
                self._rewrite_form_inputs(form, service_id, action.rewrites)
            if action.violated:
                self._record_warnings(
                    service_id, doc_id, action.decision, proceeded=True
                )
            else:
                self.ui.mark_clear(form)
            if not action.rewrites:
                self.model.commit_upload(
                    service_id,
                    doc_id,
                    segments,
                    action.decision,
                    fingerprints=fingerprints,
                )

        form.add_event_listener("submit", on_submit)

    def _segments_from_form(
        self, service_id: str, form: Element
    ) -> Tuple[str, List[Tuple[str, str]]]:
        """Turn a form's visible inputs into checkable text segments.

        The document identity combines the action path with the hidden
        fields (page name, candidate, topic ...), which is how the same
        logical document keeps the same id across submissions. Visible
        field values are split into paragraphs, each its own segment.
        """
        action_path = form.get_attribute("action") or "/"
        hidden = sorted(
            (el.get_attribute("name"), el.get_attribute("value") or "")
            for el in form.iter_elements()
            if is_hidden_input(el) and el.get_attribute("name")
        )
        hidden_key = ",".join(f"{name}={value}" for name, value in hidden)
        doc_id = self.qualify(service_id, f"form:{action_path}?{hidden_key}")

        segments: List[Tuple[str, str]] = []
        for name, value in collect_form_data(form, include_hidden=False).items():
            for i, paragraph in enumerate(split_paragraphs(value)):
                segments.append((f"{doc_id}#{name}:p{i}", paragraph))
        return doc_id, segments

    def _rewrite_form_inputs(
        self, form: Element, service_id: str, rewrites: Dict[str, str]
    ) -> None:
        """Replace violating field content with ciphertext before send.

        A field is rewritten wholesale when any of its paragraphs
        violates — partial paragraph encryption inside one field would
        leak structure for no benefit.
        """
        violating_fields = {
            seg_id.split("#", 1)[1].split(":", 1)[0] for seg_id in rewrites
        }
        cipher = self.enforcement.cipher
        assert cipher is not None
        for element in form.iter_elements():
            if not is_form_input(element) or is_hidden_input(element):
                continue
            name = element.get_attribute("name")
            if name in violating_fields:
                current = element.get_attribute("value") or element.text_content()
                element.set_attribute("value", cipher.encrypt(current))

    # ------------------------------------------------------------------
    # Page ingestion: label text observed in a service (paper §3.1)
    # ------------------------------------------------------------------

    def _find_editor(self, tab) -> Optional[Tuple[EditorAdapter, Element]]:
        for adapter in self.adapters:
            container = adapter.find_container(tab.document)
            if container is not None:
                return adapter, container
        return None

    def _ingest_page(self, tab, service_id: str) -> None:
        found = self._find_editor(tab)
        if found is not None:
            adapter, container = found
            doc_id, segments = self._editor_segments(
                tab, service_id, container, adapter
            )
            if segments:
                self.model.observe(service_id, doc_id, segments)
            return
        text = extract_main_text(tab.document)
        if not text.strip():
            return
        doc_id = self.qualify(service_id, f"page:{self._path_of(tab)}")
        segments = [
            (f"{doc_id}#p{i}", paragraph)
            for i, paragraph in enumerate(split_paragraphs(text))
        ]
        self.model.observe(service_id, doc_id, segments)

    def _editor_segments(
        self, tab, service_id: str, container: Element, adapter: EditorAdapter
    ) -> Tuple[str, List[Tuple[str, str]]]:
        raw_doc = adapter.doc_id_for_path(self._path_of(tab))
        doc_id = self.qualify(service_id, raw_doc)
        segments = []
        for element in adapter.paragraphs(container):
            par_id = adapter.paragraph_id(element)
            text = element.text_content()
            if par_id and text.strip():
                segments.append((self.qualify(service_id, par_id), text))
        return doc_id, segments

    @staticmethod
    def _path_of(tab) -> str:
        url = tab.page.url
        origin = tab.window.origin
        return url[len(origin):] if url.startswith(origin) else url

    # ------------------------------------------------------------------
    # Mutation-observer checks while editing (paper §5.2, §6.2)
    # ------------------------------------------------------------------

    def _observe_editor(self, tab, service_id: str) -> None:
        found = self._find_editor(tab)
        if found is None:
            return
        adapter, editor = found
        doc_id, _segments = self._editor_segments(tab, service_id, editor, adapter)

        def on_mutations(records: List[MutationRecord], _observer) -> None:
            for element in self._paragraphs_affected(editor, records, adapter):
                par_id = adapter.paragraph_id(element)
                text = element.text_content()
                if not par_id or not text.strip():
                    continue
                segment_id = self.qualify(service_id, par_id)
                action, _elapsed = self._decide(
                    service_id,
                    doc_id,
                    [(segment_id, text)],
                    consume_suppressions=False,
                    fingerprints=[self._delta_fingerprint(segment_id, text)],
                )
                if action.violated:
                    reasons = "; ".join(
                        v.describe() for v in action.decision.violations
                    )
                    self.ui.mark_violation(element, reasons)
                else:
                    self.ui.mark_clear(element)

        observer = MutationObserver(on_mutations)
        observer.observe(editor, subtree=True, child_list=True, character_data=True)
        self._observers.append(observer)

    @staticmethod
    def _paragraphs_affected(
        editor: Element, records: List[MutationRecord], adapter: EditorAdapter
    ) -> List[Element]:
        """Paragraph elements whose content the records touched.

        Covers both shapes of editor mutations: character-data changes
        inside an existing paragraph (walk up to the paragraph) and
        whole paragraphs inserted in one childList mutation (inspect
        the added subtree).
        """
        affected: List[Element] = []
        seen = set()

        def add(element: Element) -> None:
            if id(element) not in seen:
                seen.add(id(element))
                affected.append(element)

        for record in records:
            node = record.target
            while node is not None and node is not editor:
                if isinstance(node, Element) and adapter.paragraph_class in node.class_list():
                    add(node)
                    break
                node = node.parent
            for added in record.added_nodes:
                if not isinstance(added, Element):
                    continue
                for element in added.iter_elements():
                    if adapter.paragraph_class in element.class_list():
                        add(element)
        return affected

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def qualify(service_id: str, raw_id: str) -> str:
        """Namespace a service-local id so ids never collide globally."""
        return f"{service_id}|{raw_id}"

    def stats(self) -> Dict[str, float]:
        return {
            "decisions": float(len(self.response_times)),
            "warnings": float(len(self.warnings)),
            "cache_hits": float(self.cache.hits),
            "cache_misses": float(self.cache.misses),
            "cache_hit_rate": self.cache.hit_rate,
            "delta_checks": float(self._c_delta_checks.value),
            "delta_builds": float(self._c_delta_builds.value),
            "delta_edits": float(self._c_delta_edits.value),
        }
