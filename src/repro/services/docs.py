"""An AJAX document editor in the style of Google Docs (paper §5.2).

The service has the three properties that make generic interception
hard: user text is embedded directly in the DOM tree outside of input
elements, formatting is div/CSS-based rather than ``<p>``-based, and
document mutations travel to the backend via XHR on every character
change. The BrowserFlow plug-in handles it with mutation observers (to
see the text) and prototype patching (to gate the sync requests).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.browser.dom import Document, Element
from repro.browser.http import HttpRequest, HttpResponse
from repro.errors import RequestBlocked, ServiceError
from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.incremental import EditBuffer
from repro.services.base import CloudService

#: Class name used for editor paragraphs, mirroring Docs' "kix" classes.
PARAGRAPH_CLASS = "kix-paragraph"
EDITOR_ID = "editor"

#: The sync ops, each with the fields it requires besides ``doc_id``.
_SYNC_OPS = {
    "set_paragraph": ("par_id", "text"),
    "insert": ("par_id",),
    "delete": ("par_id",),
    "delete_paragraph": ("par_id",),
}
#: The type of each sync field a mutation may carry.
_SYNC_FIELD_TYPES = {
    "doc_id": str,
    "par_id": str,
    "text": str,
    "chars": str,
    "index": int,
    "count": int,
}


def _malformed_mutation(mutation: object) -> Optional[str]:
    """Why *mutation* (a decoded sync body) cannot be applied, or None.

    A mutation is a JSON object naming a known op, carrying the fields
    that op requires, and every field it carries has its type; a
    negative delete count would splice text back in.
    """
    if not isinstance(mutation, dict):
        return "mutation is not a JSON object"
    op = mutation.get("op")
    if not isinstance(op, str) or op not in _SYNC_OPS:
        return f"unknown op {op!r}"
    for field in _SYNC_OPS[op]:
        if field not in mutation:
            return f"missing {field}"
    for field, kind in _SYNC_FIELD_TYPES.items():
        if field in mutation and not isinstance(mutation[field], kind):
            return f"{field} is not a {kind.__name__}"
    if mutation.get("count", 0) < 0:
        return "count is negative"
    return None


class DocsService(CloudService):
    """Document-centric cloud service with per-keystroke AJAX sync."""

    def __init__(self, origin: str = "https://docs.example.com", name: str = "Docs") -> None:
        super().__init__(origin, name)

    # -- page rendering ---------------------------------------------------

    def render(self, url: str) -> Document:
        """Render the editor page for ``/d/<doc_id>`` (or a new doc)."""
        document = Document()
        editor = document.create_element("div", {"id": EDITOR_ID, "class": "kix-app"})
        document.body.append_child(editor)
        doc_id = self._doc_id_from_url(url)
        if doc_id is not None:
            stored = self.backend.get(doc_id)
            for par_id, text in stored.paragraphs:
                editor.append_child(self._paragraph_element(document, par_id, text))
        return document

    def _doc_id_from_url(self, url: str) -> Optional[str]:
        path = url[len(self.origin):] if url.startswith(self.origin) else url
        if path.startswith("/d/"):
            return path[len("/d/"):] or None
        return None

    def _paragraph_element(self, document: Document, par_id: str, text: str) -> Element:
        par = document.create_element(
            "div", {"class": PARAGRAPH_CLASS, "data-par-id": par_id}
        )
        par.set_text(text)
        return par

    # -- backend ----------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        if request.method == "POST" and request.path == "/sync":
            return self._handle_sync(request)
        if request.method == "POST" and request.path == "/create":
            doc = self.backend.create(title=(request.body or "Untitled"))
            return HttpResponse(body=json.dumps({"doc_id": doc.doc_id}))
        return HttpResponse(status=404, body="not found")

    def _handle_sync(self, request: HttpRequest) -> HttpResponse:
        """Apply one document mutation.

        The wire protocol mirrors real AJAX editors (paper §5.2):
        per-keystroke ``insert``/``delete`` deltas carrying only the
        changed characters, plus ``set_paragraph`` (full replace, used
        for paste-style rewrites) and ``delete_paragraph``. A network
        observer outside the browser sees only character fragments —
        which is exactly why wire-level DLP cannot fingerprint this
        service while the in-browser plug-in can.
        """
        try:
            mutation = json.loads(request.body or "")
        except (ValueError, RecursionError):
            return HttpResponse(status=400, body="malformed mutation")
        problem = _malformed_mutation(mutation)
        if problem is not None:
            return HttpResponse(status=400, body=problem)
        doc = self.backend.find(mutation.get("doc_id", ""))
        if doc is None:
            return HttpResponse(status=404, body="unknown document")
        op = mutation["op"]
        par_id = mutation["par_id"]
        if op == "set_paragraph":
            text = mutation["text"]
            if doc.find_paragraph(par_id) is None:
                doc.paragraphs.append((par_id, text))
            else:
                doc.set_paragraph(par_id, text)
        elif op == "insert":
            chars = mutation.get("chars", "")
            index = mutation.get("index", 0)
            current = doc.find_paragraph(par_id)
            if current is None:
                doc.paragraphs.append((par_id, chars))
            else:
                index = max(0, min(index, len(current)))
                doc.set_paragraph(par_id, current[:index] + chars + current[index:])
        elif op == "delete":
            index = mutation.get("index", 0)
            count = mutation.get("count", 0)
            current = doc.find_paragraph(par_id)
            if current is not None:
                index = max(0, min(index, len(current)))
                doc.set_paragraph(par_id, current[:index] + current[index + count:])
        else:  # delete_paragraph
            doc.paragraphs = [(pid, t) for pid, t in doc.paragraphs if pid != par_id]
        return HttpResponse(body="ok")

    # -- client-side editor -------------------------------------------------

    def open_editor(
        self,
        tab,
        doc_id: Optional[str] = None,
        *,
        fingerprint_config: Optional[FingerprintConfig] = None,
    ) -> "DocsEditor":
        """Create (or open) a document and return an editor bound to *tab*.

        Creation goes through the backend directly (it carries no user
        text); all subsequent text edits sync via interceptable XHRs.
        *fingerprint_config* enables client-side per-paragraph
        incremental fingerprint state on the returned editor (§13).
        """
        if doc_id is None:
            doc_id = self.backend.create().doc_id
        elif self.backend.find(doc_id) is None:
            raise ServiceError(f"unknown document {doc_id!r}")
        tab.navigate(self.url(f"/d/{doc_id}"))
        return DocsEditor(self, tab, doc_id, fingerprint_config=fingerprint_config)


class DocsEditor:
    """Client-side editing surface: DOM mutations + XHR sync.

    Mirrors how a user interacts with the editor. ``type_text`` applies
    one DOM mutation and one sync request per keystroke — the workload
    of the paper's response-time experiment (§6.2); ``paste`` applies
    the whole clipboard at once.

    When built with a *fingerprint_config* the editor also carries
    per-paragraph incremental fingerprint state (DESIGN.md §13): every
    edit is mirrored into an
    :class:`~repro.fingerprint.incremental.EditBuffer`, so
    :meth:`fingerprint_of` answers from an edit-local splice instead of
    re-running the full pipeline — the client-side half of the
    delta-aware check pipeline. Without a config (the default) the
    editor keeps no fingerprint state and edits cost exactly what they
    did before.
    """

    def __init__(
        self,
        service: DocsService,
        tab,
        doc_id: str,
        *,
        fingerprint_config: Optional[FingerprintConfig] = None,
    ) -> None:
        self._service = service
        self._tab = tab
        self.doc_id = doc_id
        self._fingerprint_config = fingerprint_config
        self._buffers: Dict[str, EditBuffer] = {}

    @property
    def window(self):
        return self._tab.window

    @property
    def editor_element(self) -> Element:
        element = self._tab.document.get_element_by_id(EDITOR_ID)
        if element is None:
            raise ServiceError("editor element missing from page")
        return element

    def paragraph_elements(self) -> List[Element]:
        return self.editor_element.find_all(
            lambda el: PARAGRAPH_CLASS in el.class_list()
        )

    def paragraph_texts(self) -> List[str]:
        return [p.text_content() for p in self.paragraph_elements()]

    def paragraph_id(self, element: Element) -> str:
        par_id = element.get_attribute("data-par-id")
        if par_id is None:
            raise ServiceError("paragraph element missing data-par-id")
        return par_id

    # -- client-side fingerprint state (§13) ---------------------------------

    def _track(self, par_id: str, text: str) -> None:
        """Mirror one edit into the paragraph's delta fingerprint state."""
        if self._fingerprint_config is None:
            return
        buffer = self._buffers.get(par_id)
        if buffer is None:
            self._buffers[par_id] = EditBuffer(self._fingerprint_config, text)
        else:
            buffer.update(text)

    def fingerprint_of(self, element: Element):
        """The paragraph's fingerprint from its incremental state.

        Requires the editor to have been opened with a
        ``fingerprint_config``; paragraphs not yet tracked (e.g. loaded
        from the rendered page) pay one full build here, every edit
        since tracking began has already been applied as a splice.
        """
        if self._fingerprint_config is None:
            raise ServiceError("editor opened without fingerprint_config")
        par_id = self.paragraph_id(element)
        buffer = self._buffers.get(par_id)
        text = element.text_content()
        if buffer is None:
            buffer = EditBuffer(self._fingerprint_config, text)
            self._buffers[par_id] = buffer
            return buffer.current()
        return buffer.update(text)

    def delta_stats(self) -> Dict[str, int]:
        """Aggregate splice/build counts across tracked paragraphs."""
        return {
            "tracked_paragraphs": len(self._buffers),
            "delta_edits": sum(b.delta_edits for b in self._buffers.values()),
            "full_builds": sum(b.full_builds for b in self._buffers.values()),
        }

    # -- editing operations -------------------------------------------------

    def new_paragraph(
        self, text: str = "", *, par_id: Optional[str] = None
    ) -> Element:
        """Append an empty paragraph, then (if text) sync its content.

        ``par_id`` lets a caller assign the paragraph id itself (the
        fleet simulator pre-assigns ids in the schedule so concurrent
        sessions produce identical segment ids run to run); by default
        the backend allocates one.
        """
        document = self._tab.document
        if par_id is None:
            par_id = self._service.backend.new_par_id()
        element = self._service._paragraph_element(document, par_id, "")
        self.editor_element.append_child(element)
        if text:
            self.set_paragraph_text(element, text)
        return element

    def set_paragraph_text(self, element: Element, text: str) -> bool:
        """Replace a paragraph's text: one mutation, one sync request.

        Returns True when the sync reached the backend, False when an
        interceptor blocked it (the DOM keeps the text either way, just
        as the real plug-in lets the user keep typing locally).
        """
        element.set_text(text)
        self._track(self.paragraph_id(element), text)
        return self._sync(element, text)

    def type_text(self, element: Element, text: str) -> int:
        """Append *text* one character at a time, syncing per keystroke.

        Each keystroke ships as an ``insert`` delta carrying only the
        typed character, like a real AJAX editor. Returns the number of
        keystrokes whose sync was delivered.
        """
        delivered = 0
        par_id = self.paragraph_id(element)
        current = element.text_content()
        for ch in text:
            index = len(current)
            current += ch
            element.set_text(current)
            self._track(par_id, current)
            if self._sync_delta(element, "insert", index=index, chars=ch):
                delivered += 1
        return delivered

    def paste(self, element: Element, text: str) -> bool:
        """Paste *text* at the end of a paragraph (one insert delta)."""
        current = element.text_content()
        element.set_text(current + text)
        self._track(self.paragraph_id(element), current + text)
        return self._sync_delta(element, "insert", index=len(current), chars=text)

    def delete_text(self, element: Element, index: int, count: int) -> bool:
        """Delete *count* characters at *index* (one delete delta)."""
        current = element.text_content()
        element.set_text(current[:index] + current[index + count:])
        self._track(
            self.paragraph_id(element), current[:index] + current[index + count:]
        )
        return self._sync_delta(element, "delete", index=index, count=count)

    def delete_paragraph(self, element: Element) -> bool:
        par_id = self.paragraph_id(element)
        self._buffers.pop(par_id, None)
        self.editor_element.remove_child(element)
        body = json.dumps(
            {"doc_id": self.doc_id, "op": "delete_paragraph", "par_id": par_id}
        )
        return self._post_sync(body)

    # -- sync plumbing --------------------------------------------------------

    def _sync(self, element: Element, text: str) -> bool:
        body = json.dumps(
            {
                "doc_id": self.doc_id,
                "op": "set_paragraph",
                "par_id": self.paragraph_id(element),
                "text": text,
            }
        )
        return self._post_sync(body)

    def _sync_delta(self, element: Element, op: str, **fields) -> bool:
        body = json.dumps(
            {
                "doc_id": self.doc_id,
                "op": op,
                "par_id": self.paragraph_id(element),
                **fields,
            }
        )
        return self._post_sync(body)

    def _post_sync(self, body: str) -> bool:
        xhr = self.window.new_xhr()
        xhr.open("POST", self._service.url("/sync"))
        xhr.set_request_header("Content-Type", "application/json")
        try:
            response = xhr.send(body)
        except RequestBlocked:
            return False
        return response.ok
