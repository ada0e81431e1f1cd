"""An Evernote-style notes service — the second AJAX editor.

Structurally different from the Docs service (note cards inside a
"notes-app" container, a coarser whole-note sync protocol) but covered
by the same two browser mechanisms; supporting it took exactly one
:class:`~repro.plugin.adapters.EditorAdapter`, which is the paper's
"minimal effort" claim made concrete.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.browser.dom import Document, Element
from repro.browser.http import HttpRequest, HttpResponse
from repro.errors import RequestBlocked, ServiceError
from repro.services.base import CloudService

NOTES_CONTAINER_ID = "notes-app"
NOTE_CLASS = "note-card"


class NotesService(CloudService):
    """Notebook-of-notes service; each note syncs wholesale via XHR."""

    def __init__(
        self, origin: str = "https://notes.example.com", name: str = "Notes"
    ) -> None:
        super().__init__(origin, name)

    # -- page rendering ---------------------------------------------------

    def render(self, url: str) -> Document:
        """Render ``/nb/<notebook>``: every note as a card in the app."""
        document = Document()
        app = document.create_element(
            "div", {"id": NOTES_CONTAINER_ID, "class": "notes-shell"}
        )
        document.body.append_child(app)
        notebook = self._notebook_from_url(url)
        if notebook is not None:
            stored = self.backend.find(self._doc_id(notebook))
            if stored is not None:
                for note_id, text in stored.paragraphs:
                    app.append_child(self._note_element(document, note_id, text))
        return document

    def _note_element(self, document: Document, note_id: str, text: str) -> Element:
        card = document.create_element(
            "div", {"class": NOTE_CLASS, "data-par-id": note_id}
        )
        card.set_text(text)
        return card

    def _notebook_from_url(self, url: str) -> Optional[str]:
        path = url[len(self.origin):] if url.startswith(self.origin) else url
        prefix = "/nb/"
        if path.startswith(prefix):
            return path[len(prefix):] or None
        return None

    def _doc_id(self, notebook: str) -> str:
        return f"nb:{notebook}"

    # -- backend ----------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        if request.method == "POST" and request.path == "/note/save":
            try:
                payload = json.loads(request.body or "")
            except (ValueError, RecursionError):
                return HttpResponse(status=400, body="malformed note")
            if not isinstance(payload, dict):
                return HttpResponse(status=400, body="note is not a JSON object")
            notebook = payload.get("notebook")
            note_id = payload.get("note_id")
            text = payload.get("text")
            if not (
                notebook
                and isinstance(notebook, str)
                and note_id
                and isinstance(note_id, str)
                and isinstance(text, str)
            ):
                return HttpResponse(status=400, body="missing fields")
            doc_id = self._doc_id(notebook)
            doc = self.backend.find(doc_id)
            if doc is None:
                doc = self.backend.create(title=notebook, doc_id=doc_id)
            if doc.find_paragraph(note_id) is None:
                doc.paragraphs.append((note_id, text))
            else:
                doc.set_paragraph(note_id, text)
            return HttpResponse(body="saved")
        return HttpResponse(status=404, body="not found")

    def notes_in(self, notebook: str) -> List[str]:
        doc = self.backend.find(self._doc_id(notebook))
        return [text for _nid, text in doc.paragraphs] if doc is not None else []

    # -- client side --------------------------------------------------------

    def notebook_url(self, notebook: str) -> str:
        return self.url(f"/nb/{notebook}")

    def open_notebook(self, tab, notebook: str) -> "NotebookView":
        tab.navigate(self.notebook_url(notebook))
        return NotebookView(self, tab, notebook)


class NotebookView:
    """Client-side notebook: create and edit note cards."""

    def __init__(self, service: NotesService, tab, notebook: str) -> None:
        self._service = service
        self._tab = tab
        self.notebook = notebook

    @property
    def app_element(self) -> Element:
        element = self._tab.document.get_element_by_id(NOTES_CONTAINER_ID)
        if element is None:
            raise ServiceError("notes app element missing from page")
        return element

    def note_elements(self) -> List[Element]:
        return self.app_element.find_all(lambda el: NOTE_CLASS in el.class_list())

    def new_note(self, text: str = "") -> Element:
        note_id = self._service.backend.new_par_id()
        element = self._service._note_element(self._tab.document, note_id, "")
        self.app_element.append_child(element)
        if text:
            self.write(element, text)
        return element

    def write(self, element: Element, text: str) -> bool:
        """Set a note's text: one DOM mutation, one whole-note sync."""
        element.set_text(text)
        note_id = element.get_attribute("data-par-id")
        xhr = self._tab.window.new_xhr()
        xhr.open("POST", self._service.url("/note/save"))
        body = json.dumps(
            {"notebook": self.notebook, "note_id": note_id, "text": text}
        )
        try:
            response = xhr.send(body)
        except RequestBlocked:
            return False
        return response.ok
