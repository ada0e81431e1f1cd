"""Tests for the Docs-like AJAX service."""

import pytest

from repro.browser import Browser
from repro.browser.http import HttpRequest
from repro.errors import ServiceError
from repro.services import DocsService, Network


@pytest.fixture
def setup():
    network = Network()
    docs = DocsService()
    network.register(docs)
    browser = Browser(network)
    return browser, docs


class TestEditor:
    def test_open_editor_creates_document(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        assert editor.doc_id in docs.backend

    def test_open_unknown_doc_rejected(self, setup):
        browser, docs = setup
        with pytest.raises(ServiceError):
            docs.open_editor(browser.new_tab(), "ghost")

    def test_paste_syncs_to_backend(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph()
        assert editor.paste(par, "Some pasted content for the document.")
        stored = docs.backend.get(editor.doc_id)
        assert stored.paragraphs[0][1] == "Some pasted content for the document."

    def test_typing_syncs_every_keystroke(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph()
        delivered = editor.type_text(par, "abc")
        assert delivered == 3
        # Backend saw the final state.
        assert docs.backend.get(editor.doc_id).paragraphs[0][1] == "abc"
        # One sync request per keystroke reached the network.
        sync_requests = [
            r for r in browser.network.requests_to(docs.origin)
            if r.path == "/sync"
        ]
        assert len(sync_requests) == 3

    def test_text_lives_in_dom_not_inputs(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph("DOM text")
        assert par.tag == "div"  # not <input>/<textarea>
        assert par.text_content() == "DOM text"

    def test_delete_paragraph(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph("to be deleted")
        assert editor.delete_paragraph(par)
        assert docs.backend.get(editor.doc_id).paragraphs == []

    def test_reopen_renders_existing_content(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        editor.new_paragraph("persisted content in paragraph one")
        doc_id = editor.doc_id
        editor2 = docs.open_editor(browser.new_tab(), doc_id)
        assert editor2.paragraph_texts() == ["persisted content in paragraph one"]

    def test_paragraph_ids_stable(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph("first")
        par_id = editor.paragraph_id(par)
        editor.set_paragraph_text(par, "edited")
        assert editor.paragraph_id(par) == par_id


class TestBackendProtocol:
    @pytest.mark.parametrize(
        "body",
        [
            "not json",
            pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
            '[{"doc_id": "d", "op": "set_paragraph", "par_id": "p", "text": "x"}]',
            '"set_paragraph"',
            "42",
            '{"doc_id": {"id": "d"}, "op": "set_paragraph", "par_id": "p", "text": "x"}',
            '{"doc_id": "d", "op": ["insert"], "par_id": "p"}',
            '{"doc_id": "d", "op": "set_paragraph", "text": "x"}',
            '{"doc_id": "d", "op": "set_paragraph", "par_id": "p"}',
            '{"doc_id": "d", "op": "insert", "chars": "x"}',
            '{"doc_id": "d", "op": "delete", "index": 0, "count": 1}',
            '{"doc_id": "d", "op": "delete_paragraph"}',
            '{"doc_id": "d", "op": "set_paragraph", "par_id": ["p"], "text": "x"}',
            '{"doc_id": "d", "op": "set_paragraph", "par_id": "p", "text": ["x"]}',
            '{"doc_id": "d", "op": "insert", "par_id": "p", "chars": 7}',
            '{"doc_id": "d", "op": "insert", "par_id": "p", "index": "two", "chars": "x"}',
            '{"doc_id": "d", "op": "delete", "par_id": "p", "index": 0, "count": 1.5}',
            '{"doc_id": "d", "op": "delete", "par_id": "p", "index": 5, "count": -3}',
        ],
    )
    def test_malformed_sync_rejected(self, setup, body):
        _browser, docs = setup
        doc = docs.backend.create(doc_id="d")
        response = docs.handle_request(
            HttpRequest("POST", docs.url("/sync"), body=body)
        )
        assert response.status == 400
        assert doc.paragraphs == []

    def test_unknown_doc_sync_404(self, setup):
        _browser, docs = setup
        response = docs.handle_request(
            HttpRequest(
                "POST",
                docs.url("/sync"),
                body='{"doc_id": "ghost", "op": "set_paragraph", "par_id": "p", "text": "x"}',
            )
        )
        assert response.status == 404

    def test_unknown_op_rejected(self, setup):
        _browser, docs = setup
        doc = docs.backend.create()
        response = docs.handle_request(
            HttpRequest(
                "POST",
                docs.url("/sync"),
                body=f'{{"doc_id": "{doc.doc_id}", "op": "explode"}}',
            )
        )
        assert response.status == 400

    def test_unknown_path_404(self, setup):
        _browser, docs = setup
        response = docs.handle_request(HttpRequest("GET", docs.url("/nope")))
        assert response.status == 404


class TestDeltaProtocol:
    def test_typing_sends_single_char_deltas(self, setup):
        """The wire carries only the typed character, not the text."""
        import json

        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph()
        editor.type_text(par, "secret")
        sync_bodies = [
            json.loads(r.body)
            for r in browser.network.requests_to(docs.origin)
            if r.path == "/sync" and r.body
        ]
        inserts = [m for m in sync_bodies if m["op"] == "insert"]
        assert len(inserts) == 6
        assert all(len(m["chars"]) == 1 for m in inserts)
        # No single request contains the full word.
        assert all("secret" not in (m.get("chars") or "") for m in inserts)

    def test_deltas_reconstruct_text_on_backend(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph()
        editor.type_text(par, "hello")
        editor.paste(par, " world")
        assert docs.backend.get(editor.doc_id).paragraphs[0][1] == "hello world"

    def test_delete_text_delta(self, setup):
        browser, docs = setup
        editor = docs.open_editor(browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, "hello cruel world")
        assert editor.delete_text(par, 5, 6)
        assert par.text_content() == "hello world"
        assert docs.backend.get(editor.doc_id).paragraphs[0][1] == "hello world"

    def test_insert_index_clamped(self, setup):
        import json

        from repro.browser.http import HttpRequest

        _browser, docs = setup
        doc = docs.backend.create()
        body = json.dumps(
            {"doc_id": doc.doc_id, "op": "insert", "par_id": "p1",
             "index": 999, "chars": "abc"}
        )
        docs.handle_request(HttpRequest("POST", docs.url("/sync"), body=body))
        body = json.dumps(
            {"doc_id": doc.doc_id, "op": "insert", "par_id": "p1",
             "index": 999, "chars": "def"}
        )
        docs.handle_request(HttpRequest("POST", docs.url("/sync"), body=body))
        assert doc.find_paragraph("p1") == "abcdef"

    def test_delete_on_missing_paragraph_noop(self, setup):
        import json

        from repro.browser.http import HttpRequest

        _browser, docs = setup
        doc = docs.backend.create()
        body = json.dumps(
            {"doc_id": doc.doc_id, "op": "delete", "par_id": "ghost",
             "index": 0, "count": 5}
        )
        response = docs.handle_request(
            HttpRequest("POST", docs.url("/sync"), body=body)
        )
        assert response.ok
