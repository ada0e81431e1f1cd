"""Failure injection and edge cases across the stack."""

import json

import pytest

from repro.browser.http import HttpRequest
from repro.errors import RequestBlocked
from repro.fingerprint.config import PAPER_CONFIG
from repro.plugin import BrowserFlowPlugin
from repro.tdm import PolicyStore, TextDisclosureModel

from conftest import SECRET_TEXT, EnterpriseFixture


@pytest.fixture
def e():
    return EnterpriseFixture()


class TestShortText:
    def test_short_paragraph_false_negative(self, e):
        """Paragraphs too short to fingerprint are the paper's known
        systematic false-negative class (§6.1): they pass unchecked."""
        e.wiki.save_page("Pin", "x9!")
        e.browser.open(e.wiki.page_url("Pin"))
        editor = e.docs.open_editor(e.browser.new_tab())
        assert editor.paste(editor.new_paragraph(), "x9!")

    def test_empty_paragraph_ignored(self, e):
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert editor.set_paragraph_text(par, "")

    def test_whitespace_only_document(self, e):
        assert e.wiki.edit(e.browser.new_tab(), "Blank", "   \n\n   ")


class TestMalformedTraffic:
    def test_non_json_xhr_passes_through(self, e):
        """Requests that carry no user text are not policy-checked."""
        tab = e.browser.new_tab()
        e.docs.open_editor(tab)
        xhr = tab.window.new_xhr()
        xhr.open("POST", e.docs.url("/create"))
        response = xhr.send("A Title")
        assert response.ok

    def test_json_without_text_passes_through(self, e):
        tab = e.browser.new_tab()
        editor = e.docs.open_editor(tab)
        xhr = tab.window.new_xhr()
        xhr.open("POST", e.docs.url("/sync"))
        body = json.dumps({"doc_id": editor.doc_id, "op": "delete_paragraph",
                           "par_id": "ghost"})
        assert xhr.send(body).ok

    def test_sync_with_non_string_text_passes_to_backend_validation(self, e):
        tab = e.browser.new_tab()
        editor = e.docs.open_editor(tab)
        xhr = tab.window.new_xhr()
        xhr.open("POST", e.docs.url("/sync"))
        body = json.dumps(
            {"doc_id": editor.doc_id, "op": "set_paragraph",
             "par_id": "p", "text": 42}
        )
        # The plug-in ignores it (no string text); the backend rejects it.
        assert xhr.send(body).status == 400


class TestServiceEvasion:
    def test_direct_backend_write_bypasses_plugin(self, e):
        """A service that takes data outside the browser evades the
        middleware — the paper's acknowledged limitation (§4.4). The
        test documents the boundary rather than pretending otherwise."""
        e.wiki.save_page("Direct", SECRET_TEXT)  # server-side write
        assert e.wiki.page_text("Direct") == SECRET_TEXT
        assert not e.plugin.warnings

    def test_unknown_service_defaults_untrusted(self, e):
        """A never-registered origin gets Lp = {}: tagged data is
        blocked rather than leaked."""
        from repro.services import ForumService

        rogue = ForumService(origin="https://rogue.example.com", name="Rogue")
        e.network.register(rogue)
        e.itool.add_note("jane", SECRET_TEXT)
        e.browser.open(e.itool.candidate_url("jane"))
        assert not rogue.post(e.browser.new_tab(), "t", SECRET_TEXT)


class TestPluginRobustness:
    def test_page_without_service_ignored(self):
        """A tab whose page has no bound service must not crash hooks."""
        model = TextDisclosureModel(PolicyStore(), PAPER_CONFIG)
        plugin = BrowserFlowPlugin(model)

        class FakePage:
            service = None
            url = "about:blank"

        class FakeTab:
            page = FakePage()

        plugin._on_page(FakeTab())  # no exception
        assert plugin.warnings == []

    def test_blocked_xhr_leaves_editor_usable(self, e):
        e.wiki.save_page("G", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("G"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert not editor.paste(par, SECRET_TEXT)
        # The user keeps editing; clean text goes through afterwards.
        assert editor.set_paragraph_text(
            par, "A fresh rewrite that no longer borrows original phrasing at all."
        )

    def test_repeated_blocking_stable(self, e):
        e.wiki.save_page("G", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("G"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        for _ in range(3):
            assert not editor.set_paragraph_text(par, SECRET_TEXT)
        assert e.docs.backend.get(editor.doc_id).paragraphs == []

    def test_observer_detach_on_unload(self, e):
        """Navigating a tab away must not keep stale observers failing."""
        tab = e.browser.new_tab()
        editor = e.docs.open_editor(tab)
        editor.new_paragraph("hello world paragraph for observer test")
        # Navigate the same tab elsewhere; old document is dropped.
        e.browser.open(e.wiki.page_url("Elsewhere"))
        # Editing the orphaned document's DOM still works.
        par = editor.paragraph_elements()[0]
        par.set_text("still editable without exceptions")


class TestNetworkFailures:
    def test_backend_error_surfaces(self, e):
        tab = e.browser.new_tab()
        e.docs.open_editor(tab)
        xhr = tab.window.new_xhr()
        xhr.open("POST", e.docs.url("/sync"))
        response = xhr.send(json.dumps({"doc_id": "ghost", "op": "set_paragraph",
                                        "par_id": "p", "text": "hello there friend"}))
        assert response.status == 404

    def test_unknown_origin_502(self, e):
        response = e.network.deliver(HttpRequest("POST", "https://void.example/x"))
        assert response.status == 502
