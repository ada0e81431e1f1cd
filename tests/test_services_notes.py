"""Tests for the Notes service and adapter-based plug-in coverage."""

import pytest

from repro.browser import Browser
from repro.browser.http import HttpRequest
from repro.services import Network
from repro.services.notes import NotesService

from conftest import SECRET_TEXT, THIRD_TEXT, EnterpriseFixture


@pytest.fixture
def setup():
    network = Network()
    notes = NotesService()
    network.register(notes)
    return Browser(network), notes


class TestNotesService:
    def test_write_note(self, setup):
        browser, notes = setup
        view = notes.open_notebook(browser.new_tab(), "work")
        note = view.new_note("remember to review the design document")
        assert notes.notes_in("work") == ["remember to review the design document"]
        assert note.text_content() == "remember to review the design document"

    def test_note_update_replaces(self, setup):
        browser, notes = setup
        view = notes.open_notebook(browser.new_tab(), "work")
        note = view.new_note("first")
        view.write(note, "second")
        assert notes.notes_in("work") == ["second"]

    def test_notebooks_independent(self, setup):
        browser, notes = setup
        tab = browser.new_tab()
        notes.open_notebook(tab, "a").new_note("in a")
        notes.open_notebook(tab, "b").new_note("in b")
        assert notes.notes_in("a") == ["in a"]
        assert notes.notes_in("b") == ["in b"]

    def test_reopen_renders_notes(self, setup):
        browser, notes = setup
        notes.open_notebook(browser.new_tab(), "work").new_note("persisted")
        view = notes.open_notebook(browser.new_tab(), "work")
        assert [el.text_content() for el in view.note_elements()] == ["persisted"]

    @pytest.mark.parametrize(
        "body",
        [
            "oops",
            pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
            '[{"notebook": "n", "note_id": "a", "text": "x"}]',
            '"a note"',
            "null",
            '{"notebook": ["n"], "note_id": "a", "text": "x"}',
            '{"notebook": "n", "note_id": {"id": "a"}, "text": "x"}',
            '{"notebook": "n", "note_id": "a", "text": ["x"]}',
        ],
    )
    def test_malformed_save_rejected(self, setup, body):
        _browser, notes = setup
        response = notes.handle_request(
            HttpRequest("POST", notes.url("/note/save"), body=body)
        )
        assert response.status == 400
        assert notes.backend.all_documents() == []

    def test_missing_fields_rejected(self, setup):
        _browser, notes = setup
        response = notes.handle_request(
            HttpRequest("POST", notes.url("/note/save"), body='{"notebook": "x"}')
        )
        assert response.status == 400


class TestPluginCoversNotes:
    """The second AJAX service is protected via its adapter alone."""

    @pytest.fixture
    def env(self):
        e = EnterpriseFixture()
        notes = NotesService()
        e.network.register(notes)
        e.policies.register_service(notes.origin)  # untrusted external
        return e, notes

    def test_sensitive_note_blocked(self, env):
        e, notes = env
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        view = notes.open_notebook(e.browser.new_tab(), "personal")
        note = view.new_note()
        assert not view.write(note, SECRET_TEXT)
        assert notes.notes_in("personal") == []
        assert e.plugin.warnings

    def test_clean_note_allowed(self, env):
        e, notes = env
        view = notes.open_notebook(e.browser.new_tab(), "personal")
        view.new_note(THIRD_TEXT)
        assert notes.notes_in("personal") == [THIRD_TEXT]

    def test_note_content_ingested_and_labelled(self, env):
        """Notes rendered on page load get the service's Lc — here
        empty, so copying notes elsewhere stays unrestricted."""
        e, notes = env
        notes.open_notebook(e.browser.new_tab(), "shared").new_note(THIRD_TEXT)
        e.browser.open(notes.notebook_url("shared"))
        qualified = e.plugin.qualify(notes.origin, "nb:shared")
        assert e.model.tracker.documents.segment_db.find(qualified) is not None

    def test_note_to_note_copy_allowed(self, env):
        e, notes = env
        view1 = notes.open_notebook(e.browser.new_tab(), "one")
        view1.new_note(THIRD_TEXT)
        view2 = notes.open_notebook(e.browser.new_tab(), "two")
        note = view2.new_note()
        assert view2.write(note, THIRD_TEXT)
