"""End-to-end tests for the BrowserFlow plug-in."""

import pytest

from repro import Browser, BrowserFlowPlugin
from repro.plugin import PluginMode, UploadCipher
from repro.plugin.ui import STATUS_ATTR, STATUS_VIOLATION

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT, EnterpriseFixture


class TestDocsInterception:
    def test_wiki_text_blocked_from_docs(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))  # plugin ingests + labels

        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        delivered = editor.paste(par, SECRET_TEXT)
        assert not delivered
        assert e.docs.backend.get(editor.doc_id).paragraphs == []
        assert e.plugin.warnings

    def test_fresh_text_allowed_into_docs(self, enterprise):
        e = enterprise
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert editor.paste(par, THIRD_TEXT)
        assert e.docs.backend.get(editor.doc_id).paragraphs[0][1] == THIRD_TEXT

    def test_violating_paragraph_marked_red(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, SECRET_TEXT)
        assert par.get_attribute(STATUS_ATTR) == STATUS_VIOLATION

    def test_clean_paragraph_not_marked(self, enterprise):
        e = enterprise
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, OTHER_TEXT)
        assert par.get_attribute(STATUS_ATTR) != STATUS_VIOLATION

    def test_warning_identifies_offending_tag_and_source(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        editor.paste(editor.new_paragraph(), SECRET_TEXT)
        warning = e.plugin.warnings[0]
        assert "tw" in warning.offending
        assert any("Guidelines" in s for s in warning.source_ids)

    def test_decision_latencies_recorded(self, enterprise):
        e = enterprise
        editor = e.docs.open_editor(e.browser.new_tab())
        editor.paste(editor.new_paragraph(), OTHER_TEXT)
        snapshot = e.model.registry.snapshot()
        latencies = snapshot["plugin.decision_seconds"]
        assert latencies["count"] > 0
        assert latencies["sum"] >= 0
        assert snapshot["plugin.decisions"] == latencies["count"]

    def test_typing_uses_decision_cache(self, enterprise):
        e = enterprise
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.type_text(par, OTHER_TEXT)
        assert e.plugin.cache.metrics.snapshot()["hits"] > 0

    def test_docs_to_docs_copy_allowed(self, enterprise):
        e = enterprise
        editor1 = e.docs.open_editor(e.browser.new_tab())
        editor1.paste(editor1.new_paragraph(), OTHER_TEXT)
        editor2 = e.docs.open_editor(e.browser.new_tab())
        assert editor2.paste(editor2.new_paragraph(), OTHER_TEXT)


class TestFormInterception:
    def test_interview_note_blocked_at_wiki(self, enterprise):
        e = enterprise
        e.itool.add_note("jane", SECRET_TEXT)
        e.browser.open(e.itool.candidate_url("jane"))  # ingest + label {ti}
        ok = e.wiki.edit(e.browser.new_tab(), "Notes", SECRET_TEXT)
        assert not ok
        assert e.wiki.page_text("Notes") == ""
        assert any("ti" in w.offending for w in e.plugin.warnings)

    def test_wiki_text_back_to_wiki_allowed(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guide", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guide"))
        ok = e.wiki.edit(e.browser.new_tab(), "Copy", SECRET_TEXT)
        assert ok
        assert e.wiki.page_text("Copy") == SECRET_TEXT

    def test_fresh_note_to_interview_tool_allowed(self, enterprise):
        e = enterprise
        ok = e.itool.submit_note(e.browser.new_tab(), "jane", THIRD_TEXT)
        assert ok
        assert e.itool.notes_for("jane") == [THIRD_TEXT]

    def test_interview_note_blocked_from_docs_via_form_path(self, enterprise):
        """Interview text must not reach the wiki even via multiple hops
        of the same form API."""
        e = enterprise
        e.itool.add_note("jane", SECRET_TEXT)
        e.browser.open(e.itool.candidate_url("jane"))
        # Direct hop itool -> wiki blocked above; also check the docs
        # service is protected through its AJAX path after form ingest.
        editor = e.docs.open_editor(e.browser.new_tab())
        assert not editor.paste(editor.new_paragraph(), SECRET_TEXT)


class TestSuppressionOverride:
    def test_override_then_upload_succeeds(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert not editor.paste(par, SECRET_TEXT)

        # The user reviews the warnings and declassifies both the
        # paragraph and the document segment.
        for warning in list(e.plugin.warnings):
            e.plugin.suppress(
                warning.segment_id, "tw", "alice", "cleared by communications team"
            )
        assert editor.set_paragraph_text(par, SECRET_TEXT)
        assert e.docs.backend.get(editor.doc_id).paragraphs[0][1] == SECRET_TEXT

    def test_override_recorded_in_audit_log(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, SECRET_TEXT)
        for warning in list(e.plugin.warnings):
            e.plugin.suppress(warning.segment_id, "tw", "alice", "approved")
        editor.set_paragraph_text(par, SECRET_TEXT)
        events = e.model.audit.by_user("alice")
        assert events
        assert all(event.tag.name == "tw" for event in events)


class TestAdvisoryMode:
    def test_violation_warned_but_delivered(self, enterprise_advisory):
        e = enterprise_advisory
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert editor.paste(par, SECRET_TEXT)  # delivered
        assert e.docs.backend.get(editor.doc_id).paragraphs
        warned = [w for w in e.plugin.warnings if w.proceeded]
        assert warned


class TestEncryptMode:
    def test_violating_upload_encrypted(self):
        e = EnterpriseFixture(mode=PluginMode.ENCRYPT)
        cipher = UploadCipher("org-secret")
        e.plugin.enforcement._cipher = cipher
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert editor.paste(par, SECRET_TEXT)  # goes through, encrypted
        stored = e.docs.backend.get(editor.doc_id).paragraphs[0][1]
        assert UploadCipher.is_encrypted(stored)
        assert cipher.decrypt(stored) == SECRET_TEXT

    def test_clean_upload_stays_plain(self):
        e = EnterpriseFixture(mode=PluginMode.ENCRYPT)
        e.plugin.enforcement._cipher = UploadCipher("org-secret")
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, THIRD_TEXT)
        assert e.docs.backend.get(editor.doc_id).paragraphs[0][1] == THIRD_TEXT

    def test_encrypted_form_upload(self):
        e = EnterpriseFixture(mode=PluginMode.ENCRYPT)
        cipher = UploadCipher("org-secret")
        e.plugin.enforcement._cipher = cipher
        e.itool.add_note("jane", SECRET_TEXT)
        e.browser.open(e.itool.candidate_url("jane"))
        ok = e.wiki.edit(e.browser.new_tab(), "Notes", SECRET_TEXT)
        assert ok
        stored = e.wiki.page_text("Notes")
        assert UploadCipher.is_encrypted(stored)
        assert cipher.decrypt(stored) == SECRET_TEXT


class TestIngestion:
    def test_wiki_page_labelled_on_load(self, enterprise):
        e = enterprise
        e.wiki.save_page("Data", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Data"))
        # Some paragraph segment now carries tw.
        labelled = [
            sid
            for sid in e.model.tracker.paragraphs.segment_db.ids()
            if "tw" in e.model.label_of(sid).effective().names()
        ]
        assert labelled

    def test_docs_page_reingest_on_reopen(self, enterprise):
        e = enterprise
        editor = e.docs.open_editor(e.browser.new_tab())
        editor.paste(editor.new_paragraph(), OTHER_TEXT)
        doc_id = editor.doc_id
        # Re-open in a fresh tab: paragraphs ingested from rendered DOM.
        e.docs.open_editor(e.browser.new_tab(), doc_id)
        qualified = e.plugin.qualify(e.docs.origin, doc_id)
        assert e.model.tracker.documents.segment_db.find(qualified) is not None

    def test_plugin_instruments_in_the_model_snapshot(self, enterprise):
        snapshot = enterprise.model.registry.snapshot()
        for name in (
            "plugin.decisions",
            "plugin.warnings",
            "plugin.decision_seconds",
            "decision_cache.hits",
            "decision_cache.misses",
            "plugin.delta.checks",
            "plugin.delta.builds",
            "plugin.delta.edits",
        ):
            assert name in snapshot, name


class TestSharedModelCounters:
    """Plug-ins on one model share its instruments, as a fleet's do."""

    def test_two_plugins_on_one_model_are_both_counted(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        browser = Browser(e.network)
        second = BrowserFlowPlugin(e.model, mode=PluginMode.ENFORCE)
        second.attach(browser)
        browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(browser.new_tab())
        editor.paste(editor.new_paragraph(), SECRET_TEXT)
        editor.paste(editor.new_paragraph(), OTHER_TEXT)
        snapshot = e.model.registry.snapshot()
        decisions = snapshot["plugin.decision_seconds"]["count"]
        assert decisions > 0 and second.warnings and not e.plugin.warnings
        assert snapshot["plugin.decisions"] == decisions
        assert snapshot["plugin.warnings"] == len(second.warnings)

        first_editor = e.docs.open_editor(e.browser.new_tab())
        first_editor.paste(first_editor.new_paragraph(), SECRET_TEXT)
        snapshot = e.model.registry.snapshot()
        assert e.plugin.warnings
        assert (
            snapshot["plugin.decisions"]
            == snapshot["plugin.decision_seconds"]["count"]
            > decisions
        )
        assert snapshot["plugin.warnings"] == (
            len(e.plugin.warnings) + len(second.warnings)
        )


class TestEditingFeedback:
    def test_red_mark_while_typing_sensitive_text(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        # Type the secret; interception blocks sync but the mutation
        # observer still marks the paragraph as the text accumulates.
        editor.type_text(par, SECRET_TEXT)
        assert par.get_attribute(STATUS_ATTR) == STATUS_VIOLATION

    def test_mark_cleared_after_rewrite(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        editor.paste(par, SECRET_TEXT)
        assert par.get_attribute(STATUS_ATTR) == STATUS_VIOLATION
        editor.set_paragraph_text(par, THIRD_TEXT)
        assert par.get_attribute(STATUS_ATTR) != STATUS_VIOLATION


class TestDeltaInterception:
    def test_typed_secret_blocked_despite_fragmented_wire(self, enterprise):
        """Per-keystroke deltas never show the full secret on the wire;
        the plug-in resolves the paragraph text from the DOM and still
        blocks the flow (paper §5.2)."""
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        delivered = editor.type_text(par, SECRET_TEXT)
        # The early keystrokes pass (too short to fingerprint); once the
        # text resembles the source, every further delta is blocked.
        assert delivered < len(SECRET_TEXT)
        stored = e.docs.backend.get(editor.doc_id).find_paragraph(
            editor.paragraph_id(par)
        )
        assert stored is None or SECRET_TEXT not in stored

    def test_delete_delta_checked_against_dom_state(self, enterprise):
        """A delete delta carries no text on the wire, yet it is still
        gated: the check runs on the paragraph's post-delete DOM state,
        which remains similar to the source."""
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert not editor.paste(par, SECRET_TEXT)
        # Trimming a few trailing characters leaves the paragraph just
        # as sensitive; the delete delta must be blocked too.
        assert not editor.delete_text(par, len(SECRET_TEXT) - 5, 5)
        assert e.docs.backend.get(editor.doc_id).paragraphs == []

    def test_encrypt_mode_rewrites_delta_to_full_ciphertext(self):
        from repro.plugin import PluginMode, UploadCipher

        e = EnterpriseFixture(mode=PluginMode.ENCRYPT)
        cipher = UploadCipher("org-secret")
        e.plugin.enforcement._cipher = cipher
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert editor.paste(par, SECRET_TEXT)  # insert delta, rewritten
        stored = e.docs.backend.get(editor.doc_id).find_paragraph(
            editor.paragraph_id(par)
        )
        assert UploadCipher.is_encrypted(stored)
        assert cipher.decrypt(stored) == SECRET_TEXT


class TestPluginLifecycle:
    def test_detach_stops_interception(self, enterprise):
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        assert not editor.paste(par, SECRET_TEXT)  # protected while attached
        e.plugin.detach()
        par2 = editor.new_paragraph()
        assert editor.paste(par2, SECRET_TEXT)  # unprotected after detach

    def test_detach_stops_future_page_hooks(self, enterprise):
        e = enterprise
        e.plugin.detach()
        e.wiki.save_page("Later", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Later"))
        # No ingestion happened: nothing tracked for that page.
        tracked = [
            sid for sid in e.model.tracker.paragraphs.segment_db.ids()
            if "Later" in sid
        ]
        assert tracked == []

    def test_detach_idempotent(self, enterprise):
        enterprise.plugin.detach()
        enterprise.plugin.detach()  # must not raise

    def test_warning_listener_invoked(self, enterprise):
        e = enterprise
        events = []
        e.plugin.on_warning(events.append)
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        editor = e.docs.open_editor(e.browser.new_tab())
        editor.paste(editor.new_paragraph(), SECRET_TEXT)
        assert events
        assert events[0].offending == ("tw",)
        assert events == e.plugin.warnings[: len(events)]


class TestExtensionPoints:
    def test_sync_parser_enables_blocking_for_unknown_protocol(self, enterprise):
        """A custom sync parser turns an opaque XHR body into a gated
        upload (the §5.2 extension path)."""
        import json

        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))

        def parser(service_id, payload):
            if "custom_field" in payload:
                return ("custom-doc", payload["custom_id"], payload["custom_field"])
            return None

        e.plugin.register_sync_parser(parser)
        tab = e.browser.new_tab()
        e.docs.open_editor(tab)
        xhr = tab.window.new_xhr()
        xhr.open("POST", e.docs.url("/sync"))
        body = json.dumps({"custom_id": "c1", "custom_field": SECRET_TEXT})
        from repro.errors import RequestBlocked

        with pytest.raises(RequestBlocked):
            xhr.send(body)

    def test_childlist_inserted_paragraph_checked(self, enterprise):
        """A paragraph inserted fully formed (one childList mutation)
        is still checked and marked by the mutation observer."""
        e = enterprise
        e.wiki.save_page("Guidelines", SECRET_TEXT)
        e.browser.open(e.wiki.page_url("Guidelines"))
        tab = e.browser.new_tab()
        e.docs.open_editor(tab)
        document = tab.document
        editor_el = document.get_element_by_id("editor")
        # Build the card off-document with text, then insert it whole.
        par = document.create_element(
            "div", {"class": "kix-paragraph", "data-par-id": "external-p1"}
        )
        par.set_text(SECRET_TEXT)
        editor_el.append_child(par)
        assert par.get_attribute(STATUS_ATTR) == STATUS_VIOLATION
