"""A fingerprint-based network DLP firewall (paper §2.2's strong
baseline: "specialised solutions, which employ text similarity
techniques to detect information disclosure in network streams").

The firewall shares BrowserFlow's winnowing engine but sits at the
network layer: it registers known-sensitive documents, extracts text
from every outgoing request's wire format, and reports/blocks when any
fragment discloses a registered document. Against form-based services
this is as strong as BrowserFlow; against delta-syncing AJAX editors it
sees one character per request and is structurally blind — the
measured motivation for in-browser interception.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.browser.http import HttpRequest
from repro.disclosure import DisclosureEngine
from repro.dlp.extractor import extract_wire_text
from repro.errors import RequestBlocked
from repro.fingerprint import FingerprintConfig
from repro.obs.registry import MetricsRegistry


class DlpMode(enum.Enum):
    MONITOR = "monitor"  # record detections, let traffic through
    BLOCK = "block"      # veto requests containing sensitive text


@dataclass(frozen=True)
class Detection:
    """One sensitive-content hit on the wire."""

    document_id: str
    score: float
    url: str
    fragment_preview: str


class NetworkDlpFirewall:
    """Similarity-scanning middlebox, usable as a network interceptor.

    Args:
        config: fingerprinting parameters for the internal engine.
        threshold: disclosure threshold for registered documents.
        mode: MONITOR (record only) or BLOCK (veto violating requests).
        registry: metrics registry; the firewall's counters register
            under ``dlp_firewall.`` and the internal engine's under
            ``engine.paragraph.``. A private one is created when
            omitted.
    """

    def __init__(
        self,
        config: Optional[FingerprintConfig] = None,
        *,
        threshold: float = 0.5,
        mode: DlpMode = DlpMode.MONITOR,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.metrics = self.registry.scope("dlp_firewall.")
        self._engine = DisclosureEngine(config, registry=self.registry)
        self._threshold = threshold
        self.mode = mode
        self.detections: List[Detection] = []
        self._c_requests_seen = self.metrics.counter("requests_seen")
        self.metrics.gauge("detections", fn=lambda: len(self.detections))

    def register_sensitive(self, document_id: str, text: str) -> None:
        """Add a document to the firewall's sensitive-content corpus."""
        self._engine.observe(document_id, text, threshold=self._threshold)

    def scan_request(self, request: HttpRequest) -> List[Detection]:
        """Scan one request's wire text; returns (without recording)."""
        found: List[Detection] = []
        for fragment in extract_wire_text(request):
            fingerprint = self._engine.fingerprint(fragment)
            if fingerprint.is_empty():
                # Single-character deltas and other short fragments
                # carry too little text to fingerprint — the structural
                # blind spot of stream scanning.
                continue
            report = self._engine.disclosing_sources(fingerprint=fingerprint)
            for source in report.sources:
                found.append(
                    Detection(
                        document_id=source.segment_id,
                        score=source.score,
                        url=request.url,
                        fragment_preview=fragment[:60],
                    )
                )
        return found

    def __call__(self, request: HttpRequest) -> None:
        """Interceptor protocol: inspect and (in BLOCK mode) veto."""
        self._c_requests_seen.inc()
        found = self.scan_request(request)
        self.detections.extend(found)
        if found and self.mode is DlpMode.BLOCK:
            raise RequestBlocked(
                request.url,
                f"DLP: wire content discloses {found[0].document_id!r}",
            )
