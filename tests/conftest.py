"""Shared fixtures for the BrowserFlow reproduction test suite."""

from __future__ import annotations

import pytest

from repro import (
    Browser,
    BrowserFlowPlugin,
    DisclosureEngine,
    DocsService,
    Fingerprinter,
    InterviewTool,
    Label,
    Network,
    PolicyStore,
    TextDisclosureModel,
    UploadCipher,
    WikiService,
)
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin import PluginMode
from repro.util.clock import LogicalClock

# Long, distinct prose samples. Each is comfortably above the winnowing
# guarantee threshold for both TINY_CONFIG and the paper config.
SECRET_TEXT = (
    "Our interview guidelines say to always probe for distributed systems "
    "depth and to ask about consensus protocols in the second round of "
    "every onsite interview loop."
)
OTHER_TEXT = (
    "The quarterly marketing newsletter celebrates the community garden "
    "initiative and invites volunteers to the harvest festival next month "
    "in the main courtyard."
)
THIRD_TEXT = (
    "Database replication lag is monitored through a dedicated dashboard "
    "that aggregates binlog positions from every replica and raises alerts "
    "when any replica falls behind."
)


def assert_databases_agree(engine) -> None:
    """Assert the cross-database invariant of a disclosure engine.

    Every tracked segment's observed hashes in ``hash_db`` are exactly
    its stored fingerprint's hashes, and ``hash_db`` holds no segment
    that ``segment_db`` lacks. Together these are the precondition of
    the engine's delta-only fingerprint apply, which records only the
    hashes a re-observed segment gained and withdraws the ones it lost,
    and of its removal, which withdraws the stored fingerprint's hashes.
    The observed sets are built in one pass over the table. Works for
    the plain and the sharded hash database; call it with the engine's
    lock held or the engine quiescent.
    """
    hash_db, segment_db = engine.hash_db, engine.segment_db
    observed = {}
    for hash_value in hash_db.hashes():
        for segment_id in hash_db.observers(hash_value):
            observed.setdefault(segment_id, set()).add(hash_value)
    for record in segment_db:
        held = observed.pop(record.segment_id, set())
        assert held == record.fingerprint.hashes, (
            f"{record.segment_id!r}: hash_db holds {len(held)} hashes, "
            f"its fingerprint {len(record.fingerprint.hashes)}"
        )
    assert not observed, f"hash_db observes untracked segments {sorted(observed)}"


@pytest.fixture
def tiny_config():
    return TINY_CONFIG


@pytest.fixture
def fingerprinter(tiny_config):
    return Fingerprinter(tiny_config)


@pytest.fixture
def engine(tiny_config):
    return DisclosureEngine(tiny_config, LogicalClock())


class EnterpriseFixture:
    """The paper's §2 scenario wired end to end.

    Interview Tool (ti) and internal Wiki (tw) are trusted internal
    services; the Docs service is an untrusted external one. A plug-in
    in ENFORCE mode is attached to the browser.
    """

    def __init__(self, mode: PluginMode = PluginMode.ENFORCE) -> None:
        self.network = Network()
        self.wiki = WikiService()
        self.itool = InterviewTool()
        self.docs = DocsService()
        for service in (self.wiki, self.itool, self.docs):
            self.network.register(service)

        self.policies = PolicyStore()
        self.policies.register_service(
            self.wiki.origin,
            privilege=Label.of("tw"),
            confidentiality=Label.of("tw"),
            display_name="Internal Wiki",
        )
        self.policies.register_service(
            self.itool.origin,
            privilege=Label.of("ti"),
            confidentiality=Label.of("ti"),
            display_name="Interview Tool",
        )
        self.policies.register_service(self.docs.origin, display_name="Docs")

        self.model = TextDisclosureModel(self.policies, TINY_CONFIG)
        self.browser = Browser(self.network)
        cipher = (
            UploadCipher("enterprise-master-key")
            if mode is PluginMode.ENCRYPT
            else None
        )
        self.plugin = BrowserFlowPlugin(self.model, mode=mode, cipher=cipher)
        self.plugin.attach(self.browser)


@pytest.fixture
def enterprise():
    return EnterpriseFixture()


@pytest.fixture
def enterprise_advisory():
    return EnterpriseFixture(mode=PluginMode.ADVISORY)
