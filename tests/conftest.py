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
    its stored fingerprint's hashes, as many as its stored count, and
    ``hash_db`` holds no segment that ``segment_db`` lacks. Together
    these are the precondition of the engine's delta-only fingerprint
    apply, which records only the hashes a re-observed segment gained
    and withdraws the ones it lost, and of its removal, which withdraws
    the stored fingerprint's hashes. The observed sets are built in one
    pass over the table. Works for the plain and the sharded hash
    database; call it with the engine's lock held or the engine
    quiescent.
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
        assert record.hash_count == len(held), (
            f"{record.segment_id!r}: stored count {record.hash_count}, "
            f"{len(held)} distinct selection values"
        )
    assert not observed, f"hash_db observes untracked segments {sorted(observed)}"


def json_snapshot(engine, version=3, **fields) -> dict:
    """*engine* in the JSON layout of snapshot formats 2 and 3, which
    this build refuses: one entry per segment holding its flat
    selections and its hashes grouped by first-seen time. *fields* adds
    top-level keys (format 2 also held ``owner_epochs`` and
    ``ownership_changes``; a durable snapshot ``wal_lsn``)."""
    config = engine.config
    segments = []
    for record in engine.segment_db:
        groups = {}
        for h in record.fingerprint.hashes:
            seen = engine.hash_db.first_seen(h, record.segment_id)
            groups.setdefault(seen, []).append(h)
        segments.append({
            "id": record.segment_id,
            "threshold": record.threshold,
            "kind": record.kind,
            "doc_id": record.doc_id,
            "last_updated": record.last_updated,
            "selections": memoryview(
                record.fingerprint.flat_selections
            ).cast("Q").tolist(),
            "first_seen": [[ts, sorted(groups[ts])] for ts in sorted(groups)],
        })
    return {
        "version": version,
        "config": {
            "ngram_size": config.ngram_size,
            "window_size": config.window_size,
            "hash_bits": config.hash_bits,
        },
        "authoritative": engine._authoritative,
        "kind": engine._kind,
        "segments": segments,
        **fields,
    }


#: Bytes an append in flight leaves behind: a torn record header.
TORN_TAIL = b"\x00\x00\x01"

#: Layouts of :func:`sharded_directory`, with the ``wal.<i>.log`` files
#: each holds.
SHARD_LOGS = {
    "shard-logs": range(4),
    "wal-shards-4": (),
    "compacted-shards": range(4),
    "stray-shard": (2,),
}
SHARDED_LAYOUTS = list(SHARD_LOGS)


def sharded_directory(directory, layout) -> dict:
    """A durable directory as a build that sharded its log left it.

    ``"shard-logs"`` holds ``wal.0.log`` … ``wal.3.log`` and no
    snapshot, as four shards left it before their first compaction;
    ``"compacted-shards"`` holds the same logs beside a snapshot whose
    header records ``wal_shards: 4``, as they left it after one;
    ``"wal-shards-4"`` holds ``wal.log`` beside such a snapshot; and
    ``"stray-shard"`` holds ``wal.log`` with a ``wal.2.log`` beside it.
    Every log ends in a torn tail that opening it would truncate.
    Returns each file's bytes.
    """
    from repro.disclosure.persistence import encode_snapshot, read_snapshot
    from repro.disclosure.wal import SNAPSHOT_NAME, WAL_NAME, DurableEngine

    compacted = layout in ("wal-shards-4", "compacted-shards")
    durable = DurableEngine(directory, config=TINY_CONFIG, fsync="always")
    durable.observe("a", SECRET_TEXT, threshold=0.4)
    if compacted:
        durable.compact()
    durable.observe("b", OTHER_TEXT, threshold=0.4)
    durable.close()
    if compacted:
        snapshot = directory / SNAPSHOT_NAME
        data = read_snapshot(snapshot)
        data["wal_shards"] = 4
        snapshot.write_bytes(encode_snapshot(data))
    log = directory / WAL_NAME
    blob = log.read_bytes() + TORN_TAIL
    log.write_bytes(blob)
    # Whole logs with torn tails stand in for the shards' own records:
    # a refused directory is never read past its names.
    for i in SHARD_LOGS[layout]:
        (directory / f"wal.{i}.log").write_bytes(blob)
    if layout in ("shard-logs", "compacted-shards"):
        log.unlink()
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def container_frames(blob: bytes):
    """``(length_offset, payload_offset, length)`` of each frame of a
    plain snapshot or model file: the header frame, then the sections."""
    from repro.disclosure.persistence import MAGIC

    assert blob.startswith(MAGIC)
    frames = []
    offset = len(MAGIC)
    while offset < len(blob):
        length = int.from_bytes(blob[offset:offset + 8], "little")
        frames.append((offset, offset + 12, length))
        offset += 12 + length
    return frames


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
