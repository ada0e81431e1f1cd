"""Tests for engine persistence, encryption at rest, and retention.

The crash tests follow one discipline throughout: a process death is a
:class:`~repro.errors.SimulatedCrash` raised at a deterministic byte
position by a :class:`~repro.util.faults.FaultInjector` schedule — no
subprocesses, no signals, no sleeps. ``drop`` kills the writer before
any bytes land, ``latency`` tears the write after ``int(latency)``
bytes, and ``error`` kills it after the payload is durable but before
the acknowledgement (rename for snapshots, return for WAL appends).
"""

import json
import os
import random

import pytest

import repro.disclosure.persistence as persistence
from repro.disclosure import DisclosureEngine
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.persistence import (
    MAGIC,
    SEALED_MAGIC,
    decode_container,
    encode_snapshot,
    expire_segments,
    join_sections,
    load_engine,
    read_snapshot,
    restore_engine,
    save_engine,
    snapshot_engine,
)
from repro.disclosure.wal import (
    LEGACY_SNAPSHOT_NAME,
    SNAPSHOT_NAME,
    WAL_NAME,
    DurableEngine,
    EngineJournal,
    WriteAheadLog,
)
from repro.errors import DisclosureError, SimulatedCrash, SnapshotCorrupt
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.crypto import UploadCipher
from repro.tdm import PolicyStore, TextDisclosureModel
from repro.tdm.state import ENGINES, encode_model, load_model, model_to_dict
from repro.util.clock import LogicalClock
from repro.util.faults import Fault, FaultInjector

from conftest import (
    OTHER_TEXT,
    SECRET_TEXT,
    THIRD_TEXT,
    assert_databases_agree,
    json_snapshot,
)


@pytest.fixture
def engine():
    engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
    engine.observe("a", SECRET_TEXT, threshold=0.4, doc_id="docA")
    engine.observe("b", OTHER_TEXT)
    engine.observe("c", SECRET_TEXT)  # later copy: 'a' stays authoritative
    return engine


class TestSnapshotRoundtrip:
    def test_segments_restored(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path)
        assert sorted(restored.segment_db.ids()) == ["a", "b", "c"]
        original = engine.segment_db.get("a")
        recovered = restored.segment_db.get("a")
        assert recovered.fingerprint.hashes == original.fingerprint.hashes
        assert recovered.threshold == original.threshold
        assert recovered.doc_id == "docA"

    def test_decisions_identical_after_restore(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path)
        probe = restored.fingerprint(SECRET_TEXT)
        before = engine.disclosing_sources(fingerprint=probe)
        after = restored.disclosing_sources(fingerprint=probe)
        assert before.source_ids() == after.source_ids()
        assert [s.score for s in before.sources] == [s.score for s in after.sources]

    def test_authoritative_ownership_survives(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path)
        record = engine.segment_db.get("a")
        for h in record.fingerprint.hashes:
            assert restored.hash_db.oldest_owner(h) == "a"

    def test_selections_preserved_for_attribution(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path)
        assert (
            restored.segment_db.get("a").fingerprint.selections
            == engine.segment_db.get("a").fingerprint.selections
        )

    def test_config_restored(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        assert load_engine(path).config == TINY_CONFIG

    @pytest.mark.parametrize("version", [2, 3, 99])
    def test_unsupported_version_rejected(self, engine, tmp_path, version):
        """Another version is refused by every way a snapshot comes in:
        a dict; a file in the JSON layout of formats 2 and 3 or in the
        binary container; a durable directory holding either, under the
        old or the current snapshot name; and a model file whose engine
        snapshots are in that version."""
        data = snapshot_engine(engine)
        data["version"] = version
        refused = f"unsupported snapshot version {version} "
        with pytest.raises(DisclosureError, match=refused):
            restore_engine(data)
        layouts = {
            LEGACY_SNAPSHOT_NAME: json.dumps(json_snapshot(engine, version)).encode(),
            SNAPSHOT_NAME: encode_snapshot(data),
        }
        for name, blob in layouts.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(DisclosureError, match=refused):
                read_snapshot(path)
            directory = tmp_path / f"durable-{name}"
            directory.mkdir()
            (directory / name).write_bytes(blob)
            with pytest.raises(DisclosureError, match=refused):
                DurableEngine(directory, config=TINY_CONFIG)
            assert sorted(p.name for p in directory.iterdir()) == [name]
        model = TextDisclosureModel(PolicyStore(), TINY_CONFIG)
        model.observe("https://wiki.example", "docA", [("docA#p0", SECRET_TEXT)])
        state = model_to_dict(model)
        for key in ENGINES:
            state[key]["version"] = version
        model_path = tmp_path / "model.bin"
        model_path.write_bytes(encode_model(state))
        with pytest.raises(DisclosureError, match=refused):
            load_model(model_path)

    def test_header_is_json_and_hash_data_is_binary(self, engine, tmp_path):
        """The file is the magic line, a JSON header with no hash data,
        and the section arrays, which decode back to the snapshot."""
        path = tmp_path / "db.snap"
        save_engine(engine, path)
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        header, payloads = decode_container(blob, None, "db")
        assert set(header) == {
            "version", "config", "authoritative", "kind", "segments",
        }
        assert header["segments"][0][:5] == ["a", 0.4, "paragraph", "docA", 0.0]
        assert join_sections(header, payloads, "db") == snapshot_engine(engine)

    def test_sections_round_trip_in_swapped_byte_order(
        self, engine, tmp_path, monkeypatch
    ):
        """A big-endian host byte-swaps each section value on write and
        on read. Forcing the swap on here runs both legs: the file
        differs from the native one only where the swap reverses a
        value, and it reads back to the same snapshot."""
        native = tmp_path / "native.snap"
        save_engine(engine, native)
        monkeypatch.setattr(persistence, "_LITTLE_ENDIAN", False)
        path = tmp_path / "swapped.snap"
        save_engine(engine, path)
        blob = path.read_bytes()
        assert blob != native.read_bytes()
        header, payloads = decode_container(blob, None, "db")
        _native_header, native_payloads = decode_container(
            native.read_bytes(), None, "db"
        )
        for ours, theirs in zip(payloads, native_payloads):
            assert bytes(ours) == b"".join(
                bytes(theirs[at:at + 8])[::-1]
                for at in range(0, len(theirs), 8)
            )
        assert join_sections(header, payloads, "db") == snapshot_engine(engine)
        assert load_engine(path).segment_db.get("a").fingerprint == (
            engine.segment_db.get("a").fingerprint
        )


class TestEncryptionAtRest:
    def test_encrypted_snapshot_unreadable(self, engine, tmp_path):
        path = tmp_path / "db.enc"
        cipher = UploadCipher("disk-key")
        save_engine(engine, path, cipher=cipher)
        raw = path.read_bytes()
        assert raw.startswith(SEALED_MAGIC)
        assert b"docA" not in raw and b"segments" not in raw

    def test_encrypted_roundtrip(self, engine, tmp_path):
        path = tmp_path / "db.enc"
        cipher = UploadCipher("disk-key")
        save_engine(engine, path, cipher=cipher)
        restored = load_engine(path, cipher=cipher)
        assert sorted(restored.segment_db.ids()) == ["a", "b", "c"]

    def test_encrypted_load_without_cipher_rejected(self, engine, tmp_path):
        path = tmp_path / "db.enc"
        save_engine(engine, path, cipher=UploadCipher("disk-key"))
        with pytest.raises(DisclosureError):
            load_engine(path)


class TestRetention:
    def test_expire_removes_stale_segments(self):
        clock = LogicalClock()
        engine = DisclosureEngine(TINY_CONFIG, clock)
        engine.observe("old", SECRET_TEXT)       # t = 0
        engine.observe("recent", THIRD_TEXT)     # t = 1
        removed = expire_segments(engine, older_than=1.0)
        assert removed == ["old"]
        assert engine.segment_db.ids() == ["recent"]

    def test_expiry_releases_ownership(self):
        clock = LogicalClock()
        engine = DisclosureEngine(TINY_CONFIG, clock)
        engine.observe("old", SECRET_TEXT)
        engine.observe("young", SECRET_TEXT)
        expire_segments(engine, older_than=1.0)
        record = engine.segment_db.get("young")
        for h in record.fingerprint.hashes:
            assert engine.hash_db.oldest_owner(h) == "young"

    def test_expire_nothing(self, engine):
        assert expire_segments(engine, older_than=-1.0) == []
        assert len(engine.segment_db) == 3

    def test_expired_segment_not_reported(self):
        engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
        engine.observe("old", SECRET_TEXT)
        expire_segments(engine, older_than=1.0)
        report = engine.disclosing_sources(
            fingerprint=engine.fingerprint(SECRET_TEXT)
        )
        assert not report.disclosing


class TestAtomicSave:
    """A crash mid-save must never tear the snapshot on disk."""

    CRASHES = [
        pytest.param(Fault.drop(), id="before-write"),
        pytest.param(Fault.slow(0), id="torn-0-bytes"),
        pytest.param(Fault.slow(1), id="torn-1-byte"),
        pytest.param(Fault.slow(200), id="torn-mid-payload"),
        pytest.param(Fault.slow(10**9), id="torn-last-byte"),
        pytest.param(Fault.error(), id="before-rename"),
    ]

    @pytest.mark.parametrize("crash", CRASHES)
    def test_old_snapshot_survives_crashed_writer(self, engine, tmp_path, crash):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        good = path.read_bytes()
        engine.observe("d", THIRD_TEXT)
        with pytest.raises(SimulatedCrash):
            save_engine(
                engine, path, faults=FaultInjector(schedule=[crash])
            )
        # The destination is byte-identical to the pre-crash snapshot
        # and still loads; only temp-file debris may remain.
        assert path.read_bytes() == good
        restored = load_engine(path)
        assert sorted(restored.segment_db.ids()) == ["a", "b", "c"]

    @pytest.mark.parametrize("crash", CRASHES)
    def test_crash_on_first_save_leaves_no_snapshot(self, engine, tmp_path, crash):
        path = tmp_path / "db.json"
        with pytest.raises(SimulatedCrash):
            save_engine(
                engine, path, faults=FaultInjector(schedule=[crash])
            )
        assert not path.exists()

    def test_retry_after_crash_succeeds(self, engine, tmp_path):
        path = tmp_path / "db.json"
        faults = FaultInjector(schedule=[Fault.slow(10)])
        with pytest.raises(SimulatedCrash):
            save_engine(engine, path, faults=faults)
        save_engine(engine, path, faults=faults)  # schedule exhausted
        assert sorted(load_engine(path).segment_db.ids()) == ["a", "b", "c"]

    def test_crash_debris_does_not_shadow_snapshot(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        with pytest.raises(SimulatedCrash):
            save_engine(
                engine, path,
                faults=FaultInjector(schedule=[Fault.slow(50)]),
            )
        leftovers = [p for p in tmp_path.iterdir() if p.name != "db.json"]
        for debris in leftovers:  # a real crash leaves the temp file
            assert debris.suffix == ".tmp"
        assert sorted(load_engine(path).segment_db.ids()) == ["a", "b", "c"]


class TestCorruptSnapshots:
    """Damaged snapshots surface as readable errors, not tracebacks."""

    def test_truncated_snapshot(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SnapshotCorrupt) as excinfo:
            load_engine(path)
        message = str(excinfo.value)
        assert "db.json" in message
        assert "truncated or corrupt" in message

    def test_empty_file(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("")
        with pytest.raises(SnapshotCorrupt):
            load_engine(path)

    def test_wrong_cipher_key(self, engine, tmp_path):
        path = tmp_path / "db.enc"
        save_engine(engine, path, cipher=UploadCipher("right-key"))
        with pytest.raises(SnapshotCorrupt) as excinfo:
            load_engine(path, cipher=UploadCipher("wrong-key"))
        assert "wrong key or corrupt ciphertext" in str(excinfo.value)

    def test_missing_fields(self, engine, tmp_path):
        data = snapshot_engine(engine)
        del data["segments"]
        path = tmp_path / "db.json"
        path.write_bytes(encode_snapshot(data))
        with pytest.raises(SnapshotCorrupt):
            load_engine(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SnapshotCorrupt):
            load_engine(path)

    def test_missing_file_is_plain_disclosure_error(self, tmp_path):
        with pytest.raises(DisclosureError):
            load_engine(tmp_path / "absent.json")

    def test_corrupt_is_a_disclosure_error(self):
        # CLI and callers catch DisclosureError; corruption must be one.
        assert issubclass(SnapshotCorrupt, DisclosureError)


# ----------------------------------------------------------------------
# Crash-recovery matrix: kill the durable engine at every WAL append,
# at record boundaries and mid-record, then prove the recovered state
# is field-identical to a reference engine that applied exactly the
# acknowledged prefix of operations.
# ----------------------------------------------------------------------

#: One op per WAL append, so "crash at append i" is "crash at op i".
#: (expire is absent on purpose: its audit marker is a second append.)
SCRIPT = [
    ("observe", "a", SECRET_TEXT, 0.4, "docA"),
    ("observe", "b", OTHER_TEXT, 0.5, None),
    ("threshold", "a", 0.25),
    ("observe", "c", SECRET_TEXT, 0.5, "docC"),
    ("remove", "b"),
    ("observe", "b", THIRD_TEXT, 0.6, "docB"),
    ("observe", "a", SECRET_TEXT, 0.3, "docA"),
    ("remove", "c"),
]


def apply_op(engine, op):
    if op[0] == "observe":
        _, segment_id, text, threshold, doc_id = op
        engine.observe(segment_id, text, threshold=threshold, doc_id=doc_id)
    elif op[0] == "remove":
        engine.remove(op[1])
    elif op[0] == "threshold":
        engine.set_threshold(op[1], op[2])
    else:  # pragma: no cover - script bug
        raise AssertionError(f"unknown op {op!r}")


def reference_engine(ops):
    """A never-crashed plain engine that applied exactly *ops*."""
    engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
    for op in ops:
        apply_op(engine, op)
    return engine


def assert_field_identical(recovered, reference):
    """Segments, observations, authoritative hashes, and clock all match."""
    assert sorted(recovered.segment_db.ids()) == sorted(
        reference.segment_db.ids()
    )
    for segment_id in reference.segment_db.ids():
        ours = recovered.segment_db.get(segment_id)
        theirs = reference.segment_db.get(segment_id)
        assert ours.fingerprint.hashes == theirs.fingerprint.hashes
        assert ours.fingerprint.selections == theirs.fingerprint.selections
        assert ours.threshold == theirs.threshold
        assert ours.kind == theirs.kind
        assert ours.doc_id == theirs.doc_id
        assert ours.last_updated == theirs.last_updated
        assert authoritative_hashes(ours, recovered.hash_db) == (
            authoritative_hashes(theirs, reference.hash_db)
        )
    assert sorted(recovered.hash_db.hashes()) == sorted(
        reference.hash_db.hashes()
    )
    for hash_value in reference.hash_db.hashes():
        assert sorted(recovered.hash_db.owners(hash_value)) == sorted(
            reference.hash_db.owners(hash_value)
        )
        assert recovered.hash_db.oldest_owner(hash_value) == (
            reference.hash_db.oldest_owner(hash_value)
        )
    recovered.hash_db.check_invariants()
    reference.hash_db.check_invariants()
    assert_databases_agree(recovered)
    assert_databases_agree(reference)
    # Destructive read, so always last: both clocks hand out the same
    # next timestamp — the recovered engine resumed, not rewound.
    assert recovered.engine._clock.now() == reference._clock.now()


def crash_then_recover(directory, script, crash_index, fault, **kwargs):
    """Kill a durable engine at append *crash_index* (1-based), recover.

    Returns ``(recovered_engine, acknowledged_prefix)`` where the
    prefix is the script slice a correct recovery must reproduce:
    ``drop``/``latency`` lose the in-flight record (prefix excludes op
    *crash_index*), ``error`` crashes after it is durable (prefix
    includes it).
    """
    schedule = [Fault.none()] * (crash_index - 1) + [fault]
    primary = DurableEngine(
        directory, config=TINY_CONFIG,
        faults=FaultInjector(schedule=schedule), **kwargs,
    )
    with pytest.raises(SimulatedCrash):
        for op in script:
            apply_op(primary, op)
    # No close(): the process is dead. Recovery opens the same files.
    acknowledged = crash_index if fault.kind == "error" else crash_index - 1
    recovered = DurableEngine(directory, config=TINY_CONFIG, **kwargs)
    return recovered, script[:acknowledged]


CRASH_KINDS = [
    pytest.param(Fault.drop(), id="boundary-drop"),
    pytest.param(Fault.error(), id="durable-unacked"),
    pytest.param(Fault.slow(0), id="torn-0"),
    pytest.param(Fault.slow(1), id="torn-header"),
    pytest.param(Fault.slow(9), id="torn-checksum"),
    pytest.param(Fault.slow(40), id="torn-payload"),
    pytest.param(Fault.slow(10**9), id="torn-last-byte"),
]


class TestCrashRecoveryMatrix:
    @pytest.mark.parametrize("crash_index", range(1, len(SCRIPT) + 1))
    @pytest.mark.parametrize("fault", CRASH_KINDS)
    def test_recovery_matches_acknowledged_prefix(
        self, tmp_path, crash_index, fault
    ):
        recovered, prefix = crash_then_recover(
            tmp_path, SCRIPT, crash_index, fault
        )
        try:
            assert_field_identical(recovered, reference_engine(prefix))
        finally:
            recovered.close()

    @pytest.mark.parametrize("crash_index", range(1, len(SCRIPT) + 1))
    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(Fault.drop(), id="boundary-drop"),
            pytest.param(Fault.error(), id="durable-unacked"),
            pytest.param(Fault.slow(9), id="torn-checksum"),
        ],
    )
    def test_recovery_with_compaction_in_flight(
        self, tmp_path, crash_index, fault
    ):
        """Same matrix with auto-compaction folding the log mid-script:
        crashes land before, between, and after snapshot rotations."""
        recovered, prefix = crash_then_recover(
            tmp_path, SCRIPT, crash_index, fault, compact_every=3
        )
        try:
            assert_field_identical(recovered, reference_engine(prefix))
        finally:
            recovered.close()

    @pytest.mark.parametrize("crash_index", [1, 4, 8])
    def test_second_recovery_is_idempotent(self, tmp_path, crash_index):
        first, prefix = crash_then_recover(
            tmp_path, SCRIPT, crash_index, Fault.slow(9)
        )
        first.close()
        second = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert_field_identical(second, reference_engine(prefix))
            assert second.recovery.torn_bytes == 0  # first pass truncated
        finally:
            second.close()

    def test_recovered_engine_keeps_working(self, tmp_path):
        recovered, prefix = crash_then_recover(
            tmp_path, SCRIPT, 5, Fault.drop()
        )
        try:
            recovered.observe("post", THIRD_TEXT, threshold=0.5)
            report = recovered.disclosing_sources(
                fingerprint=recovered.fingerprint(SECRET_TEXT)
            )
            assert "a" in report.source_ids()
        finally:
            recovered.close()

    def test_encrypted_wal_recovers(self, tmp_path):
        cipher = UploadCipher("log-key")
        recovered, prefix = crash_then_recover(
            tmp_path, SCRIPT, 6, Fault.slow(40), cipher=cipher
        )
        try:
            assert_field_identical(recovered, reference_engine(prefix))
        finally:
            recovered.close()
        raw = (tmp_path / "wal.log").read_bytes()
        assert SECRET_TEXT.split()[0].encode() not in raw

    def test_sharded_tier_recovers(self, tmp_path):
        """A 4-shard engine journals to the one log exactly as a plain
        one does, so a torn append mid-script recovers to the
        acknowledged prefix."""
        wal = WriteAheadLog(
            tmp_path / WAL_NAME,
            faults=FaultInjector(schedule=[Fault.none()] * 6 + [Fault.slow(40)]),
        )
        primary = DisclosureEngine(TINY_CONFIG, LogicalClock(), n_shards=4)
        primary.attach_journal(EngineJournal(wal))
        with pytest.raises(SimulatedCrash):
            for op in SCRIPT:
                apply_op(primary, op)
        wal.close()
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert recovered.recovery.torn_bytes == 40
            assert_field_identical(recovered, reference_engine(SCRIPT[:6]))
        finally:
            recovered.close()


def _durability_seeds():
    return os.environ.get("BF_DURABILITY_SEEDS", "dur-1,dur-2").split(",")


@pytest.mark.parametrize("seed", _durability_seeds())
def test_randomized_crash_recovery(tmp_path, seed):
    """Fuzzed scripts and crash points, reproducible per seed; widen
    coverage in CI via BF_DURABILITY_SEEDS=seed1,seed2,..."""
    rng = random.Random(seed)
    texts = [SECRET_TEXT, OTHER_TEXT, THIRD_TEXT]
    for case in range(4):
        script = []
        live = []
        for _ in range(rng.randint(3, 12)):
            roll = rng.random()
            if live and roll < 0.15:
                victim = rng.choice(live)
                live.remove(victim)
                script.append(("remove", victim))
            elif live and roll < 0.3:
                script.append(
                    ("threshold", rng.choice(live), rng.uniform(0.1, 0.9))
                )
            else:
                segment_id = f"s{rng.randint(0, 4)}"
                if segment_id not in live:
                    live.append(segment_id)
                script.append(
                    (
                        "observe", segment_id, rng.choice(texts),
                        rng.uniform(0.2, 0.8),
                        rng.choice([None, "docX", "docY"]),
                    )
                )
        crash_index = rng.randint(1, len(script))
        fault = rng.choice(
            [Fault.drop(), Fault.error(), Fault.slow(rng.randint(0, 64))]
        )
        compact_every = rng.choice([None, 2, 3])
        directory = tmp_path / f"case{case}"
        recovered, prefix = crash_then_recover(
            directory, script, crash_index, fault,
            compact_every=compact_every,
        )
        try:
            assert_field_identical(recovered, reference_engine(prefix))
        finally:
            recovered.close()


class TestClockResume:
    def test_restored_clock_resumes_past_snapshot(self, engine, tmp_path):
        """A restarted process must not hand out timestamps at or before
        the snapshot's, or new observations would steal authoritative
        ownership from the true first observers."""
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path)
        # "aaa-newcomer" sorts before "a", so with a rewound clock the
        # (timestamp, id) tie-break would hand it ownership.
        restored.observe("aaa-newcomer", SECRET_TEXT)
        for h in restored.segment_db.get("a").fingerprint.hashes:
            assert restored.hash_db.oldest_owner(h) == "a"

    def test_explicit_clock_still_respected(self, engine, tmp_path):
        path = tmp_path / "db.json"
        save_engine(engine, path)
        restored = load_engine(path, clock=LogicalClock(start=100))
        restored.observe("later", THIRD_TEXT)
        assert restored.segment_db.get("later").last_updated == 100.0
