"""Unit tests for the write-ahead log layer (DESIGN.md §14).

Record format, torn-tail scanning and truncation, fsync policy knobs,
rotation, the refusal of directories journaled to sharded logs,
encryption, and the journaling hooks that connect engine mutations to
the log. Crash *recovery* end-to-end lives in test_disc_persistence.py
(the crash matrix); standby catch-up in test_standby_failover.py.
"""

import gc
import json
import struct
import threading
import weakref
import zlib
from array import array

import pytest

import repro.disclosure.wal as wal_module
from repro.disclosure import DisclosureEngine
from repro.disclosure.persistence import read_snapshot
from repro.disclosure.wal import (
    LEGACY_MAGIC,
    MAGIC,
    OP_CODES,
    WAL_NAME,
    DurableEngine,
    EngineJournal,
    LogShipper,
    WriteAheadLog,
    apply_record,
    replay_records,
    scan_wal_file,
)
from repro.errors import DisclosureError, SimulatedCrash, WALCorrupt
from repro.fingerprint.config import TINY_CONFIG
from repro.obs.registry import MetricsRegistry
from repro.plugin.crypto import UploadCipher
from repro.util.clock import LogicalClock
from repro.util.faults import Fault, FaultInjector

from conftest import (
    OTHER_TEXT,
    SECRET_TEXT,
    THIRD_TEXT,
    SHARD_LOGS,
    SHARDED_LAYOUTS,
    TORN_TAIL,
    sharded_directory,
)

# The BFWAL2 layout, spelled out here rather than imported, so these
# tests pin the format instead of following it.
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_HEAD = struct.Struct("<QB")  # lsn, op code


def frames(blob):
    """``(offset, payload)`` of every whole record after the magic."""
    offset = len(MAGIC)
    out = []
    while offset < len(blob):
        length, _crc = _FRAME.unpack_from(blob, offset)
        out.append((offset, blob[offset + 8:offset + 8 + length]))
        offset += _FRAME.size + length
    return out


def wal_records(path, cipher=None):
    records, _good, _torn = scan_wal_file(path, cipher=cipher)
    return records


class TestRecordFormat:
    def test_file_starts_with_magic(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        assert (tmp_path / "wal.log").read_bytes().startswith(MAGIC)

    def test_record_layout_length_crc_payload(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append("remove", kind="paragraph", id="x")
        wal.close()
        blob = (tmp_path / "wal.log").read_bytes()[len(MAGIC):]
        length, crc = _FRAME.unpack_from(blob)
        payload = blob[_FRAME.size:_FRAME.size + length]
        assert len(payload) == length == len(blob) - _FRAME.size
        assert zlib.crc32(payload) == crc
        assert payload[0] == 0  # plain
        lsn, code = _HEAD.unpack_from(payload, 1)
        assert (lsn, code) == (1, OP_CODES["remove"])
        # A rare op keeps its other fields as compact, key-sorted JSON.
        assert payload[1 + _HEAD.size:] == b'{"id":"x","kind":"paragraph"}'

    def test_op_codes_are_fixed(self):
        """Codes are written into every record, so they never move."""
        assert OP_CODES == {
            "observe": 1, "remove": 2, "threshold": 3, "expire": 4,
            "suppress": 5, "compact": 6,
        }

    def test_lsns_strictly_increase(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        lsns = [wal.append("remove", kind="paragraph", id=str(i)) for i in range(5)]
        wal.close()
        assert lsns == [1, 2, 3, 4, 5]

    def test_unknown_op_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(DisclosureError):
            wal.append("mystery", id="x")
        wal.close()

    def test_bad_magic_raises_wal_corrupt(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL\n" + b"garbage")
        with pytest.raises(WALCorrupt):
            scan_wal_file(path)

    def test_missing_file_scans_empty(self, tmp_path):
        records, good, torn = scan_wal_file(tmp_path / "absent.log")
        assert (records, good, torn) == ([], 0, 0)


class TestTornTail:
    def fill(self, path, n=3):
        wal = WriteAheadLog(path, fsync="always")
        for i in range(n):
            wal.append("remove", kind="paragraph", id=f"seg{i}")
        wal.close()

    def test_scan_stops_at_torn_record(self, tmp_path):
        path = tmp_path / "wal.log"
        self.fill(path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])  # tear the last record
        records, good, torn = scan_wal_file(path)
        assert [r["id"] for r in records] == ["seg0", "seg1"]
        assert torn > 0
        assert good + torn == len(whole) - 5

    @pytest.mark.parametrize("keep", [0, 1, 4, 7, 8])
    def test_torn_header_or_checksum(self, tmp_path, keep):
        """Tears inside the 8-byte header are as recoverable as tears
        inside the payload."""
        path = tmp_path / "wal.log"
        self.fill(path, n=1)
        wal = WriteAheadLog(path, fsync="always")
        start = path.stat().st_size
        wal.append("remove", kind="paragraph", id="doomed")
        wal.close()
        blob = path.read_bytes()
        path.write_bytes(blob[: start + keep])
        records, _good, torn = scan_wal_file(path)
        assert [r["id"] for r in records] == ["seg0"]
        assert torn == keep

    def test_corrupted_crc_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        self.fill(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte under the last checksum
        path.write_bytes(bytes(blob))
        records, _good, torn = scan_wal_file(path)
        assert [r["id"] for r in records] == ["seg0", "seg1"]
        assert torn > 0

    def test_reopen_truncates_and_appends_cleanly(self, tmp_path):
        path = tmp_path / "wal.log"
        self.fill(path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        wal = WriteAheadLog(path)
        assert [r["id"] for r in wal.recovered_records] == ["seg0", "seg1"]
        wal.append("remove", kind="paragraph", id="after")
        wal.close()
        records, _good, torn = scan_wal_file(path)
        assert [r["id"] for r in records] == ["seg0", "seg1", "after"]
        assert torn == 0

    def test_lsn_resumes_past_disk(self, tmp_path):
        path = tmp_path / "wal.log"
        self.fill(path, n=4)
        wal = WriteAheadLog(path)
        assert wal.append("remove", kind="paragraph", id="next") == 5
        wal.close()

    def test_reopened_log_resumes_past_its_largest_lsn(self, tmp_path):
        """After a rotation the file starts at its compact record, not
        at LSN 1: a reopened log resumes past the largest LSN it holds."""
        path = tmp_path / "wal.log"
        self.fill(path, n=3)
        wal = WriteAheadLog(path, fsync="always")
        wal.rotate(snapshot_lsn=3)
        assert wal.append("remove", kind="paragraph", id="after") == 5
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 5
        assert [r["lsn"] for r in reopened.recovered_records] == [4, 5]
        assert reopened.append("remove", kind="paragraph", id="next") == 6
        reopened.close()


class TestFsyncPolicy:
    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", fsync="batch", fsync_interval=0)

    @pytest.mark.parametrize(
        "fsync,interval,appends,expected",
        [
            ("always", 16, 4, 4),
            ("batch", 2, 4, 2),
            ("never", 16, 4, 0),
        ],
    )
    def test_fsync_counts_follow_policy(
        self, tmp_path, fsync, interval, appends, expected
    ):
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync=fsync, fsync_interval=interval
        )
        baseline = wal.metrics.counter("fsyncs").value
        for i in range(appends):
            wal.append("remove", kind="paragraph", id=str(i))
        assert wal.metrics.counter("fsyncs").value - baseline == expected
        wal.close()

    def test_records_visible_even_without_fsync(self, tmp_path):
        # flush() on every append: a reader (the log shipper) sees whole
        # records regardless of the durability policy.
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
        wal.append("remove", kind="paragraph", id="x")
        assert [r["id"] for r in wal_records(tmp_path / "wal.log")] == ["x"]
        wal.close()


class TestCrashInjection:
    def test_dead_after_crash(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            faults=FaultInjector(schedule=[Fault.drop()]),
        )
        with pytest.raises(SimulatedCrash):
            wal.append("remove", kind="paragraph", id="x")
        with pytest.raises(DisclosureError):
            wal.append("remove", kind="paragraph", id="y")
        wal.close()

    def test_error_crash_record_survives(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            faults=FaultInjector(schedule=[Fault.error()]),
        )
        with pytest.raises(SimulatedCrash):
            wal.append("remove", kind="paragraph", id="x")
        assert [r["id"] for r in wal_records(tmp_path / "wal.log")] == ["x"]

    def test_torn_crash_record_lost(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            faults=FaultInjector(schedule=[Fault.slow(6)]),
        )
        with pytest.raises(SimulatedCrash):
            wal.append("remove", kind="paragraph", id="x")
        records, _good, torn = scan_wal_file(tmp_path / "wal.log")
        assert records == []
        assert torn == 6


class TestRotation:
    def test_rotate_leaves_compact_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        for i in range(3):
            wal.append("remove", kind="paragraph", id=str(i))
        wal.rotate(snapshot_lsn=3)
        records = wal_records(tmp_path / "wal.log")
        assert len(records) == 1
        assert records[0]["op"] == "compact"
        assert records[0]["snapshot_lsn"] == 3
        assert records[0]["lsn"] == 4
        wal.append("remove", kind="paragraph", id="after")
        wal.close()
        assert [r["op"] for r in wal_records(tmp_path / "wal.log")] == [
            "compact", "remove",
        ]

    def test_rotate_refuses_to_discard_acknowledged_records(self, tmp_path):
        """An append acknowledged after the snapshot stamp must not be
        replaced away by the rotation — the write-ahead contract."""
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        for i in range(3):
            wal.append("remove", kind="paragraph", id=f"seg{i}")
        snapshot_lsn = wal.last_lsn
        wal.append("remove", kind="paragraph", id="late")
        with pytest.raises(DisclosureError, match="discard acknowledged"):
            wal.rotate(snapshot_lsn)
        # The late record is still on disk, untouched.
        assert [r["id"] for r in wal_records(tmp_path / "wal.log")] == [
            "seg0", "seg1", "seg2", "late",
        ]
        wal.close()

    def test_new_log_and_rotation_fsync_the_directory(
        self, tmp_path, monkeypatch
    ):
        """Creating the log and swapping in a rotated one each fsync the
        directory, so the name survives a power loss; reopening an
        existing log creates no entry and fsyncs none."""
        synced = []
        monkeypatch.setattr(wal_module, "_fsync_directory", synced.append)
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        assert synced == [tmp_path]
        wal.append("remove", kind="paragraph", id="a")
        wal.rotate(wal.last_lsn)
        assert synced == [tmp_path, tmp_path]
        wal.close()
        WriteAheadLog(tmp_path / "wal.log").close()
        assert synced == [tmp_path, tmp_path]

    def test_replay_skips_covered_records(self, tmp_path):
        engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
        records = [
            {"lsn": 1, "op": "remove", "kind": "paragraph", "id": "a"},
            {"lsn": 2, "op": "compact", "snapshot_lsn": 1},
        ]
        applied, skipped = replay_records(
            records, lambda _k: engine, after_lsn=1
        )
        assert (applied, skipped) == (0, 2)


class TestEncryptedWAL:
    def test_payloads_armoured_on_disk(self, tmp_path):
        cipher = UploadCipher("log-key")
        wal = WriteAheadLog(tmp_path / "wal.log", cipher=cipher)
        wal.append("remove", kind="paragraph", id="visible-segment-name")
        wal.close()
        blob = (tmp_path / "wal.log").read_bytes()
        assert b"visible-segment-name" not in blob
        assert [r["id"] for r in wal_records(tmp_path / "wal.log", cipher)] == [
            "visible-segment-name"
        ]

    def test_wrong_key_raises_wal_corrupt_not_tail_damage(self, tmp_path):
        """A record that passes its checksum but does not decrypt is a
        wrong key, not a torn append — classifying it as tail damage
        would let recovery truncate every acknowledged record away."""
        cipher = UploadCipher("log-key")
        wal = WriteAheadLog(tmp_path / "wal.log", cipher=cipher)
        wal.append("remove", kind="paragraph", id="x")
        wal.close()
        with pytest.raises(WALCorrupt, match="wrong cipher key"):
            scan_wal_file(tmp_path / "wal.log", cipher=UploadCipher("wrong-key"))

    def test_wrong_key_open_does_not_destroy_log(self, tmp_path):
        """Opening (WriteAheadLog or DurableEngine) with the wrong key
        must fail loudly and leave the log bytes intact, so a retry
        with the right key recovers every acknowledged record."""
        cipher = UploadCipher("log-key")
        durable = DurableEngine(
            tmp_path, config=TINY_CONFIG, cipher=cipher, fsync="always"
        )
        durable.observe("a", SECRET_TEXT, threshold=0.4)
        durable.observe("b", OTHER_TEXT, threshold=0.5)
        durable.close()
        before = (tmp_path / "wal.log").read_bytes()
        with pytest.raises(WALCorrupt):
            DurableEngine(
                tmp_path, config=TINY_CONFIG, cipher=UploadCipher("oops")
            )
        assert (tmp_path / "wal.log").read_bytes() == before
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG, cipher=cipher)
        assert sorted(recovered.segment_db.ids()) == ["a", "b"]
        recovered.close()

    def test_wrong_key_with_snapshot_refuses_before_truncating(self, tmp_path):
        """With a snapshot present the wrong-key failure surfaces from
        the snapshot read, before the WAL is even opened — either way
        no file is modified."""
        cipher = UploadCipher("log-key")
        durable = DurableEngine(
            tmp_path, config=TINY_CONFIG, cipher=cipher, fsync="always",
            compact_every=1,
        )
        durable.observe("a", SECRET_TEXT, threshold=0.4)
        durable.observe("b", OTHER_TEXT, threshold=0.5)
        durable.close()
        before = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        with pytest.raises(DisclosureError):
            DurableEngine(
                tmp_path, config=TINY_CONFIG, cipher=UploadCipher("oops")
            )
        after = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert after == before
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG, cipher=cipher)
        assert sorted(recovered.segment_db.ids()) == ["a", "b"]
        recovered.close()


def framed(payload: bytes) -> bytes:
    """*payload* in a frame whose length and checksum are right."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def bfwal1_log() -> bytes:
    """A log as builds before BFWAL2 wrote it: JSON records in big-endian
    frames, ending in a torn tail that opening it would truncate."""
    payload = b'{"id":"x","kind":"paragraph","lsn":1,"op":"remove"}'
    return (
        LEGACY_MAGIC + struct.pack(">II", len(payload), zlib.crc32(payload))
        + payload + TORN_TAIL
    )


class TestDecoderRules:
    """Which damage a scan cuts as a torn tail and which it refuses."""

    def test_each_payload_opens_with_its_seal_byte(self, tmp_path):
        for cipher, seal in ((None, 0), (UploadCipher("log-key"), 1)):
            path = tmp_path / f"{seal}.log"
            wal = WriteAheadLog(path, cipher=cipher)
            wal.append("remove", kind="paragraph", id="x")
            wal.append("remove", kind="paragraph", id="y")
            wal.close()
            assert [p[0] for _at, p in frames(path.read_bytes())] == [seal] * 2

    def test_plain_records_read_with_a_cipher_are_plain(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path)
        wal.append("remove", kind="paragraph", id="x")
        wal.close()
        cipher = UploadCipher("log-key")
        wal = WriteAheadLog(path, cipher=cipher)
        wal.append("remove", kind="paragraph", id="y")
        wal.close()
        assert [p[0] for _at, p in frames(path.read_bytes())] == [0, 1]
        assert [r["id"] for r in wal_records(path, cipher)] == ["x", "y"]

    @pytest.mark.parametrize(
        "body, problem",
        [
            pytest.param(_HEAD.pack(2, 99) + b"{}", "unknown op code 99",
                         id="unknown-op"),
            pytest.param(b"\x02\0\0", "unpack", id="short-head"),
            pytest.param(_HEAD.pack(2, OP_CODES["remove"]) + b"[1]",
                         "not an object", id="fields-not-an-object"),
            pytest.param(_HEAD.pack(2, OP_CODES["remove"]) + b"[" * 100_000,
                         "recursion depth", id="fields-nested-too-deep"),
        ],
    )
    def test_checksummed_record_that_does_not_decode_is_never_cut(
        self, tmp_path, body, problem
    ):
        """A record that passes its checksum but does not decode was not
        torn by a crash. Cutting it as a torn tail would drop it and the
        acknowledged records after it; recovery refuses instead, with
        every byte left as it was."""
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("a", SECRET_TEXT)
        durable.observe("b", OTHER_TEXT)
        durable.close()
        path = tmp_path / WAL_NAME
        blob = path.read_bytes()
        (_a, _pa), (at_b, _pb) = frames(blob)
        # The damaged record lands between two acknowledged ones.
        before = blob[:at_b] + framed(b"\0" + body) + blob[at_b:]
        path.write_bytes(before)
        with pytest.raises(WALCorrupt, match=problem):
            DurableEngine(tmp_path, config=TINY_CONFIG)
        with pytest.raises(WALCorrupt, match="passes its checksum"):
            LogShipper(tmp_path).poll()
        assert path.read_bytes() == before

    def test_zero_filled_tail_is_torn(self, tmp_path):
        """Zeros where the file grew (an all-zero frame passes its
        checksum over zero bytes) are tail debris, not a record."""
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path)
        wal.append("remove", kind="paragraph", id="x")
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\0" * 20)
        records, _good, torn = scan_wal_file(path)
        assert [r["id"] for r in records] == ["x"]
        assert torn == 20

    @pytest.mark.parametrize("open_dir", ["scan", "durable-engine", "log-shipper"])
    def test_bfwal1_log_is_refused_untouched(self, tmp_path, open_dir):
        path = tmp_path / WAL_NAME
        path.write_bytes(bfwal1_log())
        with pytest.raises(WALCorrupt, match="BFWAL1"):
            if open_dir == "scan":
                scan_wal_file(path)
            elif open_dir == "durable-engine":
                DurableEngine(tmp_path, config=TINY_CONFIG)
            else:
                LogShipper(tmp_path).poll()
        assert path.read_bytes() == bfwal1_log()


def remove_payload(segment_id):
    """A ``payload_for`` spelling what ``append("remove", ...)`` writes:
    the record's head, then its other fields as compact JSON."""
    body = json.dumps(
        {"id": segment_id, "kind": "paragraph"},
        separators=(",", ":"), sort_keys=True,
    ).encode()
    return lambda lsn: _HEAD.pack(lsn, OP_CODES["remove"]) + body


class TestLSNAllocation:
    """The log owns its LSN: both appends and a rotation draw from one
    sequence under the log's mutex, so file order is LSN order."""

    def test_append_and_append_payload_share_one_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME, fsync="always")
        handed = []

        def payload_for(lsn):
            handed.append(lsn)
            return remove_payload("p")(lsn)

        assert wal.append("remove", kind="paragraph", id="a") == 1
        assert wal.append_payload(payload_for) == 2
        assert wal.append("remove", kind="paragraph", id="b") == 3
        wal.close()
        assert handed == [2]  # the payload carries the LSN it returns
        assert [
            (r["lsn"], r["id"]) for r in wal_records(tmp_path / WAL_NAME)
        ] == [(1, "a"), (2, "p"), (3, "b")]
        # Both paths frame the same plain bytes the same way.
        blob = (tmp_path / WAL_NAME).read_bytes()
        assert [payload[1 + _HEAD.size:] for _at, payload in frames(blob)] == [
            b'{"id":"a","kind":"paragraph"}',
            b'{"id":"p","kind":"paragraph"}',
            b'{"id":"b","kind":"paragraph"}',
        ]

    def test_a_record_that_cannot_be_encoded_costs_no_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME, fsync="always")
        with pytest.raises(TypeError):
            wal.append("remove", kind="paragraph", id=object())
        with pytest.raises(DisclosureError, match="triples"):
            wal.append(
                "observe", kind="paragraph", id="a", doc_id=None,
                threshold=0.5, ts=1.0, selections=b"\0" * 23,
            )
        with pytest.raises(DisclosureError, match="kind and an id"):
            wal.append(
                "observe", kind="paragraph", id=None, doc_id=None,
                threshold=0.5, ts=1.0, selections=b"",
            )
        assert wal.append("remove", kind="paragraph", id="a") == 1
        wal.close()
        assert [r["lsn"] for r in wal_records(tmp_path / WAL_NAME)] == [1]

    def test_concurrent_appends_land_in_lsn_order(self, tmp_path):
        """Allocation and write happen under one mutex: concurrent
        writers get distinct LSNs, and the file holds them in order."""
        wal = WriteAheadLog(tmp_path / WAL_NAME, fsync="never")
        n_threads, per_thread = 4, 50
        acked = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def writer(t):
            start.wait()
            for i in range(per_thread):
                segment_id = f"t{t}-{i}"
                if i % 2:
                    lsn = wal.append("remove", kind="paragraph", id=segment_id)
                else:
                    lsn = wal.append_payload(remove_payload(segment_id))
                acked[t].append(lsn)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.close()
        records = wal_records(tmp_path / WAL_NAME)
        total = n_threads * per_thread
        assert [r["lsn"] for r in records] == list(range(1, total + 1))
        by_lsn = {r["lsn"]: r["id"] for r in records}
        for t, lsns in enumerate(acked):
            assert lsns == sorted(lsns)
            assert [by_lsn[lsn] for lsn in lsns] == [
                f"t{t}-{i}" for i in range(per_thread)
            ]

    @pytest.mark.parametrize(
        "fault, on_disk",
        [
            pytest.param(Fault.drop(), ["acked"], id="boundary-drop"),
            pytest.param(Fault.slow(9), ["acked"], id="torn"),
            pytest.param(Fault.error(), ["acked", "unacked"], id="durable-unacked"),
        ],
    )
    def test_reopened_log_resumes_past_what_the_crash_left(
        self, tmp_path, fault, on_disk
    ):
        """A record written but never acknowledged is replayed, so its
        LSN is never issued again; an LSN that never reached the file
        is, since no reader can have seen it."""
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(
            path, faults=FaultInjector(schedule=[Fault.none(), fault])
        )
        wal.append("remove", kind="paragraph", id="acked")
        with pytest.raises(SimulatedCrash):
            wal.append("remove", kind="paragraph", id="unacked")
        wal.close()
        reopened = WriteAheadLog(path)
        assert [r["id"] for r in reopened.recovered_records] == on_disk
        assert reopened.last_lsn == len(on_disk)
        assert reopened.append("remove", kind="paragraph", id="next") == (
            len(on_disk) + 1
        )
        reopened.close()

    def test_public_appends_do_not_call_each_other(self, tmp_path):
        """A tracer wraps ``append`` and ``append_payload`` on the
        instance; each journaled mutation must pass exactly one wrapper,
        or the traced spans nest."""
        durable = DurableEngine(tmp_path, config=TINY_CONFIG)
        calls = []
        for name in ("append", "append_payload"):
            def traced(*args, _inner=getattr(durable.wal, name), _name=name,
                       **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            setattr(durable.wal, name, traced)
        durable.observe("a", SECRET_TEXT)
        durable.set_threshold("a", 0.3)
        durable.remove("a")
        durable.close()
        assert calls == ["append_payload", "append", "append"]
        assert [r["op"] for r in wal_records(tmp_path / WAL_NAME)] == [
            "observe", "threshold", "remove",
        ]


class TestSingleLog:
    """A durable directory holds its snapshot and one log, ``wal.log``."""

    def test_directory_holds_one_log(self, tmp_path):
        durable = DurableEngine(
            tmp_path, config=TINY_CONFIG, fsync="always", compact_every=2
        )
        for i, text in enumerate((SECRET_TEXT, OTHER_TEXT, SECRET_TEXT)):
            durable.observe(f"s{i}", text)
        durable.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot.bin", WAL_NAME,
        ]
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert sorted(recovered.segment_db.ids()) == ["s0", "s1", "s2"]
        finally:
            recovered.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot.bin", WAL_NAME,
        ]

    def test_leftover_rotation_file_is_not_a_shard(self, tmp_path):
        """A crash inside :meth:`WriteAheadLog.rotate`, before the swap,
        leaves ``wal.log.rotate.tmp``: recovery reads past it, and the
        next rotation replaces it."""
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("a", SECRET_TEXT)
        durable.close()
        leftover = tmp_path / f"{WAL_NAME}.rotate.tmp"
        leftover.write_bytes(MAGIC + TORN_TAIL)
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert recovered.segment_db.ids() == ["a"]
            assert recovered.recovery.replayed == 1
            recovered.compact()
        finally:
            recovered.close()
        assert not leftover.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snapshot.bin", WAL_NAME,
        ]


class TestFixedVectors:
    """One plain and one sealed record, pinned byte for byte: a change
    to the format must change these on purpose."""

    def test_plain_observe_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME)
        wal.append(
            "observe", kind="paragraph", id="ség", doc_id=None,
            threshold=0.4, ts=3.0,
            selections=array("Q", [0x1234, 0, 15, 0xFFFFFFFF, 2, 17]).tobytes(),
        )
        wal.close()
        expected = bytes.fromhex("".join((
            "67000000",  # payload length 103
            "7b97dcc0",  # crc32(payload)
            "00",  # plain
            "0100000000000000",  # lsn 1
            "01",  # op observe
            "9a9999999999d93f",  # threshold 0.4
            "0000000000000840",  # ts 3.0
            "09000000" "706172616772617068",  # kind "paragraph"
            "04000000" "73c3a967",  # id "ség" in UTF-8
            "ffffffff",  # doc_id None
            "30000000",  # 48 bytes of selections: two triples
            "3412000000000000" "0000000000000000" "0f00000000000000",
            "ffffffff00000000" "0200000000000000" "1100000000000000",
        )))
        assert (tmp_path / WAL_NAME).read_bytes() == MAGIC + expected
        assert MAGIC == b"BFWAL2\n"
        (record,) = wal_records(tmp_path / WAL_NAME)
        assert record == {
            "lsn": 1, "op": "observe", "kind": "paragraph", "id": "ség",
            "doc_id": None, "threshold": 0.4, "ts": 3.0,
            "selections": array(
                "Q", [0x1234, 0, 15, 0xFFFFFFFF, 2, 17]
            ).tobytes(),
        }

    def test_sealed_remove_record(self, tmp_path):
        cipher = UploadCipher("log-key")
        wal = WriteAheadLog(tmp_path / WAL_NAME, cipher=cipher)
        wal.append("remove", kind="paragraph", id="x")
        wal.close()
        expected = bytes.fromhex(
            "37000000"  # payload length 55
            "abfc576a"  # crc32(payload)
            "01"  # sealed
            "fbe230b11d4352f1e90db696"  # nonce
            "de9eb4c888306fc7eb24e944cfc816adf764be00e4ce415ee0ffa50e4992"
            "e48d45c0eb328c6d33c359da"
        )
        assert (tmp_path / WAL_NAME).read_bytes() == MAGIC + expected
        # The sealed bytes are encrypt_bytes(crc32(plain) || plain).
        inner = cipher.decrypt_bytes(expected[9:])
        plain = inner[4:]
        assert int.from_bytes(inner[:4], "little") == zlib.crc32(plain)
        assert plain == _HEAD.pack(1, OP_CODES["remove"]) + (
            b'{"id":"x","kind":"paragraph"}'
        )
        assert wal_records(tmp_path / WAL_NAME, cipher) == [
            {"lsn": 1, "op": "remove", "kind": "paragraph", "id": "x"}
        ]


class TestSwappedByteOrder:
    """A big-endian host byte-swaps an observe's selections on their way
    into the log and back out. Forcing the swap on here runs both legs:
    the log holds each 8-byte value reversed, and the scan and recovery
    return the fingerprint's own bytes."""

    def test_observe_selections_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "_LITTLE_ENDIAN", False)
        durable = DurableEngine(tmp_path, config=TINY_CONFIG)
        record = durable.observe("a", SECRET_TEXT, threshold=0.4)
        durable.close()
        flat = record.fingerprint.flat_selections
        assert len(flat) > 24
        _offset, payload = frames((tmp_path / WAL_NAME).read_bytes())[-1]
        assert payload[-len(flat):] == b"".join(
            flat[at:at + 8][::-1] for at in range(0, len(flat), 8)
        )
        (logged,) = wal_records(tmp_path / WAL_NAME)
        assert logged["selections"] == flat
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert recovered.recovery.replayed == 1
            fingerprint = recovered.segment_db.get("a").fingerprint
            assert fingerprint.flat_selections == flat
            assert fingerprint.hashes == record.fingerprint.hashes
        finally:
            recovered.close()


class TestJournalHooks:
    """Engine mutations translate 1:1 into WAL records."""

    def journaled_engine(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME, fsync="always")
        engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
        engine.attach_journal(EngineJournal(wal))
        return wal, engine

    def test_observe_record_carries_replayable_state(self, tmp_path):
        wal, engine = self.journaled_engine(tmp_path)
        record = engine.observe("a", SECRET_TEXT, threshold=0.4, doc_id="d")
        wal.close()
        (logged,) = wal_records(tmp_path / "wal.log")
        assert logged["op"] == "observe"
        assert logged["kind"] == "paragraph"
        assert logged["id"] == "a"
        assert logged["threshold"] == 0.4
        assert logged["doc_id"] == "d"
        assert logged["ts"] == record.last_updated
        # The record carries the fingerprint's packed selections as they
        # are; the hash set is not repeated: it is exactly the selection
        # values, and replay derives it from them.
        assert "hashes" not in logged
        assert logged["selections"] == record.fingerprint.flat_selections
        assert frozenset(
            memoryview(logged["selections"]).cast("Q")[0::3]
        ) == record.fingerprint.hashes

    def test_journal_and_append_write_the_same_bytes(self, tmp_path):
        """The journal packs an observe itself and hands it to
        ``append_payload``; ``append("observe", ...)`` with the same
        fields writes the same bytes, so readers cannot tell which path
        wrote a record."""
        wal, engine = self.journaled_engine(tmp_path)
        written = [
            engine.observe("ség \"quoted\"\n", SECRET_TEXT, threshold=0.4,
                           doc_id="döc\ttab"),
            engine.observe("plain", OTHER_TEXT),  # doc_id None
        ]
        wal.close()
        other = WriteAheadLog(tmp_path / "other.log", fsync="always")
        for record in written:
            other.append(
                "observe", kind="paragraph", id=record.segment_id,
                doc_id=record.doc_id, threshold=record.threshold,
                ts=record.last_updated,
                selections=record.fingerprint.flat_selections,
            )
        other.close()
        assert (tmp_path / "other.log").read_bytes() == (
            tmp_path / WAL_NAME
        ).read_bytes()

    def test_remove_and_threshold_logged(self, tmp_path):
        wal, engine = self.journaled_engine(tmp_path)
        engine.observe("a", SECRET_TEXT)
        engine.set_threshold("a", 0.7)
        engine.remove("a")
        wal.close()
        ops = [r["op"] for r in wal_records(tmp_path / "wal.log")]
        assert ops == ["observe", "threshold", "remove"]

    def test_detach_stops_journaling(self, tmp_path):
        wal, engine = self.journaled_engine(tmp_path)
        engine.observe("a", SECRET_TEXT)
        engine.detach_journal()
        engine.observe("b", OTHER_TEXT)
        wal.close()
        assert [r["id"] for r in wal_records(tmp_path / "wal.log")] == ["a"]

    def test_replay_refuses_journaled_engine(self, tmp_path):
        wal, engine = self.journaled_engine(tmp_path)
        record = {"lsn": 1, "op": "remove", "kind": "paragraph", "id": "a"}
        with pytest.raises(DisclosureError):
            apply_record(record, lambda _k: engine)
        wal.close()

    def test_replayed_observe_does_not_advance_clock(self, tmp_path):
        wal, engine = self.journaled_engine(tmp_path)
        engine.observe("a", SECRET_TEXT)
        wal.close()
        replica = DisclosureEngine(TINY_CONFIG, LogicalClock())
        replay_records(wal_records(tmp_path / "wal.log"), lambda _k: replica)
        assert replica.segment_db.get("a").last_updated == (
            engine.segment_db.get("a").last_updated
        )
        assert replica._clock.now() == 0.0  # untouched by replay


class TestDurableEngineLifecycle:
    def test_compaction_bounds_log_and_preserves_state(self, tmp_path):
        durable = DurableEngine(
            tmp_path, config=TINY_CONFIG, compact_every=2, fsync="always"
        )
        durable.observe("a", SECRET_TEXT, threshold=0.4)
        durable.observe("b", OTHER_TEXT, threshold=0.4)  # triggers compact
        durable.observe("c", SECRET_TEXT, threshold=0.4)
        durable.close()
        assert durable.snapshot_path.exists()
        ops = [r["op"] for r in wal_records(tmp_path / WAL_NAME)]
        assert ops == ["compact", "observe"]  # log bounded by the fold
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        assert sorted(recovered.segment_db.ids()) == ["a", "b", "c"]
        assert recovered.recovery.snapshot_lsn == 2
        assert recovered.recovery.replayed == 1
        recovered.close()

    def test_manual_compact_returns_lsn_stamp(self, tmp_path):
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("a", SECRET_TEXT)
        assert durable.compact() == 1
        assert read_snapshot(durable.snapshot_path)["wal_lsn"] == 1
        durable.close()

    def test_expire_journals_marker_and_removes(self, tmp_path):
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("old", SECRET_TEXT)
        durable.observe("new", OTHER_TEXT)
        assert durable.expire(older_than=1.0) == ["old"]
        durable.close()
        ops = [r["op"] for r in wal_records(tmp_path / WAL_NAME)]
        assert ops == ["observe", "observe", "remove", "expire"]
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        assert recovered.segment_db.ids() == ["new"]
        recovered.close()

    def test_invalid_compact_every(self, tmp_path):
        with pytest.raises(ValueError):
            DurableEngine(tmp_path, config=TINY_CONFIG, compact_every=0)

    def test_concurrent_mutations_during_compaction_survive(self, tmp_path):
        """Compaction holds the engine lock across snapshot *and*
        rotation: an observe acknowledged between the two would
        otherwise be discarded with the old log file — an acknowledged,
        journaled write lost on the next recovery."""
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="never")
        errors = []
        acked = []

        def writer(idx):
            try:
                for i in range(15):
                    segment_id = f"w{idx}-{i}"
                    durable.observe(
                        segment_id,
                        SECRET_TEXT if i % 2 else OTHER_TEXT,
                        threshold=0.5,
                    )
                    acked.append(segment_id)
            except Exception as exc:  # pragma: no cover - regression path
                errors.append(exc)

        def compactor():
            try:
                for _ in range(8):
                    durable.compact()
            except Exception as exc:  # pragma: no cover - regression path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(0,)),
            threading.Thread(target=writer, args=(1,)),
            threading.Thread(target=compactor),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        durable.close()
        assert errors == []
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert sorted(recovered.segment_db.ids()) == sorted(acked)
        finally:
            recovered.close()

    def test_metrics_exposed(self, tmp_path):
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("a", SECRET_TEXT)
        snapshot = durable.registry.snapshot()
        assert snapshot["wal.appends"] == 1
        assert snapshot["wal.fsyncs"] >= 1
        durable.close()

    def test_durability_health_after_compaction_and_recovery(self, tmp_path):
        """The compaction-duration histogram and the snapshot-bytes gauge
        are populated by one compaction, the gauge and the recovery
        duration by one recovery. The log-size gauge follows the file
        through appends, a rotation and a reopen, and the fsync
        histogram counts each fsync of the log, not each append."""
        path = tmp_path / WAL_NAME
        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync_interval=2)
        snapshot = durable.registry.snapshot()
        assert snapshot["wal.snapshot_bytes"] == 0
        assert snapshot["wal.log_bytes"] == len(MAGIC) == path.stat().st_size
        assert snapshot["wal.fsync_seconds"]["count"] == 0
        durable.observe("a", SECRET_TEXT)
        durable.observe("b", OTHER_TEXT)
        durable.observe("c", THIRD_TEXT)
        snapshot = durable.registry.snapshot()
        assert snapshot["wal.log_bytes"] == path.stat().st_size > len(MAGIC)
        # Three appends, one batch fsync at the second.
        assert snapshot["wal.fsync_seconds"]["count"] == 1
        assert snapshot["wal.fsync_seconds"]["count"] == snapshot["wal.fsyncs"]
        durable.compact()
        size = durable.snapshot_path.stat().st_size
        snapshot = durable.registry.snapshot()
        assert snapshot["wal.compact_seconds"]["count"] == 1
        assert snapshot["wal.compact_seconds"]["sum"] > 0
        assert snapshot["wal.snapshot_bytes"] == size > 0
        # The rotated log holds its magic and the compact record.
        assert snapshot["wal.log_bytes"] == path.stat().st_size
        assert len(wal_records(path)) == 1
        durable.wal.sync()
        snapshot = durable.registry.snapshot()
        assert snapshot["wal.fsync_seconds"]["count"] == 2 == snapshot["wal.fsyncs"]
        assert snapshot["wal.fsync_seconds"]["sum"] > 0
        durable.observe("d", SECRET_TEXT + " " + OTHER_TEXT)
        durable.close()
        log_size = path.stat().st_size
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert recovered.recovery.seconds > 0
            snapshot = recovered.registry.snapshot()
            assert snapshot["wal.snapshot_bytes"] == size
            assert snapshot["wal.log_bytes"] == log_size == recovered.wal.size
        finally:
            recovered.close()


class _Record(dict):
    """A decoded record that can be weakly referenced (a plain dict
    cannot, and one holding only bytes, strings and numbers is not even
    tracked by the collector)."""


class TestRecoveryStats:
    def test_recovered_engine_keeps_no_decoded_record(
        self, tmp_path, monkeypatch
    ):
        """Recovery takes the records the log decoded at open and
        releases them once replayed: a recovered engine does not hold
        its log for its whole life."""
        durable = DurableEngine(tmp_path, config=TINY_CONFIG)
        for i in range(300):
            durable.observe(f"s{i}", f"{SECRET_TEXT} {i}")
        durable.close()
        decoded = []

        def scan(path, **kwargs):
            records, good, torn = scan_wal_file(path, **kwargs)
            records = [_Record(record) for record in records]
            decoded.extend(weakref.ref(record) for record in records)
            return records, good, torn

        monkeypatch.setattr(wal_module, "scan_wal_file", scan)
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert recovered.recovery.replayed == 300
            assert recovered.wal.recovered_records == []
            gc.collect()
            assert len(decoded) == 300
            assert [ref for ref in decoded if ref() is not None] == []
        finally:
            recovered.close()

    def test_torn_bytes_per_recovery_on_a_shared_registry(self, tmp_path):
        """Two recoveries on one registry, each cutting a 10-byte torn
        tail, report 10 each; the registry counter sums them."""
        registry = MetricsRegistry()
        for expected_total in (10, 20):
            durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
            durable.observe(f"s{expected_total}", SECRET_TEXT)
            durable.close()
            with open(tmp_path / WAL_NAME, "ab") as handle:
                handle.write(b"\x00" * 10)
            recovered = DurableEngine(
                tmp_path, config=TINY_CONFIG, registry=registry
            )
            try:
                assert recovered.recovery.torn_bytes == 10
                assert (
                    registry.snapshot()["wal.torn_bytes_truncated"]
                    == expected_total
                )
            finally:
                recovered.close()


class TestShardedDirectoryRefused:
    """A directory an older build journaled to sharded logs is refused
    before any log opens, every byte left as it was: this build keeps
    one log and merges none."""

    @pytest.mark.parametrize("layout", SHARDED_LAYOUTS)
    @pytest.mark.parametrize("open_dir", ["durable-engine", "log-shipper"])
    def test_refused_untouched(self, tmp_path, layout, open_dir):
        before = sharded_directory(tmp_path, layout)
        shard_logs = [f"wal.{i}.log" for i in SHARD_LOGS[layout]]
        if shard_logs:
            # Checked before the snapshot: the files name what a
            # recovery from wal.log alone would drop.
            error, names = WALCorrupt, shard_logs
        else:
            error, names = DisclosureError, [str(tmp_path / "snapshot.bin")]
        with pytest.raises(error) as exc_info:
            if open_dir == "durable-engine":
                DurableEngine(tmp_path, config=TINY_CONFIG)
            else:
                LogShipper(tmp_path)
        for name in names:
            assert name in str(exc_info.value)
        # Byte-identical, torn tails included: no log was opened.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert all(
            blob.endswith(TORN_TAIL)
            for name, blob in before.items() if name.endswith(".log")
        )

    def test_a_snapshot_recording_one_shard_recovers(self, tmp_path):
        """Directories this build's predecessor compacted at one shard
        carry ``wal_shards: 1`` and still recover."""
        from repro.disclosure.persistence import encode_snapshot

        durable = DurableEngine(tmp_path, config=TINY_CONFIG, fsync="always")
        durable.observe("a", SECRET_TEXT)
        durable.compact()
        durable.observe("b", OTHER_TEXT)
        durable.close()
        data = read_snapshot(durable.snapshot_path)
        assert "wal_shards" not in data
        data["wal_shards"] = 1
        durable.snapshot_path.write_bytes(encode_snapshot(data))
        recovered = DurableEngine(tmp_path, config=TINY_CONFIG)
        try:
            assert sorted(recovered.segment_db.ids()) == ["a", "b"]
        finally:
            recovered.close()
