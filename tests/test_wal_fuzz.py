"""Decoder robustness: damaged ``BFWAL2`` logs are cut or refused.

Hypothesis damages a valid log, plain and sealed: it truncates it at
any byte, flips any byte, rewrites any frame length, writes a record
that passes its checksum but whose body is malformed (an unknown op
code, a short head, a text or the selections running past the end,
selections that are not whole 24-byte triples), and reads a sealed log
with no key or the wrong one. Every case must either scan to a prefix
of the records written — never a record from the damage on — with the
cut counted in ``wal.torn_bytes_truncated``, or raise
:class:`~repro.errors.WALCorrupt` with the file left as it was. No other
exception may escape. A length field rewritten inside a record, its
checksums made right again, must be refused the same way, or read as
another well-formed record beside the others as written; such a record
is never cut.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disclosure import DisclosureEngine
from repro.disclosure.wal import MAGIC, EngineJournal, WriteAheadLog, scan_wal_file
from repro.errors import WALCorrupt
from repro.fingerprint.config import TINY_CONFIG
from repro.obs.registry import MetricsRegistry
from repro.plugin.crypto import UploadCipher
from repro.util.clock import LogicalClock

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT

CIPHER = UploadCipher("fuzz-key")
EXAMPLES = settings(max_examples=60, deadline=None)

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_HEAD = struct.Struct("<QB")  # lsn, op code
_OBSERVE = struct.Struct("<dd")  # threshold, ts
_LENGTH = struct.Struct("<I")
_NONE = 0xFFFFFFFF  # the text length that spells None


def frames(blob: bytes) -> List[Tuple[int, int]]:
    """``(start, end)`` of every whole record of an intact log."""
    out = []
    offset = len(MAGIC)
    while offset < len(blob):
        (length,) = _LENGTH.unpack_from(blob, offset)
        out.append((offset, offset + _FRAME.size + length))
        offset += _FRAME.size + length
    return out


def observe_lengths(plain: bytes) -> List[int]:
    """Offsets of the four length fields (kind, id, doc_id, selections)
    of a plain observe record."""
    at = _HEAD.size + _OBSERVE.size
    offsets = []
    for _field in range(4):
        offsets.append(at)
        (length,) = _LENGTH.unpack_from(plain, at)
        at += _LENGTH.size + (0 if length == _NONE else length)
    return offsets


@dataclass
class Log:
    """A written log: its bytes, its records and where each one lies."""

    blob: bytes
    records: List[dict]
    frames: List[Tuple[int, int]]
    cipher: Optional[UploadCipher]

    def whole_before(self, offset: int) -> int:
        """How many records end at or before byte *offset*."""
        return sum(1 for _start, end in self.frames if end <= offset)

    def plain(self, start: int, end: int) -> bytes:
        """The plain record framed at ``[start, end)``, unsealed."""
        payload = self.blob[start + _FRAME.size:end]
        if self.cipher is None:
            return payload[1:]
        return self.cipher.decrypt_bytes(payload[1:])[_LENGTH.size:]


def written_log(directory, cipher) -> Log:
    """Every op: observes with and without a document (one id outside
    ASCII), a threshold, a remove, expire and suppress markers, after a
    rotation's compact record."""
    path = directory / ("sealed.log" if cipher else "plain.log")
    wal = WriteAheadLog(path, fsync="never", cipher=cipher)
    engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
    journal = EngineJournal(wal)
    engine.attach_journal(journal)
    engine.observe("old", THIRD_TEXT)
    wal.rotate(wal.last_lsn)
    engine.observe("a", SECRET_TEXT, threshold=0.4, doc_id="docA")
    engine.observe("bé", OTHER_TEXT)
    engine.set_threshold("a", 0.6)
    engine.remove("bé")
    journal.log_expire("paragraph", 1.0, ["old"])
    journal.log_suppress(
        user="u", tag="t", segment_id="a", justification="j", timestamp=9.0,
    )
    engine.observe("c", THIRD_TEXT + " " + SECRET_TEXT, doc_id="docC")
    wal.close()
    blob = path.read_bytes()
    records, _good, torn = scan_wal_file(path, cipher=cipher)
    assert torn == 0 and len(records) == 8
    return Log(blob, records, frames(blob), cipher)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("logs")
    return {
        "plain": written_log(directory, None),
        "sealed": written_log(directory, CIPHER),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def open_damaged(workdir, blob: bytes, cipher) -> Optional[List[dict]]:
    """Open a log of *blob* as recovery does. Returns the records it
    kept, after checking that the file was cut to them and the cut
    counted; None when it raised WALCorrupt, after checking that the
    file is untouched."""
    path = workdir / "wal.log"
    path.write_bytes(bytes(blob))
    registry = MetricsRegistry()
    try:
        wal = WriteAheadLog(
            path, fsync="never", cipher=cipher, scope=registry.scope("wal."),
        )
    except WALCorrupt:
        assert path.read_bytes() == bytes(blob)
        return None
    records = wal.take_recovered_records()
    size = wal.size
    wal.close()
    kept = path.read_bytes()
    assert len(kept) == size
    if blob:
        assert bytes(blob).startswith(kept)
        cut = len(blob) - len(kept)
    else:
        assert kept == MAGIC  # an empty file opens as a new log
        cut = 0
    assert registry.snapshot()["wal.torn_bytes_truncated"] == cut
    assert wal.torn_bytes == cut
    return records


def assert_prefix(log: Log, records, damage_at: int) -> None:
    """*records* are the records written before *damage_at*, or None."""
    if records is None:
        return
    assert records == log.records[:len(records)]
    assert len(records) <= log.whole_before(damage_at)


kinds = st.sampled_from(["plain", "sealed"])


class TestDamagedLogs:
    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_truncated_at_any_byte(self, workdir, logs, kind, data):
        log = logs[kind]
        cut = data.draw(st.integers(0, len(log.blob) - 1), label="cut")
        records = open_damaged(workdir, log.blob[:cut], log.cipher)
        if cut >= len(MAGIC):
            # A cut is tail damage: every whole record before it stays.
            assert records == log.records[:log.whole_before(cut)]
        else:
            assert records == ([] if cut == 0 else None)

    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_any_byte_flipped(self, workdir, logs, kind, data):
        log = logs[kind]
        blob = bytearray(log.blob)
        index = data.draw(st.integers(0, len(blob) - 1), label="index")
        blob[index] ^= data.draw(st.integers(1, 255), label="mask")
        records = open_damaged(workdir, blob, log.cipher)
        assert_prefix(log, records, index)
        if index >= len(MAGIC):
            # The checksum catches every flip inside a record.
            assert records == log.records[:log.whole_before(index)]

    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_any_frame_length_rewritten(self, workdir, logs, kind, data):
        log = logs[kind]
        blob = bytearray(log.blob)
        start, end = data.draw(st.sampled_from(log.frames), label="record")
        old = end - start - _FRAME.size
        new = data.draw(
            st.integers(0, 2**32 - 1).filter(lambda n: n != old), label="length"
        )
        blob[start:start + 4] = _LENGTH.pack(new)
        assert_prefix(log, open_damaged(workdir, blob, log.cipher), start)

    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_any_field_length_rewritten(self, workdir, logs, kind, data):
        """Inside an observe record, with its checksums made right again,
        so only the decoder's own checks stand in the way. The record is
        refused whole, or, where the rewrite spells another well-formed
        record (a doc_id of None read as ""), kept whole beside every
        other record as written; it is never cut as a torn tail."""
        log = logs[kind]
        observes = [
            index for index, record in enumerate(log.records)
            if record["op"] == "observe"
        ]
        index = data.draw(st.sampled_from(observes), label="record")
        start, end = log.frames[index]
        plain = bytearray(log.plain(start, end))
        at = data.draw(st.sampled_from(observe_lengths(plain)), label="field")
        (old,) = _LENGTH.unpack_from(plain, at)
        new = data.draw(
            st.one_of(
                st.integers(0, len(plain)), st.just(_NONE),
                st.integers(0, 2**32 - 1),
            ).filter(lambda n: n != old),
            label="length",
        )
        plain[at:at + 4] = _LENGTH.pack(new)
        blob = log.blob[:start] + framed(bytes(plain), log.cipher) + log.blob[end:]
        records = open_damaged(workdir, blob, log.cipher)
        if records is not None:
            assert len(records) == len(log.records)
            kept = records.pop(index)
            assert records == log.records[:index] + log.records[index + 1:]
            # The decoder read the rewritten bytes whole, as they spell.
            assert observe_bytes(kept) == bytes(plain)


def framed(plain: bytes, cipher) -> bytes:
    """*plain* as the log frames it, checksums right, sealed with *cipher*."""
    if cipher is None:
        payload = b"\x00" + plain
    else:
        payload = b"\x01" + cipher.encrypt_bytes(
            _LENGTH.pack(zlib.crc32(plain)) + plain
        )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def observe_bytes(record: dict) -> bytes:
    """The plain bytes of an observe *record*, as the format spells it."""
    def text(value):
        if value is None:
            return _LENGTH.pack(_NONE)
        data = value.encode()
        return _LENGTH.pack(len(data)) + data

    selections = record["selections"]
    return (
        _HEAD.pack(record["lsn"], 1)
        + _OBSERVE.pack(record["threshold"], record["ts"])
        + b"".join(text(record[key]) for key in ("kind", "id", "doc_id"))
        + _LENGTH.pack(len(selections)) + selections
    )


def observe_plain(lsn: int, *, texts=("paragraph", "id", None), triples=1) -> bytes:
    kind, segment_id, doc_id = texts
    return observe_bytes({
        "lsn": lsn, "threshold": 0.5, "ts": 1.0, "kind": kind,
        "id": segment_id, "doc_id": doc_id,
        "selections": array("Q", range(3 * triples)).tobytes(),
    })


def malformed_bodies():
    """Plain records that decode to nothing, each passing its checksum."""
    unknown_op = st.builds(
        lambda code, tail: _HEAD.pack(99, code) + tail,
        st.integers(0, 255).filter(lambda code: not 1 <= code <= 6),
        st.binary(max_size=16),
    )
    short_head = st.binary(max_size=_HEAD.size - 1)

    def run_past_end(field, extra):
        plain = bytearray(observe_plain(99, texts=("paragraph", "id", "doc")))
        at = _HEAD.size + _OBSERVE.size
        for _field in range(field):
            (length,) = _LENGTH.unpack_from(plain, at)
            at += _LENGTH.size + length
        remain = len(plain) - at - _LENGTH.size
        plain[at:at + 4] = _LENGTH.pack(min(remain + extra, 0xFFFFFFFE))
        return bytes(plain)

    past_end = st.builds(
        run_past_end, st.integers(0, 3), st.integers(1, 2**32)
    )

    def ragged(triples, trim):
        plain = observe_plain(99, triples=triples)
        size = 24 * triples - trim
        body = plain[:-(24 * triples) - _LENGTH.size]
        return body + _LENGTH.pack(size) + plain[-(24 * triples):][:size]

    not_triples = st.builds(
        ragged, st.integers(1, 4), st.integers(1, 23)
    )
    return st.one_of(unknown_op, short_head, past_end, not_triples)


class TestMalformedBodies:
    """Records a crash cannot make: their checksum holds, their body
    does not decode. Recovery refuses them instead of cutting them (and
    every acknowledged record after them) as a torn tail."""

    @EXAMPLES
    @given(kind=kinds, plain=malformed_bodies(), data=st.data())
    def test_refused_wherever_it_lies(self, workdir, logs, kind, plain, data):
        log = logs[kind]
        at = data.draw(
            st.sampled_from([start for start, _end in log.frames] + [len(log.blob)]),
            label="at",
        )
        blob = log.blob[:at] + framed(plain, log.cipher) + log.blob[at:]
        assert open_damaged(workdir, blob, log.cipher) is None

    def test_the_generators_build_decodable_records(self, workdir):
        """The bodies above are damaged forms of records that decode."""
        blob = MAGIC + framed(observe_plain(1, texts=("paragraph", "id", "doc")), None)
        records = open_damaged(workdir, blob, None)
        assert [r["id"] for r in records] == ["id"]


class TestKeys:
    @EXAMPLES
    @given(key=st.text(min_size=1, max_size=12).filter(lambda k: k != "fuzz-key"))
    def test_wrong_key_refused(self, workdir, logs, key):
        log = logs["sealed"]
        assert open_damaged(workdir, log.blob, UploadCipher(key)) is None

    def test_no_key_refused(self, workdir, logs):
        assert open_damaged(workdir, logs["sealed"].blob, None) is None

    def test_right_key_reads_every_record(self, workdir, logs):
        log = logs["sealed"]
        assert open_damaged(workdir, log.blob, CIPHER) == log.records
