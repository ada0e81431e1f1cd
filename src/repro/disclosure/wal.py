"""Write-ahead logging, compaction, crash recovery, and standby catch-up.

The snapshot persistence of :mod:`repro.disclosure.persistence` makes
§4.4's long-term fingerprint store durable only at snapshot boundaries:
everything observed since the last save dies with the process. This
module closes that gap with a write-ahead log (the ROADMAP's
"durability and restart at scale" item):

* every engine mutation (observe / remove / set_threshold, plus expiry
  sweeps and policy suppressions) is appended to an append-only log of
  length-prefixed, CRC-checksummed binary records *before* the caller
  is acknowledged;
* periodic **compaction** folds the log into an atomic snapshot
  (stamped with the last folded log sequence number) and rotates the
  log, bounding both file size and recovery time;
* **recovery** loads the snapshot, replays the log tail (records with
  ``lsn`` beyond the snapshot's stamp), truncates any torn final
  record, and resumes the logical clock past every recorded timestamp —
  reconstructing the pre-crash engine field-for-field;
* a **standby** catches up by log shipping: :class:`LogShipper` reads
  the primary's log tail past a cursor, and
  :class:`~repro.plugin.server.StandbyLookupServer` applies it to a
  warm replica that can serve Algorithm 1 verdicts the moment the
  primary dies.

Crash points are injected deterministically through the existing
:class:`~repro.util.faults.FaultInjector` — one fault decision per
append, mapped onto crash semantics (see :meth:`WriteAheadLog.append`)
— so the recovery matrix covers crashes at record boundaries, torn
mid-record writes, and written-but-unacknowledged records without
sleeps or subprocesses.

File format (one log file; every integer little-endian)::

    file    := MAGIC record*
    MAGIC   := b"BFWAL2\\n"
    record  := length:u32 crc32:u32 payload[length]
    payload := 0x00 plain | 0x01 encrypt_bytes(crc32(plain):u32 plain)
    plain   := lsn:u64 op:u8 body
    body    := threshold:f64 ts:f64 text(kind) text(id) text(doc_id)
               selections:u32 flat_selections     (op observe)
             | compact key-sorted JSON object      (every other op)
    text    := length:u32 utf8[length]             (0xFFFFFFFF: None)

``lsn`` is strictly increasing; ``op`` is a code (:data:`OP_CODES`).
An ``observe`` record carries the fingerprint's packed selections as
they are, ``(value, start, end)`` triples of u64, the layout of a
snapshot's ``selections`` section: journaling appends those bytes and
replay hands them straight to :class:`~repro.fingerprint.Fingerprint`.
The rarer ops keep their other fields as JSON, so a new op needs only a
new code. With a cipher the plain record is sealed with the same
at-rest encryption as snapshots (§4.4); the inner CRC is what tells a
wrong key from a right one, since decryption itself cannot fail.

A record whose length or frame checksum fails marks the torn tail, and
so does a zero length (zeros a crash left where the file grew):
everything before it is kept, it and everything after is discarded (and
the file truncated back to the last good record). A record that passes
its checksum but does not decode — a wrong key, a sealed record with no
cipher, an unknown op code, a body cut short or running on — is not
damage a crash can cause, and raises :class:`~repro.errors.WALCorrupt`
before anything is truncated; so does a ``BFWAL1`` log, whose records
were JSON.

A durable directory holds exactly one log, ``wal.log``, whatever the
shard count of the engine it journals. Older builds could shard the
log into ``wal.<i>.log`` files; a directory holding one of those, or a
snapshot that records a ``wal_shards`` other than 1, is refused before
any log opens (:func:`_refuse_sharded`), with every byte left as it was.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.disclosure.engine import DisclosureEngine
from repro.disclosure.persistence import (
    _fsync_directory,
    _max_timestamp,
    read_snapshot,
    restore_into,
    save_engine,
    swap_bytes,
)
from repro.disclosure.store import SegmentRecord
from repro.errors import (
    DisclosureError,
    SimulatedCrash,
    SnapshotCorrupt,
    UnknownSegmentError,
    WALCorrupt,
)
from repro.fingerprint import Fingerprint, FingerprintConfig
from repro.obs.registry import MetricsRegistry, MetricsScope
from repro.plugin.crypto import UploadCipher
from repro.util.clock import LogicalClock
from repro.util.faults import FaultInjector

#: Log file magic; bump the digit on incompatible format changes.
MAGIC = b"BFWAL2\n"
#: The magic of the JSON-record logs of earlier builds, refused by name.
LEGACY_MAGIC = b"BFWAL1\n"

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_HEAD = struct.Struct("<QB")  # lsn, op code
_OBSERVE = struct.Struct("<dd")  # threshold, ts
_LENGTH = struct.Struct("<I")  # a text's or the selections' byte length
_NONE = 0xFFFFFFFF  # the text length that spells None
_TRIPLE = 24  # bytes of one (value, start, end) selection

#: The first byte of a payload: a plain record follows, or a sealed one.
_PLAIN, _SEALED = 0, 1
_PLAIN_BYTE = bytes((_PLAIN,))
_PLAIN_CRC = zlib.crc32(_PLAIN_BYTE)  # crc32 continues from it over plain

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Allowed fsync policies: ``"always"`` fsyncs every append (maximum
#: durability), ``"batch"`` fsyncs every ``fsync_interval`` appends
#: (the default; bounded loss window), ``"never"`` leaves flushing to
#: the OS (fastest; loss window unbounded). All three policies flush
#: Python's buffer on every append so a concurrent reader (the log
#: shipper) always sees whole records.
FSYNC_POLICIES = ("always", "batch", "never")

#: Default ``fsync_interval`` for the batch policy. An fsync costs a
#: third of a millisecond on commodity hardware — several times the
#: record encode itself — so the default amortises it over a window of
#: 64 acknowledged ops; ``close()``/``sync()`` always flush the window.
#: Deployments wanting a tighter loss bound turn the knob down.
DEFAULT_FSYNC_INTERVAL = 64

#: Operations a log record may carry, with the code that names each in
#: a record's head (codes are never reused). ``observe`` / ``remove`` /
#: ``threshold`` mutate engine state on replay; ``expire`` and
#: ``suppress`` are informational markers (the removes of an expiry
#: sweep are journaled individually; suppressions replicate the audit
#: obligation to a standby); ``compact`` opens a rotated log and pins
#: the snapshot LSN it follows.
OP_CODES = {
    "observe": 1, "remove": 2, "threshold": 3, "expire": 4, "suppress": 5,
    "compact": 6,
}
_OP_NAMES = {code: op for op, code in OP_CODES.items()}
_OBSERVE_CODE = OP_CODES["observe"]

#: File names inside a durable engine's directory.
SNAPSHOT_NAME = "snapshot.bin"
WAL_NAME = "wal.log"
#: Where directories compacted before snapshot format 4 kept their
#: JSON snapshot; recovery refuses a directory that still holds one.
LEGACY_SNAPSHOT_NAME = "snapshot.json"


def _refuse_sharded(directory: Path, snapshot: Optional[dict]) -> None:
    """Refuse a directory that an older build journaled to sharded logs.

    Such a directory holds ``wal.<i>.log`` files, or a *snapshot* whose
    ``wal_shards`` records how many there were. Recovering from
    ``wal.log`` alone would drop the other files' acknowledged records,
    and nothing here merges them, so this raises before any log opens:
    :class:`~repro.errors.WALCorrupt` naming the stray log files, or
    :class:`~repro.errors.DisclosureError` naming the snapshot.
    """
    strays = sorted(
        p.name for p in directory.glob("wal*.log") if p.name != WAL_NAME
    )
    if strays:
        raise WALCorrupt(
            f"{directory} holds sharded WAL file(s) {strays}; this build "
            f"keeps one log ({WAL_NAME}) and does not recover a sharded "
            "directory"
        )
    shards = 1 if snapshot is None else snapshot.get("wal_shards", 1)
    if shards != 1:
        raise DisclosureError(
            f"snapshot {directory / SNAPSHOT_NAME} records {shards!r} WAL "
            f"shards; this build keeps one log ({WAL_NAME}) and does not "
            "recover a sharded directory"
        )


def _text(value: Optional[str]) -> bytes:
    if value is None:
        return _LENGTH.pack(_NONE)
    data = value.encode("utf-8")
    return _LENGTH.pack(len(data)) + data


def _observe_body(
    *, kind: str, id: str, doc_id: Optional[str], threshold: float,
    ts: float, selections: bytes,
) -> bytes:
    """An ``observe`` record's body; *selections* is a fingerprint's
    ``flat_selections`` (native byte order). Refuses what the decoder
    would refuse, so no such record is ever acknowledged."""
    if not isinstance(kind, str) or not isinstance(id, str):
        raise DisclosureError("an observe record needs a kind and an id")
    if len(selections) % _TRIPLE:
        raise DisclosureError(
            f"observe selections hold {len(selections)} bytes, not whole "
            f"{_TRIPLE}-byte (value, start, end) triples"
        )
    if not _LITTLE_ENDIAN:
        selections = swap_bytes(selections)
    return b"".join((
        _OBSERVE.pack(threshold, ts), _text(kind), _text(id), _text(doc_id),
        _LENGTH.pack(len(selections)), selections,
    ))


def _json_body(fields: dict) -> bytes:
    return json.dumps(fields, separators=(",", ":"), sort_keys=True).encode()


def _run(plain: memoryview, at: int, what: str) -> Tuple[Optional[memoryview], int]:
    """The length-prefixed bytes at *at* (None for the None marker) and
    the offset after them."""
    (length,) = _LENGTH.unpack_from(plain, at)
    at += _LENGTH.size
    if length == _NONE:
        return None, at
    if length > len(plain) - at:
        raise WALCorrupt(
            f"{what} claims {length} bytes, {len(plain) - at} remain"
        )
    return plain[at:at + length], at + length


def _decode_observe(plain: memoryview, lsn: int) -> dict:
    threshold, ts = _OBSERVE.unpack_from(plain, _HEAD.size)
    at = _HEAD.size + _OBSERVE.size
    texts = []
    for what in ("kind", "id", "doc_id"):
        raw, at = _run(plain, at, what)
        texts.append(None if raw is None else str(raw, "utf-8"))
    kind, segment_id, doc_id = texts
    if kind is None or segment_id is None:
        raise WALCorrupt("an observe record needs a kind and an id")
    raw, at = _run(plain, at, "selections")
    if raw is None or len(raw) % _TRIPLE:
        raise WALCorrupt(
            "observe selections are not whole (value, start, end) triples"
        )
    if at != len(plain):
        raise WALCorrupt(f"{len(plain) - at} bytes follow the selections")
    selections = raw.tobytes() if _LITTLE_ENDIAN else swap_bytes(raw)
    return {
        "lsn": lsn, "op": "observe", "kind": kind, "id": segment_id,
        "doc_id": doc_id, "threshold": threshold, "ts": ts,
        "selections": selections,
    }


def _decode_plain(plain: memoryview) -> dict:
    lsn, code = _HEAD.unpack_from(plain)
    op = _OP_NAMES.get(code)
    if op is None:
        raise WALCorrupt(f"unknown op code {code}")
    if op == "observe":
        return _decode_observe(plain, lsn)
    record = json.loads(str(plain[_HEAD.size:], "utf-8"))
    if not isinstance(record, dict):
        raise WALCorrupt(f"the fields of a {op!r} record are not an object")
    record["lsn"] = lsn
    record["op"] = op
    return record


def _decode_payload(payload: memoryview, cipher: Optional[UploadCipher]) -> dict:
    """One checksummed, non-empty payload's record; raises
    :class:`WALCorrupt` (or the codec's own errors, which the scan
    wraps) when it does not decode."""
    seal = payload[0]
    if seal == _PLAIN:
        return _decode_plain(payload[1:])
    if seal != _SEALED:
        raise WALCorrupt(f"unknown seal byte {seal}")
    if cipher is None:
        raise WALCorrupt("sealed WAL record but no cipher supplied")
    try:
        inner = memoryview(cipher.decrypt_bytes(payload[1:].tobytes()))
    except ValueError as exc:
        raise WALCorrupt(f"sealed WAL record is cut short ({exc})") from exc
    # Decryption with a wrong key yields garbage, not an error: the CRC
    # of the plain bytes sealed with them is what tells the two apart.
    plain = inner[_LENGTH.size:]
    if len(inner) < _LENGTH.size or (
        zlib.crc32(plain) != _LENGTH.unpack_from(inner)[0]
    ):
        raise WALCorrupt("WAL record cannot be decrypted — wrong cipher key?")
    return _decode_plain(plain)


def scan_wal_file(
    path, *, cipher: Optional[UploadCipher] = None
) -> Tuple[List[dict], int, int]:
    """Scan one log file into records plus torn-tail accounting.

    Returns ``(records, good_bytes, torn_bytes)``: *good_bytes* is the
    offset of the first unreadable byte (the length a recovery truncate
    should restore), *torn_bytes* what a crash left beyond it. A
    missing file scans as empty. Each record is a dict of its fields
    with ``lsn`` and ``op``; an ``observe`` record's ``selections`` are
    the packed bytes of ``Fingerprint.flat_selections``.

    Raises :class:`~repro.errors.WALCorrupt` for damage a torn append
    cannot cause, before the caller can truncate anything: a file that
    lacks the magic line (a ``BFWAL1`` log included), and a record that
    passes its checksum but does not decode — a wrong cipher key, a
    sealed record read without one, a malformed body. Classifying those
    as tail damage would let recovery truncate acknowledged records
    away.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return [], 0, 0
    if not blob:
        return [], 0, 0
    if blob.startswith(LEGACY_MAGIC):
        raise WALCorrupt(
            f"{path} is a BFWAL1 log of JSON records; this build reads "
            "BFWAL2 logs only"
        )
    if not blob.startswith(MAGIC):
        raise WALCorrupt(f"{path} is not a WAL file (bad magic)")
    view = memoryview(blob)
    records: List[dict] = []
    offset = len(MAGIC)
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            break  # torn header
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(blob) or not length:
            # A torn payload, or zeros a crash left where the file grew
            # (no record is empty: each opens with its seal byte).
            break
        payload = view[start:end]
        if zlib.crc32(payload) != crc:
            break  # torn or corrupt record: stop trusting the file here
        try:
            records.append(_decode_payload(payload, cipher))
        except (WALCorrupt, struct.error, ValueError, RecursionError) as exc:
            raise WALCorrupt(
                f"{path}: the record at byte {offset} passes its checksum "
                f"but does not decode: {exc}"
            ) from exc
        offset = end
    return records, offset, len(blob) - offset


class WriteAheadLog:
    """The append-only, checksummed log of one durable directory.

    Opening an existing file scans it, truncates any torn tail back to
    the last whole record, and resumes the LSN past the largest LSN on
    disk. The scanned records are kept on :attr:`recovered_records` so
    recovery does not read the file twice, until recovery takes them
    (:meth:`take_recovered_records`), and :attr:`torn_bytes` counts the
    bytes this open truncated.

    Appends are serialised under a mutex, which also allocates their
    LSNs; each append draws one fault decision from *faults* (when
    given) and maps it onto crash semantics:

    * ``drop`` — the process dies *before* the record reaches the file:
      a clean record-boundary crash, the operation is lost;
    * ``latency`` — a torn write: the first ``int(fault.latency)``
      bytes of the encoded record land (clamped to length-1, so the
      record is genuinely torn), then the process dies; recovery
      truncates it away, the operation is lost;
    * ``error`` — the record is fully written and fsynced but the
      process dies before the caller is acknowledged: recovery replays
      it, the operation *survives*.

    Every injected crash raises :class:`~repro.errors.SimulatedCrash`
    and permanently kills this log object (like the process it models);
    recovery happens by constructing a fresh one on the same path.
    """

    def __init__(
        self,
        path,
        *,
        fsync: str = "batch",
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
        cipher: Optional[UploadCipher] = None,
        faults: Optional[FaultInjector] = None,
        scope: Optional[MetricsScope] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval < 1:
            raise ValueError(f"fsync_interval must be >= 1, got {fsync_interval}")
        self.path = Path(path)
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._cipher = cipher
        self._faults = faults
        self._mutex = threading.Lock()
        self._dead = False
        self._appends_since_fsync = 0
        scope = scope or MetricsRegistry().scope("wal.")
        self.metrics = scope
        self._c_appends = scope.counter("appends")
        self._c_bytes = scope.counter("bytes_appended")
        self._c_fsyncs = scope.counter("fsyncs")
        self._c_crashes = scope.counter("crashes_injected")
        self._c_torn = scope.counter("torn_bytes_truncated")
        self._h_record_bytes = scope.histogram(
            "record_bytes", buckets=(64, 256, 1024, 4096, 16384)
        )
        self._h_fsync = scope.histogram("fsync_seconds")
        self._g_log_bytes = scope.gauge("log_bytes")
        self._clock = scope.registry.clock
        #: Records found on disk when this log was opened (LSN order as
        #: stored); recovery takes these instead of re-reading.
        self.recovered_records, good_bytes, self.torn_bytes = scan_wal_file(
            self.path, cipher=cipher
        )
        self._last_lsn = max(
            (record["lsn"] for record in self.recovered_records), default=0
        )
        if self.torn_bytes:
            # Truncate the torn tail so the new appends start at a
            # record boundary — the recovery half of atomicity.
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
            self._c_torn.inc(self.torn_bytes)
        self._handle = open(self.path, "ab")
        if self._handle.tell() == 0:
            # A new log: its magic and its directory entry must both be
            # durable before an append is acknowledged.
            self._handle.write(MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            _fsync_directory(self.path.parent)
        # The file's size, kept under the mutex so the log-size gauge
        # costs no system call per append.
        self._size = self._handle.tell()
        self._g_log_bytes.set(self._size)

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def size(self) -> int:
        """Bytes in the log file: its magic line and whole records."""
        return self._size

    def take_recovered_records(self) -> List[dict]:
        """Hand over :attr:`recovered_records` and keep none of them, so
        the records a recovery replayed do not live as long as the log."""
        records, self.recovered_records = self.recovered_records, []
        return records

    def append(self, op: str, **fields) -> int:
        """Append one record; returns its LSN.

        The record is on disk (modulo the fsync policy's window) when
        this returns — the write-ahead contract callers rely on. An
        ``observe`` takes ``kind``, ``id``, ``doc_id``, ``threshold``,
        ``ts`` and ``selections`` (a fingerprint's ``flat_selections``);
        every other op any JSON-serialisable fields. The body is
        encoded before an LSN is drawn, so a record that cannot be
        encoded costs none.
        """
        code = OP_CODES.get(op)
        if code is None:
            raise DisclosureError(f"unknown WAL op {op!r}")
        body = _observe_body(**fields) if op == "observe" else _json_body(fields)
        return self._append(lambda lsn: _HEAD.pack(lsn, code) + body)

    def append_payload(self, payload_for: Callable[[int], bytes]) -> int:
        """Append a pre-encoded record; returns its LSN.

        ``payload_for(lsn)`` must return the plain record bytes — head
        and body, unsealed — that :meth:`append` would write for the
        same record, so readers cannot tell which path wrote it. It
        exists for the one op hot enough to care (``observe``, whose
        body :class:`EngineJournal` packs once, outside the mutex, and
        whose selections are the fingerprint's bytes); the callback
        shape exists because the LSN lands in the record's head but is
        only allocated under the log's mutex.
        """
        return self._append(payload_for)

    def _frame(self, plain: bytes) -> bytes:
        """One framed record: plain, or sealed with the log's cipher."""
        if self._cipher is None:
            return b"".join((
                _FRAME.pack(len(plain) + 1, zlib.crc32(plain, _PLAIN_CRC)),
                _PLAIN_BYTE, plain,
            ))
        payload = bytes((_SEALED,)) + self._cipher.encrypt_bytes(
            _LENGTH.pack(zlib.crc32(plain)) + plain
        )
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def _fsync_log(self) -> None:
        started = self._clock.now()
        os.fsync(self._handle.fileno())
        self._h_fsync.observe(self._clock.now() - started)
        self._appends_since_fsync = 0
        self._c_fsyncs.inc()

    def _append(self, payload_for: Callable[[int], bytes]) -> int:
        with self._mutex:
            if self._dead:
                raise DisclosureError(
                    f"WAL {self.path} is dead after a simulated crash"
                )
            lsn = self._last_lsn + 1
            encoded = self._frame(payload_for(lsn))
            self._last_lsn = lsn
            fault = self._faults.next_fault() if self._faults is not None else None
            if fault is not None and fault.kind == "drop":
                self._dead = True
                self._c_crashes.inc()
                raise SimulatedCrash(
                    f"before appending lsn {lsn} to {self.path}"
                )
            if fault is not None and fault.kind == "latency":
                torn = min(int(fault.latency), len(encoded) - 1)
                torn = max(torn, 0)
                self._handle.write(encoded[:torn])
                self._handle.flush()
                self._dead = True
                self._c_crashes.inc()
                raise SimulatedCrash(
                    f"mid-record after {torn} bytes of lsn {lsn} in {self.path}"
                )
            self._handle.write(encoded)
            # Always push to the OS so a shipper reading the file sees
            # whole records; fsync (durability) follows the policy.
            self._handle.flush()
            self._size += len(encoded)
            self._g_log_bytes.set(self._size)
            self._appends_since_fsync += 1
            if self._fsync == "always" or (
                self._fsync == "batch"
                and self._appends_since_fsync >= self._fsync_interval
            ):
                self._fsync_log()
            if fault is not None and fault.kind == "error":
                self._dead = True
                self._c_crashes.inc()
                raise SimulatedCrash(
                    f"after appending lsn {lsn} to {self.path}, before ack"
                )
            self._c_appends.inc()
            self._c_bytes.inc(len(encoded))
            self._h_record_bytes.observe(len(encoded))
            return lsn

    def sync(self) -> None:
        """Force an fsync regardless of policy."""
        with self._mutex:
            if self._dead:
                return
            self._handle.flush()
            self._fsync_log()

    def rotate(self, snapshot_lsn: int) -> None:
        """Replace the file with a fresh log opening at a compact record.

        Called after a compaction snapshot stamped *snapshot_lsn* is
        durably in place. The fresh file's first record (``op:
        "compact"``) pins the LSN the snapshot covers; a crash before
        the replace leaves the old file, whose records are all at or
        below *snapshot_lsn* and therefore skipped at replay — either
        order is safe.

        Refuses when records beyond *snapshot_lsn* have already been
        acknowledged: rotating would discard them, breaking the
        write-ahead contract. Callers (``DurableEngine.compact``) must
        block mutations across the snapshot *and* this rotation.
        """
        with self._mutex:
            if self._dead:
                raise DisclosureError(
                    f"WAL {self.path} is dead after a simulated crash"
                )
            if self._last_lsn > snapshot_lsn:
                raise DisclosureError(
                    f"rotate(snapshot_lsn={snapshot_lsn}) would discard "
                    f"acknowledged records through lsn {self._last_lsn}; "
                    "block appends across the snapshot and the rotation"
                )
            self._last_lsn = lsn = self._last_lsn + 1
            encoded = MAGIC + self._frame(
                _HEAD.pack(lsn, OP_CODES["compact"])
                + _json_body({"snapshot_lsn": snapshot_lsn})
            )
            tmp = self.path.with_name(self.path.name + ".rotate.tmp")
            with open(tmp, "wb") as handle:
                handle.write(encoded)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            _fsync_directory(self.path.parent)
            self._handle = open(self.path, "ab")
            self._size = len(encoded)
            self._g_log_bytes.set(self._size)

    def close(self) -> None:
        with self._mutex:
            if self._handle.closed:
                return
            if not self._dead:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._handle.close()


class EngineJournal:
    """Adapts engine mutation hooks onto WAL appends.

    Attached to a :class:`~repro.disclosure.engine.DisclosureEngine`
    via :meth:`~repro.disclosure.engine.DisclosureEngine.
    attach_journal`; every hook serialises the *resolved* operation
    (computed timestamps, retained doc ids) so replay needs no engine
    logic beyond applying records verbatim.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal

    def log_observe(self, kind: str, record: SegmentRecord, ts: float) -> None:
        # The hottest record by far: its body is packed once, outside the
        # log's mutex, with the fingerprint's selection bytes as they
        # are. Only the selections are logged: a fingerprint's hash set
        # is exactly its selection values, so replay derives it.
        body = _observe_body(
            kind=kind, id=record.segment_id, doc_id=record.doc_id,
            threshold=record.threshold, ts=ts,
            selections=record.fingerprint.flat_selections,
        )
        self.wal.append_payload(
            lambda lsn: _HEAD.pack(lsn, _OBSERVE_CODE) + body
        )

    def log_remove(self, kind: str, segment_id: str) -> None:
        self.wal.append("remove", kind=kind, id=segment_id)

    def log_threshold(
        self, kind: str, segment_id: str, threshold: float
    ) -> None:
        self.wal.append(
            "threshold", kind=kind, id=segment_id, threshold=threshold,
        )

    def log_expire(
        self, kind: str, older_than: float, removed: Sequence[str]
    ) -> None:
        self.wal.append(
            "expire", kind=kind, older_than=older_than, removed=list(removed),
        )

    def log_suppress(
        self,
        *,
        user: str,
        tag: str,
        segment_id: str,
        justification: str,
        timestamp: float,
        target_service: Optional[str] = None,
    ) -> None:
        self.wal.append(
            "suppress",
            user=user,
            tag=tag,
            segment=segment_id,
            justification=justification,
            ts=timestamp,
            service=target_service,
        )


# ----------------------------------------------------------------------
# Replay and recovery
# ----------------------------------------------------------------------

def apply_record(
    record: dict, resolve_engine: Callable[[str], Optional[DisclosureEngine]]
) -> bool:
    """Apply one log record to the engine resolved for its kind.

    Returns True when engine state changed. Informational ops
    (``expire`` markers, ``suppress``, ``compact``) and removes of
    segments unknown to the target (already folded into a snapshot, or
    a replayed expiry) apply as no-ops — replay is idempotent.

    Replay must run with no journal attached to the target engines;
    re-journaling recovered operations would double them on the next
    recovery.
    """
    op = record["op"]
    if op not in ("observe", "remove", "threshold"):
        return False
    engine = resolve_engine(record.get("kind", "paragraph"))
    if engine is None:
        return False
    if engine._journal is not None:
        raise DisclosureError(
            "refusing to replay into an engine with a journal attached"
        )
    if op == "observe":
        # Packed (value, start, end) triples in native byte order, as
        # the scan decoded them: the hash set is every third value.
        selections = record["selections"]
        fingerprint = Fingerprint(
            hashes=frozenset(memoryview(selections).cast("Q")[0::3]),
            flat_selections=selections,
            config=engine.config,
        )
        engine.observe_fingerprint(
            record["id"],
            fingerprint,
            threshold=record["threshold"],
            doc_id=record["doc_id"],
            timestamp=record["ts"],
        )
        return True
    try:
        if op == "remove":
            engine.remove(record["id"])
        else:
            engine.set_threshold(record["id"], record["threshold"])
    except UnknownSegmentError:
        return False
    return True


def replay_records(
    records: Sequence[dict],
    resolve_engine: Callable[[str], Optional[DisclosureEngine]],
    *,
    after_lsn: int = 0,
) -> Tuple[int, int]:
    """Apply *records* with LSN beyond *after_lsn*, in LSN order.

    Returns ``(applied, skipped)`` counts; *skipped* covers both
    records at or below the cutoff and informational no-ops.
    """
    applied = 0
    skipped = 0
    for record in sorted(records, key=lambda r: r["lsn"]):
        if record["lsn"] <= after_lsn:
            skipped += 1
            continue
        if apply_record(record, resolve_engine):
            applied += 1
        else:
            skipped += 1
    return applied, skipped


def max_record_timestamp(records: Sequence[dict]) -> float:
    """Largest timestamp any record carries (0.0 when none do)."""
    latest = 0.0
    for record in records:
        ts = record.get("ts")
        if ts is not None:
            latest = max(latest, ts)
    return latest


@dataclass(frozen=True)
class RecoveryStats:
    """What one recovery did, for logs, metrics, and the CLI."""

    snapshot_lsn: int
    replayed: int
    skipped: int
    torn_bytes: int
    last_lsn: int
    resumed_clock: int
    #: Wall time of the whole recovery (snapshot read, log scan and
    #: truncation, replay), by the registry's clock.
    seconds: float


class DurableEngine:
    """A disclosure engine whose mutations survive crashes.

    Owns a directory holding an atomic snapshot plus one
    :class:`WriteAheadLog`; construction *is* recovery: load the
    snapshot (if any), replay the log tail past its ``wal_lsn`` stamp,
    truncate torn records, resume the logical clock, then attach the
    journal so new mutations are logged. Reads (``fingerprint``, ``disclosing_sources``, ``stats``,
    …) delegate to the wrapped engine untouched.

    ``compact_every`` triggers automatic compaction after that many
    journaled mutations; :meth:`compact` is always available manually.
    Crash injection arrives through ``faults`` exactly as on a bare
    :class:`WriteAheadLog`. A directory an older build journaled to
    sharded logs is refused before the log opens.
    """

    def __init__(
        self,
        directory,
        *,
        config: Optional[FingerprintConfig] = None,
        cipher: Optional[UploadCipher] = None,
        kind: str = "paragraph",
        authoritative: bool = True,
        fsync: str = "batch",
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
        compact_every: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._cipher = cipher
        self._compact_every = compact_every
        self._ops_since_compact = 0
        self.registry = registry or MetricsRegistry()
        scope = self.registry.scope("wal.")
        self.metrics = scope
        self._c_replayed = scope.counter("records_replayed")
        self._c_skipped = scope.counter("records_skipped")
        self._c_compactions = scope.counter("compactions")
        self._h_recovery_replayed = scope.histogram(
            "recovery_records", buckets=(1, 16, 256, 4096, 65536)
        )
        self._h_compact = scope.histogram("compact_seconds")
        self._g_snapshot_bytes = scope.gauge("snapshot_bytes")
        clock = self.registry.clock
        started = clock.now()

        snapshot_path = self.directory / SNAPSHOT_NAME
        legacy_path = self.directory / LEGACY_SNAPSHOT_NAME
        if legacy_path.exists():
            # Everything compacted into it is gone from the log, so
            # recovering from the WAL tail alone would lose it: refuse,
            # by its format version when it is a JSON snapshot.
            read_snapshot(legacy_path, cipher=cipher)
            raise DisclosureError(
                f"{legacy_path} is not where this build keeps snapshots "
                f"({SNAPSHOT_NAME}); refusing to recover around it"
            )
        # Read the snapshot *before* opening the log: a wrong-key,
        # corrupt, other-version or sharded snapshot must abort recovery
        # while the WAL is still untouched — opening the log truncates
        # torn tails, and with the wrong cipher key that would destroy
        # acknowledged records.
        data = (
            read_snapshot(snapshot_path, cipher=cipher)
            if snapshot_path.exists()
            else None
        )
        _refuse_sharded(self.directory, data)
        snapshot_lsn = 0
        snapshot_ts = 0.0
        if data is not None:
            self._g_snapshot_bytes.set(snapshot_path.stat().st_size)
            try:
                config = FingerprintConfig(**data["config"])
                kind = data.get("kind", kind)
                authoritative = data.get("authoritative", authoritative)
                snapshot_lsn = int(data.get("wal_lsn", 0))
                snapshot_ts = _max_timestamp(data)
            except (LookupError, TypeError, ValueError) as exc:
                raise SnapshotCorrupt(
                    f"snapshot {snapshot_path} is malformed "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        self.wal = WriteAheadLog(
            self.directory / WAL_NAME,
            fsync=fsync,
            fsync_interval=fsync_interval,
            cipher=cipher,
            faults=faults,
            scope=scope,
        )
        tail = [
            r for r in self.wal.take_recovered_records()
            if r["lsn"] > snapshot_lsn
        ]
        # Resume past every persisted timestamp — but a virgin directory
        # (no snapshot, no tail) starts at 0 like a fresh engine would,
        # keeping recovered and never-crashed clocks field-identical.
        has_state = data is not None or bool(tail)
        resumed = (
            int(max(snapshot_ts, max_record_timestamp(tail))) + 1
            if has_state
            else 0
        )
        self.engine = DisclosureEngine(
            config, LogicalClock(start=resumed),
            authoritative=authoritative, kind=kind, registry=self.registry,
        )
        # A failed recovery must not leak the log handles it opened.
        try:
            if data is not None:
                restore_into(self.engine, data)
            applied, skipped = replay_records(tail, lambda _kind: self.engine)
        except SnapshotCorrupt as exc:
            self.wal.close()
            raise SnapshotCorrupt(f"snapshot {snapshot_path}: {exc}") from exc
        except BaseException:
            self.wal.close()
            raise
        self._c_replayed.inc(applied)
        self._c_skipped.inc(skipped)
        self._h_recovery_replayed.observe(applied)
        self.recovery = RecoveryStats(
            snapshot_lsn=snapshot_lsn,
            replayed=applied,
            skipped=skipped,
            torn_bytes=self.wal.torn_bytes,
            last_lsn=self.wal.last_lsn,
            resumed_clock=resumed,
            seconds=clock.now() - started,
        )
        self.engine.attach_journal(EngineJournal(self.wal))

    # -- mutations (journaled via the engine hooks) --------------------

    def observe(self, segment_id: str, text: str, **kwargs) -> SegmentRecord:
        record = self.engine.observe(segment_id, text, **kwargs)
        self._after_mutation()
        return record

    def observe_fingerprint(
        self, segment_id: str, fingerprint: Fingerprint, **kwargs
    ) -> SegmentRecord:
        record = self.engine.observe_fingerprint(
            segment_id, fingerprint, **kwargs
        )
        self._after_mutation()
        return record

    def remove(self, segment_id: str) -> None:
        self.engine.remove(segment_id)
        self._after_mutation()

    def set_threshold(self, segment_id: str, threshold: float) -> None:
        self.engine.set_threshold(segment_id, threshold)
        self._after_mutation()

    def expire(self, *, older_than: float) -> List[str]:
        from repro.disclosure.persistence import expire_segments

        stale = expire_segments(self.engine, older_than=older_than)
        if stale:
            self._after_mutation()
        return stale

    def _after_mutation(self) -> None:
        self._ops_since_compact += 1
        if (
            self._compact_every is not None
            and self._ops_since_compact >= self._compact_every
        ):
            self.compact()

    # -- compaction and lifecycle --------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME

    def compact(self) -> int:
        """Fold the log into an atomic snapshot; returns its LSN stamp.

        Order matters for crash safety: the snapshot (stamped with the
        last journaled LSN) replaces the old one atomically *first*;
        only then is the log rotated. A crash between the two steps
        leaves a log whose records are all covered by the snapshot's
        stamp — replay skips them.

        The engine read lock is held across *both* steps: journaled
        mutations append under the write lock, so no record with an LSN
        beyond the stamp can be acknowledged between the snapshot and
        the rotation — rotating outside the lock would let such a
        record be discarded with the old log file.
        :meth:`WriteAheadLog.rotate` additionally refuses if one slipped
        through.
        """
        clock = self.registry.clock
        started = clock.now()
        with self.engine.lock.read_locked():
            lsn = self.wal.last_lsn
            size = save_engine(
                self.engine, self.snapshot_path, cipher=self._cipher,
                wal_lsn=lsn,
            )
            self.wal.rotate(lsn)
        self._ops_since_compact = 0
        self._c_compactions.inc()
        self._g_snapshot_bytes.set(size)
        self._h_compact.observe(clock.now() - started)
        return lsn

    def close(self) -> None:
        self.engine.detach_journal()
        self.wal.close()

    def __getattr__(self, name: str):
        # Reads (disclosing_sources, fingerprint, stats, hash_db, …)
        # pass through to the wrapped engine. Guard the delegate itself
        # so a failed lookup during __init__ cannot recurse.
        if name == "engine":
            raise AttributeError(name)
        return getattr(self.engine, name)


class LogShipper:
    """Incremental reader of a primary's log for standby catch-up.

    Each :meth:`poll` re-scans the primary's ``wal.log`` and returns
    the records beyond the cursor, in LSN order, then advances the
    cursor. Safe against a concurrent appender: a torn final record
    (an append in flight, or the debris of the primary's death) is
    simply not returned; if the append completes it appears on the next
    poll, and if the primary died it never does — exactly the records a
    recovery of the primary would replay. A directory an older build
    journaled to sharded logs is refused at construction.

    Rotation-aware: a rotated log's ``compact`` record has an LSN above
    the cursor, so the standby learns of compactions. Nothing guarantees
    the standby polled every record *before* the rotation folded it into
    the snapshot (which is never shipped) — a slow poller can find a
    ``compact`` record whose ``snapshot_lsn`` is beyond its cursor, and
    the records in between are gone from the log. The shipper itself
    just reports what is on disk; :class:`~repro.plugin.server.
    StandbyLookupServer.catch_up` detects that hole and raises
    :class:`~repro.errors.StandbyGap` rather than silently diverging.
    """

    def __init__(self, directory, *, cipher: Optional[UploadCipher] = None):
        self.directory = Path(directory)
        self._cipher = cipher
        snapshot_path = self.directory / SNAPSHOT_NAME
        _refuse_sharded(
            self.directory,
            read_snapshot(snapshot_path, cipher=cipher)
            if snapshot_path.exists()
            else None,
        )
        self.cursor = 0

    def poll(self) -> List[dict]:
        records, _good, _torn = scan_wal_file(
            self.directory / WAL_NAME, cipher=self._cipher
        )
        fresh = [r for r in records if r["lsn"] > self.cursor]
        if fresh:
            self.cursor = fresh[-1]["lsn"]
        return fresh
