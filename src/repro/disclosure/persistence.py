"""Fingerprint persistence, encryption at rest, and retention (§4.4).

"Storing fingerprints long-term to facilitate disclosure calculations
(e.g. DBpar) can introduce an additional attack target if a device gets
compromised. To mitigate this we recommend encrypting all fingerprint
data at rest and performing periodic removal of old fingerprints."

This module implements exactly that: snapshots of a
:class:`~repro.disclosure.engine.DisclosureEngine` (both databases,
with first-seen timestamps preserved so authoritative ownership
survives a restart), optional encryption with the deployment's
:class:`~repro.plugin.crypto.UploadCipher`, and an expiry sweep that
drops segments not updated since a cutoff.

Format version 4 is a binary container (DESIGN.md §14)::

    file    := MAGIC body | SEALED_MAGIC nonce encrypt(body)
    body    := frame(header JSON) frame(section)*
    frame   := length:u64le crc32:u32le payload[length]

The JSON header holds everything but the hash data: the version,
config, ``authoritative``, ``kind``, ``wal_lsn`` and one row per
segment, ``[id, threshold, kind, doc_id, last_updated, values, runs]``,
where the last two count the segment's share of the sections. The
sections are little-endian arrays (:data:`SECTIONS`): every segment's flat
selections, then the first-seen times of each segment's distinct
selection values, in the order they first occur in its selections,
run-length encoded as (time, length) runs. Nothing is stored per hash:
restore derives each segment's hash set and first-seen groups from its
own selections and builds the hash database in one bulk load (see
:func:`snapshot_engine`, :func:`restore_into`). Model files
(:mod:`repro.tdm.state`) use the same container.

Snapshot writes are atomic: the payload goes to a temp file in the
target directory, is fsynced, and is then ``os.replace``d over the
destination, so a reader never sees a torn snapshot — a crash mid-write
leaves the previous snapshot intact. Crash points can be injected
deterministically through a :class:`~repro.util.faults.FaultInjector`
(see :func:`atomic_write_bytes`), which is how the regression tests
kill the writer at arbitrary byte positions without sleeps or
subprocesses.

Corrupt snapshots surface as :class:`~repro.errors.SnapshotCorrupt`
(a :class:`~repro.errors.DisclosureError`) with a message naming the
file and the failure, never as a raw decoding traceback. A length field
is checked against the bytes that remain before anything is read for
it.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from contextlib import suppress
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.disclosure.engine import DisclosureEngine
from repro.disclosure.store import SegmentRecord
from repro.errors import DisclosureError, SimulatedCrash, SnapshotCorrupt
from repro.fingerprint import Fingerprint, FingerprintConfig
from repro.plugin.crypto import MARKER, UploadCipher
from repro.util.clock import Clock, LogicalClock
from repro.util.faults import FaultInjector

#: Snapshot format version; bump on incompatible changes. Other
#: versions, the JSON formats 1–3 included, are refused rather than
#: converted.
SNAPSHOT_VERSION = 4

#: First line of a snapshot or model file with a plain body.
MAGIC = b"BFSNAP\n"
#: First line of one whose body is encrypted with the deployment cipher.
SEALED_MAGIC = b"BFSNAP sealed\n"

_FRAME = struct.Struct("<QI")  # payload length, crc32(payload)

#: An engine snapshot's sections, in file order, with their array
#: typecodes (8-byte unsigned ints and doubles; ``hash_bits`` may be 64).
SECTIONS = (("selections", "Q"), ("run_times", "d"), ("run_lengths", "Q"))
_SECTION_NAMES = frozenset(name for name, _typecode in SECTIONS)

_LITTLE_ENDIAN = sys.byteorder == "little"


def _max_timestamp(data: dict) -> float:
    """Largest timestamp anywhere in a snapshot (0.0 when empty)."""
    return max(
        max((row[4] for row in data.get("segments", ())), default=0.0),
        max(data.get("run_times", ()), default=0.0),
    )


def _check_version(data: dict, where: str = "") -> None:
    """Refuse another format version; :func:`read_snapshot` and
    :func:`restore_engine`, the two ways snapshots come in, both call
    this (``DurableEngine`` reads before it opens any log)."""
    if data.get("version") != SNAPSHOT_VERSION:
        raise DisclosureError(
            f"unsupported snapshot version {data.get('version')!r}{where} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )


def snapshot_engine(
    engine: DisclosureEngine,
    *,
    wal_lsn: Optional[int] = None,
) -> dict:
    """Serialise an engine's databases to a snapshot dict.

    The dict holds the header fields, one row per segment under
    ``"segments"`` (see the module docstring), and the :data:`SECTIONS`
    arrays. A segment's runs give the first-seen time of each distinct
    value of its selections, in first-occurrence order; a segment
    observes exactly its fingerprint's hashes (the engine's
    cross-database invariant), so the runs of all segments are the
    whole hash database. A segment whose hashes the hash database does
    not all hold raises :class:`~repro.errors.DisclosureError` rather
    than writing runs that do not cover them.

    *wal_lsn*, when given, records the last WAL log sequence number
    folded into this snapshot; recovery replays only records beyond it
    (see :mod:`repro.disclosure.wal`).
    """
    config = engine.config
    first_seen_of = engine.hash_db.first_seen_of
    rows = []
    selections = array("Q")
    run_times = array("d")
    run_lengths = array("Q")
    for record in engine.segment_db:
        flat = record.fingerprint.flat_selections
        # The selection values are distinct unless an n-gram recurs,
        # which the stored hash set tells without a pass.
        distinct = memoryview(flat).cast("Q")[0::3].tolist()
        if len(distinct) != len(record.fingerprint.hashes):
            distinct = list(dict.fromkeys(distinct))
        first_seen = first_seen_of(record.segment_id, distinct)
        if len(first_seen) != len(distinct):
            raise DisclosureError(
                f"segment {record.segment_id!r}: the hash database holds "
                f"{len(first_seen)} of its {len(distinct)} distinct selection "
                "values"
            )
        runs = 0
        for timestamp, run in groupby(map(first_seen.__getitem__, distinct)):
            run_times.append(timestamp)
            run_lengths.append(len(list(run)))
            runs += 1
        selections.frombytes(flat)
        rows.append([
            record.segment_id, record.threshold, record.kind, record.doc_id,
            record.last_updated, len(flat) // 8, runs,
        ])
    data = {
        "version": SNAPSHOT_VERSION,
        "config": {
            "ngram_size": config.ngram_size,
            "window_size": config.window_size,
            "hash_bits": config.hash_bits,
        },
        "authoritative": engine._authoritative,
        "kind": engine._kind,
        "segments": rows,
        "selections": selections,
        "run_times": run_times,
        "run_lengths": run_lengths,
    }
    if wal_lsn is not None:
        data["wal_lsn"] = wal_lsn
    return data


def restore_engine(
    data: dict, *, clock: Optional[Clock] = None
) -> DisclosureEngine:
    """Rebuild an engine from a snapshot dict.

    First-seen timestamps are restored verbatim, so the earliest-owner
    relation — and therefore every disclosure decision — is identical
    to the engine that was saved. Malformed snapshot dicts raise
    :class:`~repro.errors.SnapshotCorrupt` naming the defect.
    """
    if not isinstance(data, dict):
        raise SnapshotCorrupt(
            f"snapshot root must be a JSON object, got {type(data).__name__}"
        )
    _check_version(data)
    try:
        config = FingerprintConfig(**data["config"])
        engine = DisclosureEngine(
            config,
            clock if clock is not None else LogicalClock(
                # Resume the logical clock past every persisted
                # timestamp: otherwise a restarted process hands out
                # timestamps at or before the snapshot's, letting
                # post-restart observations steal authoritative
                # ownership from the true first observers.
                start=int(_max_timestamp(data)) + 1
            ),
            authoritative=data.get("authoritative", True),
            kind=data.get("kind", "paragraph"),
        )
    except (LookupError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"snapshot is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return restore_into(engine, data)


def restore_into(engine: DisclosureEngine, data: dict) -> DisclosureEngine:
    """Load a snapshot dict's segments and hash ownership into *engine*.

    *engine* must be freshly constructed (empty databases) with a config
    matching the snapshot's, at any shard count. Used directly by WAL
    recovery, which builds the engine itself so the recovered tier's
    shard count matches the pre-crash deployment.

    Each segment takes its slice of the sections: its selections give
    its hash set, and its runs give the first-seen times of its
    distinct selection values in first-occurrence order, so a hash can
    appear neither twice in a segment nor outside its selections. All
    segments' first-seen groups, sorted by ``(first_seen, segment_id)``,
    go to one bulk load, where the first group to name a hash owns it —
    the same owner a ``record_fingerprint()`` per group would pick.
    :class:`~repro.errors.SnapshotCorrupt` names the segment when its
    selections are not whole triples, its counts overrun the sections,
    or its runs do not cover exactly its distinct values, and the
    snapshot when the sections hold values no segment claims. The
    format version is the caller's to check (:func:`read_snapshot`,
    :func:`restore_engine`).
    """
    config = engine.config
    snap_config = data.get("config", {})
    if snap_config and (
        config.ngram_size,
        config.window_size,
        config.hash_bits,
    ) != (
        snap_config.get("ngram_size"),
        snap_config.get("window_size"),
        snap_config.get("hash_bits"),
    ):
        raise DisclosureError(
            f"snapshot fingerprint config {snap_config} does not match "
            f"the engine's ({config.ngram_size}, {config.window_size}, "
            f"{config.hash_bits})"
        )
    try:
        rows = data["segments"]
        values = array("Q", data["selections"])
        # A segment's selections are a slice of the section's bytes.
        # They are whole triples, so the hash values of all segments are
        # every third value of the section: only those become ints.
        packed = values.tobytes()
        hash_values = tuple(values[0::3])
        times = list(data["run_times"])
        lengths = list(data["run_lengths"])
        put = engine.segment_db.put
        groups = []
        pos = run = 0
        for row in rows:
            segment_id, threshold, kind, doc_id, last_updated, count, runs = row
            if count % 3:
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: {count} selection values are "
                    "not whole [value, start, end] triples"
                )
            first, pos = pos, pos + count
            run_times = times[run:run + runs]
            if not first <= pos <= len(values) or len(run_times) != runs:
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: the header claims {count} "
                    f"selection values and {runs} runs, beyond the sections"
                )
            flat = packed[8 * first:8 * pos]
            selected = hash_values[first // 3:pos // 3]
            hashes = frozenset(selected)
            distinct = (
                selected if len(hashes) == len(selected)
                else tuple(dict.fromkeys(selected))
            )
            start = 0
            for first_seen, length in zip(run_times, lengths[run:run + runs]):
                groups.append(
                    (first_seen, segment_id, distinct[start:start + length])
                )
                start += length
            run += runs
            if start != len(distinct):
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: its first-seen runs cover "
                    f"{start} hashes, its selections hold {len(distinct)} "
                    "distinct values"
                )
            put(
                SegmentRecord(
                    segment_id=segment_id,
                    fingerprint=Fingerprint(
                        hashes=hashes,
                        flat_selections=flat,
                        config=config,
                    ),
                    threshold=threshold,
                    kind=kind,
                    doc_id=doc_id,
                    last_updated=last_updated,
                )
            )
        if (pos, run, run) != (len(values), len(times), len(lengths)):
            raise SnapshotCorrupt(
                f"the segments claim {pos} selection values and {run} runs; "
                f"the sections hold {len(values)} values, {len(times)} run "
                f"times and {len(lengths)} run lengths"
            )
        groups.sort(key=itemgetter(0, 1))
        engine.hash_db.bulk_load(groups)
    except (LookupError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"snapshot is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return engine


# ----------------------------------------------------------------------
# The container: magic line, header frame, section frames
# ----------------------------------------------------------------------

def split_sections(data: dict) -> Tuple[dict, List[array]]:
    """A snapshot dict's header fields and its :data:`SECTIONS` arrays."""
    header = {k: v for k, v in data.items() if k not in _SECTION_NAMES}
    return header, [data[name] for name, _typecode in SECTIONS]


def join_sections(header: dict, payloads: Sequence, what: str) -> dict:
    """Inverse of :func:`split_sections` over decoded section bytes.

    Raises :class:`~repro.errors.SnapshotCorrupt` naming *what* when the
    section count is wrong or a section is not whole 8-byte values.
    """
    if len(payloads) != len(SECTIONS):
        raise SnapshotCorrupt(
            f"{what} holds {len(payloads)} sections; an engine snapshot "
            f"has {len(SECTIONS)}"
        )
    data = dict(header)
    for (name, typecode), payload in zip(SECTIONS, payloads):
        values = array(typecode)
        if len(payload) % values.itemsize:
            raise SnapshotCorrupt(
                f"{what}: section {name!r} holds {len(payload)} bytes, not "
                f"whole {values.itemsize}-byte values"
            )
        values.frombytes(payload)
        if not _LITTLE_ENDIAN:
            values.byteswap()
        data[name] = values
    return data


def swap_bytes(data, typecode: str = "Q") -> bytes:
    """The bytes of *data*'s *typecode* values, each in the other byte
    order; *data* is any bytes-like object (bytes, a memoryview slice,
    an array). A big-endian host writes snapshot sections, and writes
    and reads a WAL record's selections, through this."""
    values = array(typecode)
    values.frombytes(memoryview(data).cast("B"))
    values.byteswap()
    return values.tobytes()


def _little_endian(values: array) -> bytes:
    if _LITTLE_ENDIAN:
        return values.tobytes()
    return swap_bytes(values, values.typecode)


def encode_container(
    header: dict, sections: Sequence[array], cipher: Optional[UploadCipher] = None
) -> bytes:
    """The file bytes of a JSON *header* and its binary *sections*.

    Each part is framed with its length and CRC-32. With a cipher the
    body after the magic line is encrypted as bytes.
    """
    parts = [json.dumps(header, separators=(",", ":")).encode("ascii")]
    parts += [_little_endian(values) for values in sections]
    body = b"".join(
        piece
        for part in parts
        for piece in (_FRAME.pack(len(part), zlib.crc32(part)), part)
    )
    if cipher is None:
        return MAGIC + body
    return SEALED_MAGIC + cipher.encrypt_bytes(body)


def is_sealed(blob: bytes) -> bool:
    """Whether *blob* needs a cipher: a sealed container, or a format-3
    or older snapshot in the text armour."""
    return blob.startswith(SEALED_MAGIC) or blob.startswith(MARKER.encode())


def decode_container(
    blob: bytes, cipher: Optional[UploadCipher], what: str
) -> Tuple[dict, List[memoryview]]:
    """Split file bytes into the JSON header and the section payloads.

    Every frame's length is checked against the bytes that remain
    before it is read, and its CRC-32 against its payload; a wrong
    cipher key fails the header frame. A file without the magic line is
    parsed as the JSON document formats 1–3 were, and returned with no
    sections, so the caller refuses it by its version. Damage raises
    :class:`~repro.errors.SnapshotCorrupt` naming *what*; the caller
    refuses a sealed file without a cipher first (:func:`is_sealed`).
    """
    sealed = blob.startswith(SEALED_MAGIC)
    if sealed:
        try:
            body = memoryview(cipher.decrypt_bytes(blob[len(SEALED_MAGIC):]))
        except ValueError as exc:
            raise SnapshotCorrupt(f"{what} is truncated or corrupt: {exc}") from exc
    elif blob.startswith(MAGIC):
        body = memoryview(blob)[len(MAGIC):]
    else:
        return _json_document(blob, cipher, what), []
    frames: List[memoryview] = []
    offset = 0
    while offset < len(body) or not frames:
        problem = None
        if len(body) - offset < _FRAME.size:
            problem = f"frame {len(frames)} is cut short at byte {offset}"
        else:
            length, crc = _FRAME.unpack_from(body, offset)
            offset += _FRAME.size
            if length > len(body) - offset:
                problem = (
                    f"frame {len(frames)} claims {length} bytes, "
                    f"{len(body) - offset} remain"
                )
            elif zlib.crc32(body[offset:offset + length]) != crc:
                problem = f"frame {len(frames)} fails its checksum"
        if problem is not None:
            if sealed and not frames:
                raise SnapshotCorrupt(
                    f"{what} cannot be decrypted — wrong key or corrupt "
                    f"ciphertext ({problem})"
                )
            raise SnapshotCorrupt(f"{what} is truncated or corrupt: {problem}")
        frames.append(body[offset:offset + length])
        offset += length
    try:
        header = json.loads(frames[0].tobytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SnapshotCorrupt(
            f"{what} is truncated or corrupt: the header is not JSON ({exc})"
        ) from exc
    if not isinstance(header, dict):
        raise SnapshotCorrupt(
            f"{what} header must be a JSON object, got {type(header).__name__}"
        )
    return header, frames[1:]


def _json_document(
    blob: bytes, cipher: Optional[UploadCipher], what: str
) -> dict:
    """The JSON object of a file without the magic line (formats 1–3)."""
    try:
        text = blob.decode("utf-8")
        if UploadCipher.is_encrypted(text):
            text = cipher.decrypt(text)
        data = json.loads(text)
    except ValueError as exc:  # bad hex, UTF-8 or JSON
        raise SnapshotCorrupt(
            f"{what} is truncated or corrupt: no snapshot magic line and "
            f"not JSON ({type(exc).__name__})"
        ) from exc
    if not isinstance(data, dict):
        raise SnapshotCorrupt(
            f"{what} root must be a JSON object, got {type(data).__name__}"
        )
    return data


def atomic_write_bytes(
    path: Path, data: bytes, *, faults: Optional[FaultInjector] = None
) -> None:
    """Atomically replace *path* with *data*.

    The bytes go to an fsynced temp file in the same directory, then an
    ``os.replace`` swings the name; the containing directory is fsynced
    so the rename itself is durable. At no point can a reader observe a
    half-written *path*.

    *faults* injects one deterministic crash decision per call:

    * ``drop`` — crash before anything touches the disk;
    * ``latency`` — a torn write: the first ``int(fault.latency)``
      bytes of the payload reach the temp file, then the process dies;
    * ``error`` — the temp file is complete and fsynced, but the
      process dies before the rename.

    Every crash raises :class:`~repro.errors.SimulatedCrash` and leaves
    any debris a real crash would (a stale temp file) — but never a
    torn *path*.
    """
    fault = faults.next_fault() if faults is not None else None
    if fault is not None and fault.kind == "drop":
        raise SimulatedCrash(f"before writing snapshot {path}")
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if fault is not None and fault.kind == "latency":
                # Torn write: at most len-1 bytes land, then the crash.
                torn = min(int(fault.latency), max(len(data) - 1, 0))
                handle.write(data[:torn])
                handle.flush()
                raise SimulatedCrash(
                    f"mid-write after {torn} bytes of snapshot {path}"
                )
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if fault is not None and fault.kind == "error":
            raise SimulatedCrash(f"after temp write, before renaming {path}")
        os.replace(tmp_name, path)
    except SimulatedCrash:
        # A real crash leaves its temp-file debris behind; so do we.
        raise
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's metadata so a completed rename is durable."""
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def encode_snapshot(data: dict, cipher: Optional[UploadCipher] = None) -> bytes:
    """The file bytes of a snapshot dict (see :func:`snapshot_engine`)."""
    return encode_container(*split_sections(data), cipher)


def decode_snapshot(
    blob: bytes, cipher: Optional[UploadCipher] = None, *, source: str = "<bytes>"
) -> dict:
    """Inverse of :func:`encode_snapshot`; *source* names the file in
    errors. Another format version raises
    :class:`~repro.errors.DisclosureError`, damage
    :class:`~repro.errors.SnapshotCorrupt`."""
    what = f"snapshot {source}"
    header, payloads = decode_container(blob, cipher, what)
    _check_version(header, f" in {source}")
    return join_sections(header, payloads, what)


def save_engine(
    engine: DisclosureEngine,
    path,
    *,
    cipher: Optional[UploadCipher] = None,
    wal_lsn: Optional[int] = None,
    faults: Optional[FaultInjector] = None,
) -> int:
    """Atomically write a snapshot to *path*; returns its size in bytes.

    Encrypted when a cipher is given. *wal_lsn* stamps the snapshot
    with the last WAL record it covers (compaction); *faults* injects
    deterministic crash points (see :func:`atomic_write_bytes`).
    """
    payload = encode_snapshot(snapshot_engine(engine, wal_lsn=wal_lsn), cipher)
    atomic_write_bytes(Path(path), payload, faults=faults)
    return len(payload)


def read_snapshot(path, *, cipher: Optional[UploadCipher] = None) -> dict:
    """Read and decode a snapshot file to its dict form.

    Raises :class:`~repro.errors.SnapshotCorrupt` on truncated, corrupt,
    or wrong-cipher payloads, and a plain
    :class:`~repro.errors.DisclosureError` when the file is encrypted
    but no cipher was supplied or holds another format version (the
    JSON formats 1–3 included).
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DisclosureError(f"cannot read snapshot {path}: {exc}") from exc
    if cipher is None and is_sealed(blob):
        raise DisclosureError(
            f"snapshot {path} is encrypted; a cipher is required"
        )
    return decode_snapshot(blob, cipher, source=str(path))


def load_engine(
    path, *, cipher: Optional[UploadCipher] = None, clock: Optional[Clock] = None
) -> DisclosureEngine:
    """Read a snapshot from *path*; decrypts when a cipher is given."""
    data = read_snapshot(path, cipher=cipher)
    try:
        return restore_engine(data, clock=clock)
    except SnapshotCorrupt as exc:
        raise SnapshotCorrupt(f"snapshot {path}: {exc}") from exc


def expire_segments(engine: DisclosureEngine, *, older_than: float) -> List[str]:
    """Remove segments whose last update predates *older_than*.

    The periodic-removal half of the §4.4 mitigation: stale fingerprints
    stop being an attack target, and their hash-ownership claims are
    released so younger copies become authoritative.
    """
    stale = [
        record.segment_id
        for record in engine.segment_db
        if record.last_updated < older_than
    ]
    for segment_id in stale:
        engine.remove(segment_id)
    journal = getattr(engine, "_journal", None)
    if journal is not None and stale:
        # The removes above were journaled individually; this marker
        # records *why* (a retention sweep), for audit and shipping.
        journal.log_expire(engine._kind, older_than, stale)
    return stale
